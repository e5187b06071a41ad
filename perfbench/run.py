"""repdyn benchmark: closed-loop workloads of experiment and CLI items.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # summary table of every workload

Run from the repository root; repdyn is imported from ./src. S defaults to
BENCHMARK.json's run_seconds. With --trace 0 a run times NAME's set-up in
fresh processes, then runs whole passes of the workload until S seconds have
passed and at least two passes have run, and verifies every item as it ends;
the last stdout line reports the end-to-end metrics, wall_s and cpu_s as
medians over passes. With --trace 1 each pass runs every item untraced and
then traced, until S seconds have passed (at least one pass), and the last
line reports per-layer metrics, medians over passes. The line before the
last is a record of the environment, every pass and item time, and the
per-table sha256 digests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread for every workload process (at most nproc); main() sets it before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_RUNS = 5
SETUP_CODE = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
              "workloads.build_inputs(sys.argv[3], int(sys.argv[4]))")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}
COMPUTED = {"flows.rk4_steps": "count.computed", "flows.rhs_evals": "count.computed",
            "flows.matrix_exponential.distinct_ratio": "ratio.computed",
            "spectral.eigen_decompose.distinct_ratio": "ratio.computed"}


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric in COMPUTED:
        return COMPUTED[metric]
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import repdyn and build the workload's inputs."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(ROOT / "perfbench"),
                        workload, str(seed)], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs whole passes of one workload's items and verifies every item as soon as it ends."""

    def __init__(self, workload_items, out_root: Path, verifier, record: dict):
        self.items = workload_items
        self.out_root = out_root
        self.verifier = verifier
        self.record = record
        self.attempted = 0
        self.failed = 0

    def passes(self, seconds: float) -> tuple:
        """Untraced passes until ``seconds`` have passed and at least two have run.

        Two passes at least, so that every item's table bytes are compared
        with its first pass even when one pass outlasts ``seconds``. Returns
        per-pass wall and CPU times: the sums over the pass's items.
        """
        walls, cpus = [], []
        begin = time.perf_counter()
        while len(walls) < 2 or time.perf_counter() - begin < seconds:
            times = [self._run(item) for item in self.items]
            walls.append(sum(wall for wall, _ in times))
            cpus.append(sum(cpu for _, cpu in times))
        return walls, cpus

    def traced_passes(self, seconds: float, tracer) -> tuple:
        """Passes until ``seconds`` have passed (at least one) that run each item untraced and traced.

        Running the two next to each other keeps the host's slow and fast
        phases out of the overhead ratio, and every other item runs traced
        first, so that neither gains from going second. Returns per-pass
        untraced wall times, traced/untraced wall-time ratios and layer metrics.
        """
        walls, ratios, layers = [], [], []
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin < seconds:
            untraced = traced = 0.0
            for index, item in enumerate(self.items):
                order = (None, tracer) if (len(walls) + index) % 2 == 0 else (tracer, None)
                for each in order:
                    wall = self._run(item, each)[0]
                    if each is None:
                        untraced += wall
                    else:
                        traced += wall
            walls.append(untraced)
            ratios.append(traced / untraced)
            layers.append(tracer.pass_metrics())
        return walls, ratios, layers

    def _run(self, item, tracer=None) -> tuple:
        """Runs one item, traced if ``tracer`` is given, then verifies it; returns (wall, CPU) seconds."""
        import workloads

        if tracer is not None:
            tracer.install()
            tracer.item = item.id
        error = None
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            workloads.run_item(item, str(self.out_root / item.id))
        except Exception as exc:  # a failing item is counted, never retried
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
            if tracer is not None:
                tracer.item = None
                tracer.uninstall()
        self._verify(item, wall, error, traced=tracer is not None)
        return wall, cpu

    def _verify(self, item, wall: float, error, traced: bool) -> None:
        entry = self.record.setdefault(item.id, {"experiment": item.name, "item_seed": item.seed,
                                                 "wall_s": [], "traced_wall_s": [],
                                                 "problems": []})
        entry["traced_wall_s" if traced else "wall_s"].append(wall)
        problems = [error] if error else []
        if not problems:
            try:
                entry["tables"], problems = self.verifier.check(item, str(self.out_root / item.id))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable bundle: {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            entry["problems"] += problems


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in handle
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None  # the benchmark may run from an export that is not a git checkout
    sources = sorted((SRC / "repdyn").rglob("*.py"))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_revision": revision,
        "src_repdyn_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "seed": seed,
    }


def run_workload(args) -> int:
    if not (SRC / "repdyn" / "__init__.py").is_file():
        print(f"perfbench: no repdyn sources under {SRC}; run from a repdyn checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer, median_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else None
    workload_items = workloads.build_inputs(args.workload, args.seed)
    out_root = ROOT / ".bench_out" / f"run-{os.getpid()}"
    item_record = {}
    runner = Runner(workload_items, out_root, workloads.Verifier(), item_record)
    try:
        if args.trace:
            walls, ratios, layers = runner.traced_passes(args.seconds, Tracer())
            metrics = median_metrics(layers)
            metrics["trace.overhead_ratio"] = statistics.median(ratios)
        else:
            walls, cpus = runner.passes(args.seconds)
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_ratio": 1.0 - runner.failed / runner.attempted,
            }
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    failed_ratio = runner.failed / runner.attempted
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls)} items/pass={len(workload_items)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:14.6g} {_unit(name)}")
    print(f"  {'failed_ratio':<44} {failed_ratio:14.6g} ratio "
          f"({runner.failed} of {runner.attempted} items)")
    record = {"environment": environment(args.seed), "workload": args.workload,
              "seconds": args.seconds, "pass_wall_s": walls, "items": item_record,
              "computed_metrics": sorted(COMPUTED) if args.trace else []}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one summary row per workload."""
    from workloads import WORKLOADS

    print(f"{'workload':<18}" + "".join(f"{m:>14}" for m in (*END_TO_END_UNITS, "failed_ratio")))
    print(f"{'':<18}" + "".join(f"{u:>14}" for u in (*END_TO_END_UNITS.values(), "ratio")))
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<18} failed (exit {proc.returncode}): {proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        values = [result["metrics"][m]["value"] for m in END_TO_END_UNITS]
        values.append(result["failed"] / result["attempted"])
        print(f"{name:<18}" + "".join(f"{v:>14.6g}" for v in values))
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
