"""Run every workload on several seeds and write the results as perfbench/BENCH_<label>.json.

    python3 perfbench/baseline.py --label baseline

Each workload runs once per seed 0..9 untraced and once traced (seed 0), for
BENCHMARK.json's run_seconds each, the default of run.py's --seconds.
The file holds every run's metrics, pass and item times, the full record of
the first and the traced run (environment, per-table sha256 digests), and
per end-to-end metric the median and the spread (distance between the first
and third quartile over the median). Compare two such files only when they
come from the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = 10


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, **json.loads(lines[-1]), **json.loads(lines[-2])}


def brief(result: dict) -> dict:
    """A run without its environment and digests: metrics, pass and item times."""
    record = result["record"]
    items = {name: item["wall_s"] for name, item in record["items"].items()}
    return {**{k: v for k, v in result.items() if k != "record"},
            "pass_wall_s": record["pass_wall_s"], "item_wall_s": items}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    result = {"label": args.label, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run(workload, seed, 0) for seed in range(SEEDS)]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": statistics.median(values),
                             "spread": (q3 - q1) / statistics.median(values)}
            print(f"{workload:<18} {name:<12} median {summary[name]['median']:<12.6g} "
                  f"spread {summary[name]['spread']:.4f}", flush=True)
        traced = run(workload, 0, 1)
        result["workloads"][workload] = {"summary": summary, "first_run": runs[0],
                                         "runs": [brief(r) for r in runs], "traced": traced}
        failed = sum(r["failed"] for r in runs + [traced])
        print(f"{workload:<18} failed items {failed}", flush=True)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
