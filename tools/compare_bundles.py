"""Run the same commands under two source trees and compare what they write.

    python tools/compare_bundles.py OLD_SRC NEW_SRC OUT [--atol X]

OLD_SRC and NEW_SRC are directories that hold the ``repdyn`` package (a
checkout's ``src``). Each run of ``RUNS`` is one ``python -m repdyn.cli``
subprocess per tree, with ``PYTHONPATH`` set to the tree and
``OPENBLAS_NUM_THREADS=1``, since the bytes are reproducible only at a fixed
BLAS thread count. The bundles go to OUT/old/<run> and OUT/new/<run>; a
folder left there by an earlier comparison is removed first.

``RUNS`` is every experiment at seeds 0-2, and ``repdyn flow`` td, mc,
nstep, tdlambda and limit, plus joint, ensemble and rc at beta 0 and 1, on
chain, four-rooms and two-state: 51 runs.

The report names each file that is not byte-identical, then gives the
number of files that are (``config.json`` counted apart from ``out``). Its
last line counts the checks whose ``passed`` differs between the two sides
(a check only one side has counts too) and names each as ``<run> <check>``.
A CSV that differs is read cell by cell: the report gives its largest
absolute difference and its changed '#' header lines. A JSON file is read as data: ``config.json`` is
compared without ``out``, numbers by their absolute difference, and every
other value must be equal; a key that only one side's top-level object has
is named. Each run's stdout, stderr and exit code must be
equal. The exit status is 1 on any difference other than numbers within
``--atol`` (default 0), a changed '#' header line included, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

EXPERIMENTS = ("two-state", "four-rooms", "chain-transfer", "limit-checks", "bayes-opt",
               "multi-task")
MDPS = ("chain", "four-rooms", "two-state")
RUNS = {
    **{f"{name}-seed{seed}": [name, "--seed", str(seed)]
       for name in EXPERIMENTS for seed in range(3)},
    **{f"flow-{flow}-{mdp}": ["flow", "--flow", flow, "--mdp", mdp]
       for mdp in MDPS for flow in ("td", "mc", "nstep", "tdlambda", "limit")},
    **{f"flow-{flow}-beta{beta}-{mdp}": ["flow", "--flow", flow, "--mdp", mdp, "--beta", beta]
       for mdp in MDPS for flow in ("joint", "ensemble", "rc") for beta in ("0", "1")},
}


def run_tree(src: str, out: str, runs: dict) -> dict:
    """Run each command under ``src``, bundles in out/<run>; {run: (exit code, stdout, stderr)}."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "OPENBLAS_NUM_THREADS": "1"}
    results = {}
    for name, argv in runs.items():
        shutil.rmtree(os.path.join(out, name), ignore_errors=True)
        done = subprocess.run([sys.executable, "-m", "repdyn.cli", *argv,
                               "--out", os.path.join(out, name)],
                              env=env, capture_output=True, text=True)
        results[name] = (done.returncode, done.stdout, done.stderr)
    return results


def _cell_gap(a: str, b: str) -> float | None:
    """|a - b| of two number cells, 0 for equal text, None when either is not a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if math.isnan(x) and math.isnan(y):
        return 0.0
    return abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf


def compare_csv(old: str, new: str) -> tuple:
    """(largest absolute difference, [(old, new) changed '#' lines]); inf if the shapes differ."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    old_head = [line for line in old_lines if line.startswith("#")]
    new_head = [line for line in new_lines if line.startswith("#")]
    changed = [(a, b) for a, b in zip(old_head, new_head) if a != b]
    old_rows = [line.split(",") for line in old_lines if not line.startswith("#")]
    new_rows = [line.split(",") for line in new_lines if not line.startswith("#")]
    if len(old_head) != len(new_head) or [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        return math.inf, changed + [("(header or table shape)", "(differs)")]
    gaps = [_cell_gap(a, b) for ra, rb in zip(old_rows, new_rows) for a, b in zip(ra, rb)]
    return (math.inf if None in gaps else max(gaps, default=0.0)), changed


def _json_gap(a, b) -> float:
    """Largest |a - b| over the numbers of two JSON values; inf where anything else differs."""
    if type(a) is type(b) and type(a) in (int, float):
        return _cell_gap(repr(a), repr(b))
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((_json_gap(a[key], b[key]) for key in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((_json_gap(x, y) for x, y in zip(a, b)), default=0.0)
    return 0.0 if a == b else math.inf


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(folder, name), root)
            for folder, _, names in os.walk(root) for name in names}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def compare_run(old_dir: str, new_dir: str, old_result: tuple, new_result: tuple,
                atol: float) -> tuple:
    """(report lines, byte-identical files, whether anything differs past ``atol``) of one run."""
    lines, same, failed = [], 0, False
    for what, a, b in zip(("exit code", "stdout", "stderr"), old_result, new_result):
        if a != b:
            lines.append(f"  {what} differs: {a!r} -> {b!r}")
            failed = True
    old_files, new_files = _files(old_dir), _files(new_dir)
    for name in sorted(old_files ^ new_files):
        lines.append(f"  {name}: only in {'old' if name in old_files else 'new'}")
        failed = True
    for name in sorted(old_files & new_files):
        a, b = _read(os.path.join(old_dir, name)), _read(os.path.join(new_dir, name))
        if a == b:
            same += 1
            continue
        if name.endswith(".json"):
            a, b = json.loads(a), json.loads(b)
            if name == "config.json":
                for config in (a, b):
                    config.pop("out", None)  # experiments record no out
                if _json_gap(a, b) == 0.0:
                    same += 1
                    continue
        if name.endswith(".csv"):
            gap, changed = compare_csv(a, b)
            lines.append(f"  {name}: largest absolute difference {gap:.3g}")
            lines += [f"    {x} -> {y}" for x, y in changed]
            failed = failed or bool(changed)
        elif name.endswith(".json"):
            both_objects = isinstance(a, dict) and isinstance(b, dict)
            only = sorted(a.keys() ^ b.keys()) if both_objects else []
            for key in only:
                lines.append(f"  {name}: key {key!r} only in {'old' if key in a else 'new'}")
                (a if key in a else b).pop(key)
            gap = _json_gap(a, b)
            if gap or not only:
                lines.append(f"  {name}: largest absolute difference {gap:.3g}")
            failed = failed or bool(only)
        else:
            gap = math.inf
            lines.append(f"  {name}: differs")
        failed = failed or not gap <= atol
    return lines, same, failed


def _verdicts(run_dir: str) -> dict:
    """{check name: passed} of a run's checks.json; empty when the run wrote none."""
    path = os.path.join(run_dir, "checks.json")
    if not os.path.exists(path):
        return {}
    return {check["name"]: check["passed"] for check in json.loads(_read(path))}


def moved_verdicts(old_dir: str, new_dir: str) -> list:
    """Names of the checks whose ``passed`` differs, or that only one side has."""
    old, new = _verdicts(old_dir), _verdicts(new_dir)
    return [name for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]


def compare(old_src: str, new_src: str, out: str, runs: dict = RUNS, atol: float = 0.0) -> tuple:
    """Run ``runs`` under both trees; (report lines, whether anything differs past ``atol``)."""
    sides = {side: run_tree(src, os.path.join(out, side), runs)
             for side, src in (("old", old_src), ("new", new_src))}
    report, identical, failed, moved = [], 0, False, []
    for name in runs:
        old_dir, new_dir = os.path.join(out, "old", name), os.path.join(out, "new", name)
        lines, same, bad = compare_run(old_dir, new_dir, sides["old"][name],
                                       sides["new"][name], atol)
        if lines:
            report += [f"{name}:"] + lines
        identical, failed = identical + same, failed or bad
        moved += [f"{name} {check}" for check in moved_verdicts(old_dir, new_dir)]
    return report + [f"{identical} files byte-identical; runs compared: {len(runs)}",
                     f"{len(moved)} verdicts moved" + "".join(f"; {m}" for m in moved)], failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("out")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="largest absolute difference of a number that passes")
    args = parser.parse_args(argv)
    report, failed = compare(args.old_src, args.new_src, args.out, atol=args.atol)
    print("\n".join(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
