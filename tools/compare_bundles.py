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

One rule judges every CSV, SVG and JSON file and each run's stdout: the
numbers printed in it must agree within ``--atol`` (default 0), and all
other text must be equal. The report gives the largest absolute difference
of those numbers, or says the text differs. A CSV's '#' header lines are
judged by the same rule, and each changed one is listed. A count there,
such as ``rk4_steps``, moves by at least 1, so a changed count fails at any
``--atol`` below 1 and passes at 1 or more. A JSON file is loaded and
dumped with sorted keys first: ``config.json`` without ``out``, and a key
that only one side's top-level object has is named and then dropped. Each
run's stderr and exit code, and a file of any other type, must be equal.
The exit status is 1 on any difference other than numbers within
``--atol``, a key or file only one side has included, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
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


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def compare_text(old: str, new: str) -> float:
    """Largest |a - b| over the printed numbers of two texts; inf if the text between differs."""
    old_parts, new_parts = _NUMBER.split(old), _NUMBER.split(new)
    if len(old_parts) != len(new_parts) or old_parts[::2] != new_parts[::2]:
        return math.inf
    return max((abs(float(a) - float(b)) for a, b in zip(old_parts[1::2], new_parts[1::2])),
               default=0.0)


def _json_texts(name: str, old: str, new: str) -> tuple:
    """(old, new, [(key, side)]): two JSON texts dumped with sorted keys, without ``out`` in
    ``config.json`` and without the top-level keys that only one side has, which are listed."""
    a, b = json.loads(old), json.loads(new)
    only = []
    if isinstance(a, dict) and isinstance(b, dict):
        if name == "config.json":
            for config in (a, b):
                config.pop("out", None)  # experiments record no out
        only = [(key, "old" if key in a else "new") for key in sorted(a.keys() ^ b.keys())]
        for key, side in only:
            (a if side == "old" else b).pop(key)
    return json.dumps(a, indent=2, sort_keys=True), json.dumps(b, indent=2, sort_keys=True), only


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
        if a == b:
            continue
        gap = compare_text(a, b) if what == "stdout" else math.inf
        lines.append(f"  {what}: largest absolute difference {gap:.3g}" if gap < math.inf
                     else f"  {what} differs: {a!r} -> {b!r}")
        failed = failed or not gap <= atol
    old_files, new_files = _files(old_dir), _files(new_dir)
    for name in sorted(old_files ^ new_files):
        lines.append(f"  {name}: only in {'old' if name in old_files else 'new'}")
        failed = True
    for name in sorted(old_files & new_files):
        a, b = _read(os.path.join(old_dir, name)), _read(os.path.join(new_dir, name))
        if a == b:
            same += 1
            continue
        only = []
        if name.endswith(".json"):
            a, b, only = _json_texts(name, a, b)
            if name == "config.json" and a == b and not only:
                same += 1
                continue
        gap = compare_text(a, b) if name.endswith((".csv", ".svg", ".json")) else math.inf
        lines += [f"  {name}: key {key!r} only in {side}" for key, side in only]
        if gap or not only:
            lines.append(f"  {name}: largest absolute difference {gap:.3g}" if gap < math.inf
                         else f"  {name}: differs")
        if name.endswith(".csv"):
            heads = [[line for line in text.splitlines() if line.startswith("#")]
                     for text in (a, b)]
            lines += [f"    {x} -> {y}" for x, y in zip(*heads) if x != y]
        failed = failed or bool(only) or not gap <= atol
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
