"""Run every experiment in-process at seeds 0..N-1 and print one row per check.

    PYTHONPATH=src python tools/seed_sweep.py [--seeds N]

Each experiment runs at its default config with only ``seed`` set, N = 40 by
default. The rows come in experiment order, then in the order each
experiment adds its checks, and give:

- the check's bound, the runs that reported it, its failures and the failing
  seeds;
- its smallest and median margin over those runs;
- whether its value depends on the seed at all (``-`` for a single run).

A check's margin is how far its value sits inside its bound, as a fraction of
the bound: (bound - value) / |bound| for a ``<`` or ``<=`` check and
(value - bound) / |bound| for a ``>`` or ``>=`` check. A bound of 0 gives the
plain difference. So a margin below 0 fails, and -0.09 fails by 9% of the
bound. The output is byte-identical on a rerun at a fixed BLAS thread count
(for example ``OPENBLAS_NUM_THREADS=1``). A run that raises ends the sweep.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repdyn.experiments import EXPERIMENTS

COLUMNS = ("experiment", "check", "bound", "runs", "failures", "failing_seeds",
           "min_margin", "median_margin", "seed_dependent")


def margin(check) -> float:
    """How far the check's value sits inside its bound, relative to a nonzero bound."""
    slack = (check.threshold - check.value if check.comparison in ("<", "<=")
             else check.value - check.threshold)
    return slack / abs(check.threshold) if check.threshold else slack


def sweep(seeds: int) -> list:
    """One row of ``COLUMNS`` per check of each experiment over seeds 0..seeds-1."""
    rows = []
    for name, run in EXPERIMENTS.items():
        verdicts = {}  # check name -> [(seed, check)], in the order the checks appear
        for seed in range(seeds):
            for check in run({"seed": seed}).checks:
                verdicts.setdefault(check.name, []).append((seed, check))
        for check_name, runs in verdicts.items():
            first = runs[0][1]
            failing = [seed for seed, check in runs if not check.passed]
            margins = [margin(check) for _, check in runs]
            values = {check.value for _, check in runs}
            rows.append((name, check_name, f"{first.comparison} {first.threshold:g}", len(runs),
                         len(failing), ",".join(map(str, failing)) or "-",
                         f"{min(margins):.4g}", f"{float(np.median(margins)):.4g}",
                         "-" if len(runs) < 2 else "yes" if len(values) > 1 else "no"))
    return rows


def format_rows(rows: list) -> str:
    """The header and rows as left-aligned columns, two spaces apart."""
    table = [COLUMNS] + [tuple(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(COLUMNS))]
    return "".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                   + "\n" for row in table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40, help="sweep seeds 0..N-1 (default 40)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    sys.stdout.write(format_rows(sweep(args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
