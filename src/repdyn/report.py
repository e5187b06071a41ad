"""Experiment output bundles: named tables, figures, and pass/fail checks.

A bundle persists as a directory:

    config.json    full parameter record, seed included
    tables/*.csv   numeric payloads (the source of truth)
    figures/*.svg  derived presentation
    checks.json    one entry per assertion: name, passed, value, threshold,
                   comparison, table

A check's ``passed`` is derived from its value, threshold and comparison; no
caller states a verdict. ``write_bundle`` is the one writer of this layout:
``ReportBundle.save`` and ``repdyn flow`` both go through it. Re-running an
experiment from the recorded config reproduces every table byte for byte.
Files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import io
import json
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_array, check_instance

# how value relates to threshold when a check passes; NaN fails every comparison
_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float
    comparison: str = "<"
    table: str = ""  # name of the table the check was computed from

    def __post_init__(self):
        if check_instance("comparison", self.comparison, str) not in _COMPARISONS:
            raise ConfigurationError(
                f"check {self.name!r} has unknown comparison {self.comparison!r}")

    @property
    def passed(self) -> bool:
        return _COMPARISONS[self.comparison](self.value, self.threshold)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "threshold": float(self.threshold),
            "comparison": self.comparison,
            "table": self.table,
        }


@dataclass
class Table:
    """2-d numeric payload with ordered column names."""

    columns: list
    rows: np.ndarray

    def __post_init__(self):
        width = len(check_instance("columns", self.columns, list))
        self.rows = check_array("rows", self.rows, ("T", width), finite=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(map(repr, row.tolist())) + "\n")
        return buf.getvalue()


@dataclass
class ReportBundle:
    name: str
    config: dict
    tables: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add_table(self, name: str, columns, rows) -> None:
        self.tables[name] = Table(list(columns), rows)

    def add_matrix(self, name: str, matrix, prefix: str = "c") -> None:
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.add_table(name, [f"{prefix}{j}" for j in range(matrix.shape[1])], matrix)

    def add_check(self, name, value, threshold, comparison="<", table="") -> None:
        self.checks.append(Check(name, float(value), float(threshold), comparison, table))

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def save(self, out_dir) -> None:
        write_bundle(out_dir, {"name": self.name, **self.config},
                     {name: table.to_csv() for name, table in self.tables.items()},
                     self.figures, [c.as_dict() for c in self.checks])


def write_bundle(out_dir, config: dict, tables: dict, figures: dict, checks: list) -> None:
    """Write a bundle directory in the layout above, each file atomically.

    ``tables`` maps names to CSV text, ``figures`` maps names to SVG text, and
    ``checks`` is the list of check records that ``checks.json`` holds.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(os.path.join(out_dir, "tables"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "figures"), exist_ok=True)
    _atomic_write(os.path.join(out_dir, "config.json"),
                  json.dumps(config, sort_keys=True, indent=2) + "\n")
    for name, text in sorted(tables.items()):
        _atomic_write(os.path.join(out_dir, "tables", f"{name}.csv"), text)
    for name, text in sorted(figures.items()):
        _atomic_write(os.path.join(out_dir, "figures", f"{name}.svg"), text)
    _atomic_write(os.path.join(out_dir, "checks.json"), json.dumps(checks, indent=2) + "\n")


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a fresh temp file beside ``path``, then rename it over ``path``.

    The temp file is created with mode 0o666, which the umask trims, so the
    result has the mode that ``open(path, "w")`` would give it.
    """
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
