"""Experiment output bundles: named tables, figures, and pass/fail checks.

A bundle persists as a directory:

    config.json    full parameter record, seed included
    tables/*.csv   numeric payloads (the source of truth)
    figures/*.svg  derived presentation
    checks.json    one entry per assertion: name, passed, value, threshold

Re-running an experiment from the recorded config reproduces every table
byte for byte. Files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str = "<"  # how value relates to threshold when passing
    table: str = ""  # name of the table the check was computed from

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
        self.rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if self.rows.shape[1] != len(self.columns):
            raise ValueError(
                f"{len(self.columns)} column names but rows have {self.rows.shape[1]} entries"
            )

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

    def add_check(self, name, passed, value, threshold, comparison="<", table="") -> None:
        self.checks.append(Check(name, bool(passed), float(value), float(threshold),
                                 comparison, table))

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def save(self, out_dir) -> None:
        out_dir = os.fspath(out_dir)
        os.makedirs(os.path.join(out_dir, "tables"), exist_ok=True)
        os.makedirs(os.path.join(out_dir, "figures"), exist_ok=True)
        config_doc = {"name": self.name, **self.config}
        _atomic_write(os.path.join(out_dir, "config.json"),
                      json.dumps(config_doc, sort_keys=True, indent=2) + "\n")
        for name, table in sorted(self.tables.items()):
            _atomic_write(os.path.join(out_dir, "tables", f"{name}.csv"), table.to_csv())
        for name, svg in sorted(self.figures.items()):
            _atomic_write(os.path.join(out_dir, "figures", f"{name}.svg"), svg)
        _atomic_write(
            os.path.join(out_dir, "checks.json"),
            json.dumps([c.as_dict() for c in self.checks], indent=2) + "\n",
        )


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
