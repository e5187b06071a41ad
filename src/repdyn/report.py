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
Files are written atomically (temp file, then rename). A CSV cell is Python's
shortest round-trip ``repr`` of its float64, each distinct bit pattern
formatted once per file (``float_reprs``).
"""

from __future__ import annotations

import json
import numbers
import operator
import os
from collections.abc import Mapping
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
        check_instance("name", self.name, str)
        check_instance("table", self.table, str)
        for attr in ("value", "threshold"):  # NaN stays: a NaN check fails
            number = getattr(self, attr)
            if isinstance(number, bool) or not isinstance(number, numbers.Real):
                raise ConfigurationError(
                    f"check {self.name!r} {attr} must be a real number, got {number!r}")
            object.__setattr__(self, attr, float(number))
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
            "value": self.value,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "table": self.table,
        }


def float_reprs(array: np.ndarray) -> np.ndarray:
    """The ``repr`` of every float64 in ``array``, as an object array of its shape, made once
    per distinct bit pattern: -0.0 and 0.0 stay apart, as do NaNs with different payloads."""
    bits, inverse = np.unique(np.asarray(array, np.float64).view(np.int64), return_inverse=True)
    return np.frompyfunc(repr, 1, 1)(bits.view(np.float64))[inverse].reshape(np.shape(array))


@dataclass
class Table:
    """2-d numeric payload with ordered column names."""

    columns: list
    rows: np.ndarray

    def __post_init__(self):
        width = len(check_instance("columns", self.columns, list))
        for column in self.columns:
            check_instance("column name", column, str)
        self.rows = check_array("rows", self.rows, ("T", width), finite=False)

    def to_csv(self) -> str:
        lines = map(",".join, float_reprs(self.rows).tolist())
        return "\n".join([",".join(self.columns), *lines]) + "\n"


@dataclass
class ReportBundle:
    name: str
    config: dict
    tables: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def __post_init__(self):
        check_instance("name", self.name, str)
        check_instance("config", self.config, Mapping)
        for table in check_instance("tables", self.tables, dict).values():
            check_instance("table", table, Table)
        for figure in check_instance("figures", self.figures, dict).values():
            check_instance("figure", figure, str)
        for check in check_instance("checks", self.checks, list):
            check_instance("check", check, Check)

    def add_table(self, name: str, columns, rows) -> None:
        self.tables[check_instance("name", name, str)] = Table(columns, rows)

    def add_matrix(self, name: str, matrix, prefix: str = "c") -> None:
        matrix = check_array("matrix", matrix, ("T", "C"), finite=False)
        check_instance("prefix", prefix, str)
        self.add_table(name, [f"{prefix}{j}" for j in range(matrix.shape[1])], matrix)

    def add_check(self, name, value, threshold, comparison="<", table="") -> None:
        self.checks.append(Check(name, value, threshold, comparison, table))

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def save(self, out_dir) -> None:
        self.__post_init__()  # experiments fill the fields by assignment after construction
        write_bundle(out_dir, {"name": self.name, **self.config},
                     {name: table.to_csv() for name, table in self.tables.items()},
                     self.figures, [c.as_dict() for c in self.checks])


def write_bundle(out_dir, config: dict, tables: dict, figures: dict, checks: list) -> None:
    """Write a bundle directory in the layout above, each file atomically.

    ``tables`` maps names to CSV text, ``figures`` maps names to SVG text, and
    ``checks`` is the list of check records that ``checks.json`` holds. Every
    file's text is checked before the first write, so a wrong kind of content
    is a ConfigurationError that leaves no file behind, as is a ``.csv`` in
    ``tables/`` or an ``.svg`` in ``figures/`` that this bundle does not write.
    An ``OSError`` from creating or writing the bundle is a ConfigurationError
    naming ``out_dir``.
    """
    out_dir = os.fspath(check_instance("out_dir", out_dir, (str, os.PathLike)))
    files = {"config.json": _json_text("config", config, sort_keys=True)}
    for folder, kind, suffix, texts in (("tables", "table", ".csv", tables),
                                        ("figures", "figure", ".svg", figures)):
        for name, text in check_instance(folder, texts, dict).items():
            path = os.path.join(folder, check_instance(f"{kind} name", name, str) + suffix)
            files[path] = check_instance(f"{kind} text", text, str)
    files["checks.json"] = _json_text("checks", check_instance("checks", checks, list))
    try:
        for folder, suffix in (("tables", ".csv"), ("figures", ".svg")):
            held = os.path.join(out_dir, folder)
            for name in sorted(os.listdir(held)) if os.path.isdir(held) else []:
                if name.endswith(suffix) and os.path.join(folder, name) not in files:
                    raise ConfigurationError(f"out_dir {out_dir!r} holds {folder}/{name}, "
                                             f"which this bundle does not write")
        os.makedirs(os.path.join(out_dir, "tables"), exist_ok=True)
        os.makedirs(os.path.join(out_dir, "figures"), exist_ok=True)
        for path, text in sorted(files.items()):
            _atomic_write(os.path.join(out_dir, path), text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write a bundle to out_dir {out_dir!r}: {exc}") from None


def _json_text(what: str, value, sort_keys: bool = False) -> str:
    try:
        return json.dumps(value, sort_keys=sort_keys, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} cannot be written as JSON: {exc}") from None


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
