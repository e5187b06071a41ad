"""Self-contained SVG renderings of tables: heatmaps, line plots, gridworld cells.

CSV tables are the source of truth; these renderings are derived presentation
and deliberately simple. Output is deterministic text so identical inputs
yield identical files (a fixed version comment is the only non-data line).
A grid is colored in one numpy pass, and every number a line plot prints is
formatted once per distinct float64 bit pattern (``report.format_floats``).
Positions and colors are fractions of the table's range; where that range
overflows float64 they come from the halved values, so a finite table never
yields NaN.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .errors import ConfigurationError
from .report import format_floats

VERSION_COMMENT = "<!-- repdyn svg v1 -->"

# five-stop blue-to-yellow ramp, interpolated linearly
_RAMP = np.array([
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
], dtype=float)


def _colors(u: np.ndarray) -> np.ndarray:
    """The ramp's ``rgb(r,g,b)`` at each u clipped to [0, 1], as an object array of u's shape;
    each channel is rounded half to even, as Python's ``round``."""
    pos = np.clip(u, 0.0, 1.0) * (len(_RAMP) - 1)
    i = np.minimum(pos.astype(np.int64), len(_RAMP) - 2)
    rgb = np.rint(_RAMP[i] + (_RAMP[i + 1] - _RAMP[i]) * (pos - i)[..., None]).astype(np.int64)
    return format_floats(rgb @ [1 << 16, 1 << 8, 1], _rgb)


def _rgb(code: float) -> str:
    code = int(code)
    return f"rgb({code >> 16},{code >> 8 & 255},{code & 255})"


def _fraction(values: np.ndarray, lo: float, hi: float, flat: float) -> np.ndarray:
    """(values - lo) / (hi - lo) for values in [lo, hi], ``flat`` where hi == lo. Where
    hi - lo overflows float64 the values are halved first, so finite ones give no NaN."""
    span = hi - lo
    if span == 0.0:
        return np.full(np.shape(values), flat)
    if math.isinf(span):
        values, lo, span = values / 2.0, lo / 2.0, hi / 2.0 - lo / 2.0
    return (values - lo) / span


def _check_finite(values: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(np.atleast_2d(values)))
    if bad.size:
        i, j = bad[0]
        raise ConfigurationError(f"cannot render non-finite value at cell ({i}, {j})")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_svg(table: np.ndarray, kind: str, *, coords=None, shape=None, title: str = "") -> str:
    """Render a numeric table as a standalone SVG.

    kind="heatmap": one colored cell per matrix entry, value range annotated.
    kind="line": first column is the abscissa, remaining columns are curves.
    kind="gridworld": a length-n vector mapped back onto grid cells through
    ``coords`` (state index -> (row, col), each inside ``shape`` = (rows, cols));
    wall cells are blanked dark.
    """
    table = np.asarray(table, dtype=float)
    if table.size == 0:
        raise ConfigurationError(f"cannot render an empty table as {kind!r}")
    _check_finite(table)
    if kind == "heatmap":
        matrix = np.atleast_2d(table)
        return _cells(matrix, max(6, min(40, 440 // max(matrix.shape))), "", title)
    if kind == "line":
        return _line(np.atleast_2d(table), title)
    if kind == "gridworld":
        if coords is None or shape is None:
            raise ConfigurationError("gridworld rendering needs coords and shape")
        return _cells(_grid(table.reshape(-1), coords, shape), 28,
                      ' stroke="#555" stroke-width="0.5"', title)
    raise ConfigurationError(f"unknown figure kind {kind!r}")


def _header(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{VERSION_COMMENT}\n'
    )


def _grid(vector: np.ndarray, coords, shape) -> np.ndarray:
    """``shape`` grid holding ``vector[s]`` at ``coords[s]`` and NaN on every other cell."""
    if len(vector) != len(coords):
        raise ConfigurationError(f"vector length {len(vector)} does not match {len(coords)} cells")
    rows, cols = shape
    grid = np.full((rows, cols), np.nan)
    for value, (i, j) in zip(vector.tolist(), coords):
        if not (0 <= i < rows and 0 <= j < cols):
            raise ConfigurationError(f"cell ({i}, {j}) lies outside the {rows}x{cols} grid")
        grid[i, j] = value
    return grid


def _cells(grid: np.ndarray, cell: int, stroke: str, title: str) -> str:
    """One ``cell``-pixel square per grid entry, colored by value; NaN entries are walls."""
    rows, cols = grid.shape
    width, height = cols * cell + 20, rows * cell + 50
    walls = np.isnan(grid)
    values = grid[~walls]
    lo, hi = float(values.min()), float(values.max())
    fill = np.full(grid.shape, "#222", dtype=object)
    fill[~walls] = _colors(_fraction(values, lo, hi, 0.5))
    xs = np.array([f'<rect x="{10 + j * cell}" y="' for j in range(cols)], dtype=object)
    ys = np.array([f'{25 + i * cell}" width="{cell}" height="{cell}" fill="'
                   for i in range(rows)], dtype=object)
    rects = xs + ys[:, None] + fill + f'"{stroke}/>\n'
    buf = io.StringIO()
    buf.write(_header(width, height))
    if title:
        buf.write(f'<text x="10" y="16" font-size="12">{title}</text>\n')
    buf.write("".join(rects.ravel().tolist()))
    legend = (f"range [{_fmt(lo)}, {_fmt(hi)}]" if hi - lo
              else f"constant {_fmt(lo)} (degenerate range)")
    buf.write(f'<text x="10" y="{height - 8}" font-size="11">{legend}</text>\n')
    buf.write("</svg>\n")
    return buf.getvalue()


def _line(table: np.ndarray, title: str) -> str:
    if table.shape[1] < 2:
        raise ConfigurationError("line rendering needs an abscissa and at least one curve")
    x = table[:, 0]
    ys = table[:, 1:]
    width, height, pad = 480, 320, 40
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(ys.min()), float(ys.max())
    px = pad + _fraction(x, x0, x1, 0.0) * (width - 2 * pad)
    py = height - pad - _fraction(ys.T, y0, y1, 0.0) * (height - 2 * pad)
    xs, curves = format_floats(px, _fmt) + ",", format_floats(py, _fmt)
    strokes = _colors(np.arange(ys.shape[1]) / (ys.shape[1] - 1) if ys.shape[1] > 1
                      else np.array([0.5]))

    buf = io.StringIO()
    buf.write(_header(width, height))
    if title:
        buf.write(f'<text x="{pad}" y="16" font-size="12">{title}</text>\n')
    buf.write(
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="#888"/>\n'
    )
    for curve, stroke in zip(curves, strokes.tolist()):
        buf.write(f'<polyline points="{" ".join((xs + curve).tolist())}" fill="none" '
                  f'stroke="{stroke}" stroke-width="1"/>\n')
    buf.write(
        f'<text x="{pad}" y="{height - 8}" font-size="11">x [{_fmt(x0)}, {_fmt(x1)}] '
        f"y [{_fmt(y0)}, {_fmt(y1)}]</text>\n"
    )
    buf.write("</svg>\n")
    return buf.getvalue()
