"""Self-contained SVG renderings of tables: heatmaps, line plots, gridworld cells.

CSV tables are the source of truth; these renderings are derived presentation
and deliberately simple. Output is deterministic text so identical inputs
yield identical files (a fixed version comment is the only non-data line).
"""

from __future__ import annotations

import io
import math

import numpy as np

from .errors import ConfigurationError

VERSION_COMMENT = "<!-- repdyn svg v1 -->"

# five-stop blue-to-yellow ramp, interpolated linearly
_RAMP = [
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
]


def _color(u: float) -> str:
    u = min(max(u, 0.0), 1.0)
    pos = u * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    frac = pos - i
    rgb = [round(a + (b - a) * frac) for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


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
    values = grid[~np.isnan(grid)]
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    buf = io.StringIO()
    buf.write(_header(width, height))
    if title:
        buf.write(f'<text x="10" y="16" font-size="12">{title}</text>\n')
    for i, row in enumerate(grid.tolist()):
        for j, value in enumerate(row):
            u = 0.5 if span == 0.0 else (value - lo) / span
            fill = "#222" if math.isnan(value) else _color(u)
            buf.write(
                f'<rect x="{10 + j * cell}" y="{25 + i * cell}" width="{cell}" '
                f'height="{cell}" fill="{fill}"{stroke}/>\n'
            )
    legend = f"range [{_fmt(lo)}, {_fmt(hi)}]" if span else f"constant {_fmt(lo)} (degenerate range)"
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
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    px = (pad + (x - x0) / xspan * (width - 2 * pad)).tolist()
    py = (height - pad - (ys - y0) / yspan * (height - 2 * pad)).T.tolist()

    buf = io.StringIO()
    buf.write(_header(width, height))
    if title:
        buf.write(f'<text x="{pad}" y="16" font-size="12">{title}</text>\n')
    buf.write(
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="#888"/>\n'
    )
    for k, curve in enumerate(py):
        u = 0.5 if ys.shape[1] == 1 else k / (ys.shape[1] - 1)
        pts = " ".join(map("{:.6g},{:.6g}".format, px, curve))
        buf.write(f'<polyline points="{pts}" fill="none" stroke="{_color(u)}" stroke-width="1"/>\n')
    buf.write(
        f'<text x="{pad}" y="{height - 8}" font-size="11">x [{_fmt(x0)}, {_fmt(x1)}] '
        f"y [{_fmt(y0)}, {_fmt(y1)}]</text>\n"
    )
    buf.write("</svg>\n")
    return buf.getvalue()
