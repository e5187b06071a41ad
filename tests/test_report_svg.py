import json
import math
import os
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repdyn as rd
from repdyn.errors import ConfigurationError
from repdyn.flows import Trajectory, trajectory_to_csv
from repdyn import svg
from repdyn.report import write_bundle
from repdyn.svg import emit_svg


def test_heatmap_single_cell_is_valid_svg():
    text = emit_svg(np.array([[3.5]]), "heatmap")
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<rect") == 1


def test_heatmap_constant_matrix_reports_degenerate_range():
    text = emit_svg(np.full((3, 4), 2.0), "heatmap")
    assert "degenerate range" in text
    assert text.count("<rect") == 12


def test_non_finite_input_names_the_cell():
    bad = np.zeros((2, 2))
    bad[1, 0] = np.nan
    with pytest.raises(ConfigurationError) as info:
        emit_svg(bad, "heatmap")
    assert "(1, 0)" in str(info.value)


def test_gridworld_round_trip_through_map_file():
    coords = rd.four_rooms_coords()
    rng = np.random.default_rng(0)
    vector = rng.standard_normal(105)
    text = emit_svg(vector, "gridworld", coords=coords, shape=(11, 11))
    # one rect per grid cell; wall cells blanked dark
    assert text.count("<rect") == 121
    assert text.count('fill="#222"') == 121 - 105


@pytest.mark.parametrize("cell", [(2, 0), (0, 3), (-1, 0), (0, -1)],
                         ids=["row-past-end", "col-past-end", "negative-row", "negative-col"])
def test_gridworld_cell_outside_the_shape_is_rejected(cell):
    coords = [(0, 0), (1, 2), cell]
    with pytest.raises(ConfigurationError, match="outside the 2x3 grid"):
        emit_svg(np.arange(3.0), "gridworld", coords=coords, shape=(2, 3))


@pytest.mark.parametrize("kind, table, extra", [
    ("heatmap", np.zeros((0, 3)), {}),
    ("line", np.zeros((0, 3)), {}),
    ("gridworld", np.array([]), {"coords": [], "shape": (2, 2)}),
])
def test_empty_table_is_rejected(kind, table, extra):
    with pytest.raises(ConfigurationError, match="empty table"):
        emit_svg(table, kind, **extra)


def test_line_figure_axes_annotation():
    table = np.column_stack([np.linspace(0, 1, 5), np.linspace(2, 3, 5)])
    text = emit_svg(table, "line")
    assert "<polyline" in text and "x [0, 1]" in text


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        emit_svg(np.eye(2), "pie")


def test_report_bundle_atomic_save_and_reload(tmp_path):
    bundle = rd.ReportBundle("demo", {"seed": 1})
    bundle.add_table("numbers", ["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
    bundle.add_check("small", 0.5, 1.0)
    out = tmp_path / "nested" / "bundle"
    bundle.save(out)
    checks = json.loads((out / "checks.json").read_text())
    assert checks[0]["name"] == "small" and checks[0]["threshold"] == 1.0
    csv = (out / "tables" / "numbers.csv").read_text()
    assert csv.splitlines()[0] == "a,b"
    # no temp droppings left behind
    assert not [p for p in out.iterdir() if p.name.startswith(".tmp-")]


def test_table_column_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        rd.Table(["a"], np.ones((2, 2)))


@pytest.mark.parametrize("comparison, below, at, above", [
    ("<", True, False, False),
    ("<=", True, True, False),
    (">", False, False, True),
    (">=", False, True, True),
])
def test_check_verdict_follows_its_comparison(comparison, below, at, above):
    verdicts = [rd.Check("c", value, 1.0, comparison).passed for value in (0.5, 1.0, 1.5)]
    assert verdicts == [below, at, above]
    assert rd.Check("c", np.nan, 1.0, comparison).passed is False


def test_check_with_unknown_comparison_is_rejected():
    bundle = rd.ReportBundle("demo", {})
    with pytest.raises(ConfigurationError, match="unknown comparison '=='"):
        bundle.add_check("equal", 1.0, 1.0, comparison="==")
    assert bundle.checks == []


def _bundle_with_figure(figure) -> rd.ReportBundle:
    """A bundle with a table, then ``figure`` set by assignment, as the experiments do."""
    bundle = rd.ReportBundle("b", {"seed": 0})
    bundle.add_table("t", ["a"], np.ones((2, 1)))
    bundle.figures["f"] = figure
    return bundle


@pytest.mark.parametrize("make, match", [
    (lambda out: rd.Table([1, 2], np.ones((2, 2))), "column name must be a str, got int"),
    (lambda out: rd.ReportBundle("b", {}, tables={"t": np.ones((2, 2))}),
     "table must be a Table, got ndarray"),
    (lambda out: rd.ReportBundle("b", {}, figures={"f": 1}), "figure must be a str, got int"),
    (lambda out: rd.ReportBundle("b", {}, checks=[{"name": "c"}]),
     "check must be a Check, got dict"),
    (lambda out: rd.ReportBundle("b", {}).add_matrix("m", np.ones(3)),
     r"matrix must be a non-empty array of shape \(T, C\), got shape \(3,\)"),
    (lambda out: rd.ReportBundle("b", {}).save(b"out"),
     "out_dir must be a str or PathLike, got bytes"),
    (lambda out: _bundle_with_figure(1).save(out), "figure must be a str, got int"),
    (lambda out: write_bundle(out, {}, {"t": "a\n"}, {"f": b"<svg/>"}, []),
     "figure text must be a str, got bytes"),
    (lambda out: write_bundle(out, {}, {"t": 1.0}, {}, []), "table text must be a str, got float"),
    (lambda out: write_bundle(out, {}, {}, {}, ({"name": "c"},)),
     "checks must be a list, got tuple"),
    (lambda out: write_bundle(out, {"seed": object()}, {}, {}, []),
     "config cannot be written as JSON"),
], ids=["column-not-a-name", "table-not-a-table", "figure-not-text", "check-not-a-check",
        "matrix-one-dimensional", "out-dir-bytes", "figure-assigned-after-construction",
        "written-figure-not-text", "written-table-not-text", "written-checks-not-a-list",
        "written-config-not-json"])
def test_bundle_contents_of_the_wrong_kind_are_rejected(make, match, tmp_path):
    out = tmp_path / "bundle"
    with pytest.raises(ConfigurationError, match=match):
        make(out)
    assert not out.exists()  # rejected before the first file or folder is written


def test_saved_check_records_its_derived_verdict(tmp_path):
    bundle = rd.ReportBundle("demo", {})
    bundle.add_check("small", 0.5, 1.0, table="numbers")
    bundle.add_check("large", 2.0, 1.0, comparison="<=")
    bundle.save(tmp_path)
    checks = json.loads((tmp_path / "checks.json").read_text())
    assert [c["passed"] for c in checks] == [True, False]
    assert checks[0] == {"name": "small", "passed": True, "value": 0.5, "threshold": 1.0,
                         "comparison": "<", "table": "numbers"}
    assert not bundle.all_passed()


def test_a_write_that_fails_partway_names_out_dir_and_leaves_no_temp_file(tmp_path):
    out = tmp_path / "bundle"
    (out / "tables" / "t.csv").mkdir(parents=True)  # a folder where the table file goes
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"cannot write a bundle to out_dir {str(out)!r}: ")):
        write_bundle(out, {"seed": 1}, {"t": "a\n1.0\n"}, {"f": "<svg/>"}, [])
    assert (out / "config.json").exists() and (out / "figures" / "f.svg").exists()
    assert not list(out.rglob(".tmp-*"))


def test_a_bundle_refuses_an_out_dir_that_holds_a_table_or_figure_it_does_not_write(tmp_path):
    out = tmp_path / "bundle"
    write_bundle(out, {"seed": 1}, {"a": "x\n1.0\n", "b": "x\n2.0\n"}, {"f": "<svg/>"}, [])
    (out / "tables" / "notes.txt").write_text("kept\n")  # only .csv and .svg files count
    write_bundle(out, {"seed": 1}, {"a": "x\n1.0\n", "b": "x\n2.0\n"}, {"f": "<svg/>"}, [])
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    for tables, figures, stale in (({"a": "x\n3.0\n"}, {"f": "<svg/>"}, "tables/b.csv"),
                                   ({"a": "x\n3.0\n", "b": "y\n"}, {}, "figures/f.svg")):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"out_dir {str(out)!r} holds {stale}, which this bundle does not write")):
            write_bundle(out, {"seed": 2}, tables, figures, [])
        # refused before the first write: nothing is deleted, written or left behind
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_saved_bundle_files_take_their_mode_from_the_umask(umask, mode, tmp_path):
    bundle = rd.ReportBundle("demo", {"seed": 1})
    bundle.add_table("numbers", ["a", "b"], np.array([[1.0, 2.0]]))
    bundle.figures["plot"] = emit_svg(np.eye(2), "heatmap")
    bundle.add_check("small", 0.5, 1.0)
    previous = os.umask(umask)
    try:
        bundle.save(tmp_path / "bundle")
    finally:
        os.umask(previous)
    files = sorted(p for p in (tmp_path / "bundle").rglob("*") if p.is_file())
    assert len(files) == 4
    assert {oct(stat.S_IMODE(p.stat().st_mode)) for p in files} == {oct(mode)}


# values whose shortest round-trip repr is easy to get wrong; the writers format each
# distinct bit pattern once, so 0.0 and -0.0, and NaNs with different payloads, must not
# share a cell
NANS = list(np.array([0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000],
                     dtype=np.uint64).view(np.float64))
SUBNORMALS = [5e-324, -5e-324, 2.225073858507201e-308, 1e-310]
SPECIAL = [-0.0, 5e-324, 1e300, 0.1, np.nan, np.inf]
POOL = [0.0, -0.0, 0.1, -1.0, 1e300, np.inf, -np.inf, *NANS, *SUBNORMALS]


def _repr_row(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _assert_writers_match_the_oracle(times, states):
    """Table.to_csv of the states' (T, n K) rows, and both trajectory formats,
    against one repr per element."""
    count, n, k = states.shape
    rows = states.reshape(count, n * k)
    table = rd.Table([f"c{j}" for j in range(n * k)], rows)
    assert table.to_csv() == ",".join(table.columns) + "\n" + "".join(
        _repr_row(r) + "\n" for r in rows)

    wide = Trajectory(times, states[:, :, :1], {"kind": "test"})
    expected = "# kind=test\nt," + ",".join(f"v_{i}" for i in range(n)) + "\n" + "".join(
        f"{_repr_row([t])},{_repr_row(v)}\n" for t, v in zip(times, states[:, :, 0]))
    assert trajectory_to_csv(wide) == expected

    if k > 1:
        expected = "t,entry_row,entry_col,value\n" + "".join(
            f"{_repr_row([t])},{i},{j},{_repr_row([s[i, j]])}\n"
            for t, s in zip(times, states) for i in range(n) for j in range(k))
        assert trajectory_to_csv(Trajectory(times, states, {})) == expected


def test_csv_writers_match_a_per_element_repr_oracle():
    rows = np.array([SPECIAL, SPECIAL[::-1], [-x for x in SPECIAL]])
    times = np.array([-0.0, 5e-324, 0.1])
    _assert_writers_match_the_oracle(times, rows.reshape(3, 2, 3))
    _assert_writers_match_the_oracle(times, rows.reshape(3, 3, 2))
    # 0.0 and -0.0 in one table
    signed_zeros = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]])
    _assert_writers_match_the_oracle(np.array([0.0, 1.0]), signed_zeros.reshape(2, 3, 1))
    _assert_writers_match_the_oracle(np.array([-0.0, 1.0]), signed_zeros.reshape(2, 1, 3))
    # NaNs with different payload bits, and subnormals
    assert len({x.tobytes() for x in NANS}) == 3
    odd = np.array([NANS + SUBNORMALS[:1], SUBNORMALS, NANS[::-1] + [0.0]])
    _assert_writers_match_the_oracle(np.array([0.0, 5e-324, 1e-310]), odd.reshape(3, 2, 2))
    # a four-rooms-shaped projection table: 101 samples whose rows repeat apart from t
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 1000.0, 101)
    values = np.repeat(rng.standard_normal((1, 105)), 101, axis=0)
    values[50:] = rng.standard_normal(105)  # one change of row halfway
    _assert_writers_match_the_oracle(times, values[:, :, None])
    # a long-format trajectory whose values repeat across samples
    _assert_writers_match_the_oracle(times, np.repeat(rng.standard_normal((1, 7, 3)), 101, axis=0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), count=st.integers(1, 5), n=st.integers(1, 4), k=st.integers(1, 3))
def test_csv_writers_match_the_oracle_on_a_pool_of_special_values(data, count, n, k):
    picks = data.draw(st.lists(st.sampled_from(POOL), min_size=count * n * k,
                               max_size=count * n * k))
    # sample times: increasing from 0.0 or -0.0 through subnormals
    times = np.array(sorted(data.draw(st.lists(
        st.sampled_from([0.0, 5e-324, 1e-310, 2.225073858507201e-308, 0.1, 1.0, 1e300]),
        min_size=count, max_size=count, unique=True))))
    if times[0] == 0.0 and data.draw(st.booleans()):
        times[0] = -0.0
    _assert_writers_match_the_oracle(times, np.array(picks).reshape(count, n, k))


# the figures as they were drawn before _cells colored its grid in one numpy pass and
# _line formatted each distinct number once: references for byte identity
_OLD_RAMP = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]


def old_color(u: float) -> str:
    u = min(max(u, 0.0), 1.0)
    pos = u * (len(_OLD_RAMP) - 1)
    i = min(int(pos), len(_OLD_RAMP) - 2)
    frac = pos - i
    rgb = [round(a + (b - a) * frac) for a, b in zip(_OLD_RAMP[i], _OLD_RAMP[i + 1])]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def old_cells(grid, cell, stroke, title):
    rows, cols = grid.shape
    width, height = cols * cell + 20, rows * cell + 50
    values = grid[~np.isnan(grid)]
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    out = [svg._header(width, height)]
    if title:
        out.append(f'<text x="10" y="16" font-size="12">{title}</text>\n')
    for i, row in enumerate(grid.tolist()):
        for j, value in enumerate(row):
            u = 0.5 if span == 0.0 else (value - lo) / span
            fill = "#222" if math.isnan(value) else old_color(u)
            out.append(f'<rect x="{10 + j * cell}" y="{25 + i * cell}" width="{cell}" '
                       f'height="{cell}" fill="{fill}"{stroke}/>\n')
    legend = (f"range [{lo:.6g}, {hi:.6g}]" if span
              else f"constant {lo:.6g} (degenerate range)")
    out.append(f'<text x="10" y="{height - 8}" font-size="11">{legend}</text>\n</svg>\n')
    return "".join(out)


def old_line(table, title):
    x, ys = table[:, 0], table[:, 1:]
    width, height, pad = 480, 320, 40
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(ys.min()), float(ys.max())
    xspan, yspan = (x1 - x0) or 1.0, (y1 - y0) or 1.0
    px = (pad + (x - x0) / xspan * (width - 2 * pad)).tolist()
    py = (height - pad - (ys - y0) / yspan * (height - 2 * pad)).T.tolist()
    out = [svg._header(width, height)]
    if title:
        out.append(f'<text x="{pad}" y="16" font-size="12">{title}</text>\n')
    out.append(f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
               f'height="{height - 2 * pad}" fill="none" stroke="#888"/>\n')
    for k, curve in enumerate(py):
        u = 0.5 if ys.shape[1] == 1 else k / (ys.shape[1] - 1)
        pts = " ".join(map("{:.6g},{:.6g}".format, px, curve))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{old_color(u)}" '
                   'stroke-width="1"/>\n')
    out.append(f'<text x="{pad}" y="{height - 8}" font-size="11">x [{x0:.6g}, {x1:.6g}] '
               f"y [{y0:.6g}, {y1:.6g}]</text>\n</svg>\n")
    return "".join(out)


def old_svg(table, kind, coords=None, shape=None, title=""):
    table = np.asarray(table, dtype=float)
    if kind == "heatmap":
        matrix = np.atleast_2d(table)
        return old_cells(matrix, max(6, min(40, 440 // max(matrix.shape))), "", title)
    if kind == "line":
        return old_line(np.atleast_2d(table), title)
    return old_cells(svg._grid(table.reshape(-1), coords, shape), 28,
                     ' stroke="#555" stroke-width="0.5"', title)


def _rounding_ties(u: float) -> list:
    # the channel values of the ramp at u that land exactly on k + 0.5 before rounding
    pos = min(max(u, 0.0), 1.0) * 4
    i = min(int(pos), 3)
    channels = [a + (b - a) * (pos - i) for a, b in zip(_OLD_RAMP[i], _OLD_RAMP[i + 1])]
    return [c for c in channels if c % 1.0 == 0.5]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(us=st.lists(st.floats(-2.0, 3.0) | st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
                   | st.integers(0, 1024).map(lambda m: m / 1024), min_size=1, max_size=20))
def test_colors_equal_the_scalar_ramp_bit_for_bit(us):
    assert svg._colors(np.array(us)).tolist() == [old_color(u) for u in us]


def test_the_color_sweep_holds_the_ramp_stops_the_clipped_ends_and_rounding_ties():
    # every dyadic u = m / 1024 (the stops and every channel's .5 ties among them)
    # and values outside [0, 1]
    us = [m / 1024 for m in range(1025)] + [-1.0, -1e-300, -0.0, 1.0 + 2 ** -52, 7.5]
    ties = [c for u in us for c in _rounding_ties(u)]
    # half to even rounds some ties down and some up
    assert len(ties) >= 16 and {math.floor(c) % 2 for c in ties} == {0, 1}
    assert {0.0, 0.25, 0.5, 0.75, 1.0} <= set(us)
    assert svg._colors(np.array(us)).tolist() == [old_color(u) for u in us]
    assert svg._colors(np.array([[0.0, 1.0]])).shape == (1, 2)


_FIGURE_TABLES = {
    "signed-zeros": np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [0.5, -0.0, 0.0]]),
    "repeated-rows": np.repeat(np.array([[0.0, 0.3, -1.7, 2.5]]), 5, axis=0),
    "constant": np.full((3, 4), 2.0),
    "one-curve": np.column_stack([np.linspace(0.0, 10.0, 11), np.linspace(1.0, -1.0, 11)]),
    "wide-range": np.array([[-1e300, 5e-324, 1e300], [0.1, -0.0, 3.0]]),
    # halving these would round 1 and 5 ulps down to 0 and 2, and 3 up to 2
    "subnormals": np.array([[1.0, 3.0], [5.0, 3.0]]) * 5e-324,
}


@pytest.mark.parametrize("kind", ["heatmap", "line"])
@pytest.mark.parametrize("name", sorted(_FIGURE_TABLES))
def test_heatmaps_and_lines_equal_the_per_cell_drawing(name, kind):
    table = _FIGURE_TABLES[name]
    if kind == "line":  # a projection-like table: a time column, then rows that repeat
        table = np.column_stack([np.arange(len(table)) * 0.5, table])
    assert emit_svg(table, kind, title=name) == old_svg(table, kind, title=name)


def test_gridworlds_with_walls_equal_the_per_cell_drawing():
    coords = rd.four_rooms_coords()
    rng = np.random.default_rng(1)
    for vector in (rng.standard_normal(105), np.zeros(105), np.repeat([0.0, -0.0, 1.0], 35)):
        assert emit_svg(vector, "gridworld", coords=coords, shape=(11, 11)) == old_svg(
            vector, "gridworld", coords=coords, shape=(11, 11))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 5),
       kind=st.sampled_from(["heatmap", "line"]))
def test_figures_of_special_values_equal_the_per_cell_drawing(data, rows, cols, kind):
    pool = [0.0, -0.0, 0.1, -1.0, 2.5, 1e300, -1e300, 5e-324, 1e-310, 7.0]
    table = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=rows * cols,
                                        max_size=rows * cols))).reshape(rows, cols)
    if kind == "line":
        table = np.column_stack([np.arange(rows) * 0.5, table])
    assert emit_svg(table, kind) == old_svg(table, kind)


@pytest.mark.parametrize("kind, table, extra", [
    ("heatmap", np.array([[-1e308, 1e308]]), {}),
    ("heatmap", np.array([[-1.7976931348623157e308], [0.0], [1.7976931348623157e308]]), {}),
    ("gridworld", np.array([-1e308, 0.0, 1e308]), {"coords": [(0, 0), (0, 2), (1, 1)],
                                                    "shape": (2, 3)}),
    ("line", np.array([[-1e308, -1e308], [1e308, 1e308]]), {}),
    ("line", np.array([[0.0, -1.7976931348623157e308, 1.0],
                       [1.0, 1.7976931348623157e308, 2.0]]), {}),
], ids=["heatmap", "heatmap-float64-extremes", "gridworld", "line", "line-y-only"])
def test_a_finite_table_whose_range_overflows_float64_draws_without_nan(kind, table, extra):
    # hi - lo is inf: positions and colors come from the halved values, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = emit_svg(table, kind, **extra)
    assert "nan" not in text and "inf" not in text
    assert ("rgb(68,1,84)" in text and "rgb(253,231,37)" in text) if kind != "line" else (
        'points="40,' in text)
