import json
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repdyn as rd
from repdyn.errors import ConfigurationError
from repdyn.flows import Trajectory, trajectory_to_csv
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
