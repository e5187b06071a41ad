import json
import os
import stat

import numpy as np
import pytest

import repdyn as rd
from repdyn.errors import ConfigurationError
from repdyn.flows import Trajectory, trajectory_to_csv
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


# values whose shortest round-trip repr is easy to get wrong
SPECIAL = [-0.0, 5e-324, 1e300, 0.1, np.nan, np.inf]


def _repr_row(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def test_csv_writers_match_a_per_element_repr_oracle():
    rows = np.array([SPECIAL, SPECIAL[::-1], [-x for x in SPECIAL]])
    table = rd.Table([f"c{j}" for j in range(6)], rows)
    assert table.to_csv() == "c0,c1,c2,c3,c4,c5\n" + "".join(_repr_row(r) + "\n" for r in rows)

    times = np.array([-0.0, 5e-324, 0.1])
    wide = Trajectory(times, rows[:, :, None], {"kind": "test"})
    expected = "# kind=test\nt,v_0,v_1,v_2,v_3,v_4,v_5\n" + "".join(
        f"{_repr_row([t])},{_repr_row(r)}\n" for t, r in zip(times, rows))
    assert trajectory_to_csv(wide) == expected

    states = rows.reshape(3, 2, 3)
    long = Trajectory(times, states, {})
    expected = "t,entry_row,entry_col,value\n" + "".join(
        f"{_repr_row([t])},{i},{j},{_repr_row([s[i, j]])}\n"
        for t, s in zip(times, states) for i in range(2) for j in range(3))
    assert trajectory_to_csv(long) == expected
