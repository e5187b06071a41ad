import importlib.util
import json
import os
import shutil

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_bundles", os.path.join(ROOT, "tools", "compare_bundles.py"))
compare_bundles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bundles)

# a reduced run list: one short trained-head flow, whose bundle holds a config.json
# with out, a table with a '#' header, a figure and checks.json
RUNS = {"flow-ensemble-beta1-two-state": ["flow", "--flow", "ensemble", "--mdp", "two-state",
                                          "--beta", "1", "--t-max", "1", "--samples", "5"]}


def test_the_matrix_is_every_experiment_and_flow_of_the_comparison():
    assert len(compare_bundles.RUNS) == 51
    assert compare_bundles.RUNS["flow-rc-beta1-four-rooms"] == [
        "flow", "--flow", "rc", "--mdp", "four-rooms", "--beta", "1"]


def test_a_tree_against_itself_reports_nothing_and_one_ulp_is_reported_with_its_size(tmp_path):
    src = os.path.join(ROOT, "src")
    report, failed = compare_bundles.compare(src, src, str(tmp_path), RUNS)
    count = sum(len(names) for _, _, names in os.walk(tmp_path / "old"))
    assert report == [f"{count} files byte-identical; runs compared: 1",
                      "0 verdicts moved"] and not failed

    # plant a 1-ulp change in the last cell of the trajectory table
    old_dir, new_dir = (str(tmp_path / side / "flow-ensemble-beta1-two-state")
                        for side in ("old", "new"))
    table = os.path.join(new_dir, "tables", "trajectory.csv")
    with open(table) as handle:
        lines = handle.read().splitlines()
    cells = lines[-1].split(",")
    value = float(cells[-1])
    planted = float(np.nextafter(value, np.inf))
    cells[-1] = repr(planted)
    with open(table, "w") as handle:
        handle.write("\n".join([*lines[:-1], ",".join(cells)]) + "\n")
    result = (0, "", "")
    lines, same, failed = compare_bundles.compare_run(old_dir, new_dir, result, result, 0.0)
    gap = planted - value
    assert lines == [f"  tables/trajectory.csv: largest absolute difference {gap:.3g}"]
    assert failed
    assert not compare_bundles.compare_run(old_dir, new_dir, result, result, 1e-12)[2]


def _judge(tmp_path, name, old, new, atol):
    """compare_run over two one-file bundles that hold ``old`` and ``new`` as ``name``."""
    shutil.rmtree(tmp_path / "one", ignore_errors=True)
    for side, text in (("old", old), ("new", new)):
        os.makedirs(tmp_path / "one" / side)
        (tmp_path / "one" / side / name).write_text(text)
    return compare_bundles.compare_run(str(tmp_path / "one" / "old"),
                                       str(tmp_path / "one" / "new"), (0, "", ""), (0, "", ""),
                                       atol)


def test_header_lines_json_values_and_run_results_are_compared(tmp_path):
    old = "# rk4_steps=297\n# step=0.001\nt,v\n0.0,1.0\n"
    assert compare_bundles.compare_text(old, old + "1.0,2.0\n") == np.inf
    assert compare_bundles.compare_text(old, old.replace("1.0", "x")) == np.inf
    # a changed count is listed and moves by at least 1, so it fails below --atol 1,
    # though every cell is equal
    for atol in (0.5, 2e-12):
        lines, same, failed = _judge(tmp_path, "trajectory.csv", old,
                                     old.replace("297", "300"), atol)
        assert lines == ["  trajectory.csv: largest absolute difference 3",
                         "    # rk4_steps=297 -> # rk4_steps=300"] and same == 0 and failed
    # checks.json: a value within --atol passes; a flipped verdict or a changed string fails
    # at any --atol
    check = '[{{"passed": {}, "value": {}}}]\n'
    lines, _, failed = _judge(tmp_path, "checks.json", check.format("true", 0.5),
                              check.format("true", 0.75), 0.25)
    assert lines == ["  checks.json: largest absolute difference 0.25"] and not failed
    named = '[{{"name": "span {} ebf", "passed": true}}]\n'
    for old_json, new_json in ((check.format("true", 0.5), check.format("false", 0.5)),
                               (named.format("near"), named.format("far from"))):
        lines, _, failed = _judge(tmp_path, "checks.json", old_json, new_json, 1e300)
        assert lines == ["  checks.json: differs"] and failed
    for side, out in (("old", "a"), ("new", "b")):
        os.makedirs(tmp_path / side)
        (tmp_path / side / "config.json").write_text(f'{{"out": "{out}", "seed": 0}}\n')
    lines, same, failed = compare_bundles.compare_run(
        str(tmp_path / "old"), str(tmp_path / "new"), (0, "ok\n", ""), (2, "ok\n", ""), 1.0)
    assert lines == ["  exit code differs: 0 -> 2"] and same == 1 and failed

    # a key on one side only is named, and the shared keys are still compared
    (tmp_path / "new" / "config.json").write_text('{"out": "b", "seed": 0, "extra": 1}\n')
    lines, same, failed = compare_bundles.compare_run(
        str(tmp_path / "old"), str(tmp_path / "new"), (0, "", ""), (0, "", ""), 1.0)
    assert lines == ["  config.json: key 'extra' only in new"] and same == 0 and failed
    (tmp_path / "old" / "config.json").write_text('{"seed": 2, "cov_seeds": 3}\n')
    lines = compare_bundles.compare_run(
        str(tmp_path / "old"), str(tmp_path / "new"), (0, "", ""), (0, "", ""), 1.0)[0]
    assert lines == ["  config.json: key 'cov_seeds' only in old",
                     "  config.json: key 'extra' only in new",
                     "  config.json: largest absolute difference 2"]


def test_a_header_float_moved_by_rounding_passes_within_atol_and_is_listed(tmp_path):
    # every cell is equal; only the '#' line's drift moved by 1e-14
    drift = "# invariant_drift=1.489273948607206e-07\nt,v\n0.0,1.0\n"
    moved = drift.replace("1.489273948607206e-07", "1.4892740486072059e-07")
    lines, same, failed = _judge(tmp_path, "trajectory.csv", drift, moved, 1e-12)
    assert lines == ["  trajectory.csv: largest absolute difference 1e-14",
                     "    # invariant_drift=1.489273948607206e-07 -> "
                     "# invariant_drift=1.4892740486072059e-07"] and not failed
    assert _judge(tmp_path, "trajectory.csv", drift, moved, 0.0)[2]


def test_a_flipped_verdict_is_counted_and_named(tmp_path, monkeypatch):
    checks = {"old": [{"name": "c1", "passed": True}, {"name": "c2", "passed": True}],
              "new": [{"name": "c1", "passed": True}, {"name": "c2", "passed": False}]}

    def planted_run_tree(src, out, runs):
        for name in runs:
            os.makedirs(os.path.join(out, name))
            with open(os.path.join(out, name, "checks.json"), "w") as handle:
                json.dump(checks[src] if name == "run-a" else [], handle)
        return {name: (0, "", "") for name in runs}

    monkeypatch.setattr(compare_bundles, "run_tree", planted_run_tree)
    report, failed = compare_bundles.compare("old", "new", str(tmp_path),
                                             {"run-a": [], "run-b": []})
    assert report[-1] == "1 verdicts moved; run-a c2" and failed
    assert compare_bundles.moved_verdicts(str(tmp_path / "old" / "run-a"),
                                          str(tmp_path / "new" / "run-b")) == ["c1", "c2"]


def test_numbers_printed_in_figures_and_stdout_are_compared_within_atol(tmp_path):
    # a printed angle and a printed check value move by 1e-16 and nothing else changes
    svg = ('<svg width="480">\n<text x="40" y="16">angle {} rad</text>\n'
           '<polyline points="40,280 78.065,257.161"/>\n</svg>\n')
    stdout = "[PASS] td_final_angle_to_top_mode: value={} threshold=0.01\n"
    for side, angle in (("old", "2.16772e-16"), ("new", "1.16772e-16")):
        os.makedirs(tmp_path / side / "figures")
        (tmp_path / side / "figures" / "angle.svg").write_text(svg.format(angle))
    old, new = (0, stdout.format("1.2e-15"), ""), (0, stdout.format("1.3e-15"), "")
    dirs = str(tmp_path / "old"), str(tmp_path / "new")
    lines, same, failed = compare_bundles.compare_run(*dirs, old, new, 1e-12)
    assert not failed and same == 0
    assert lines[0].startswith("  stdout: largest absolute difference 1e-16")
    assert lines[1].startswith("  figures/angle.svg: largest absolute difference 1e-16")
    assert compare_bundles.compare_run(*dirs, old, new, 0.0)[2]
    # text around the numbers is compared exactly, at any atol
    line = stdout.format(1)
    assert compare_bundles.compare_text(line, line.replace("PASS", "FAIL")) == np.inf
    assert compare_bundles.compare_text(svg.format(1), svg.format("1 2")) == np.inf
    (tmp_path / "new" / "figures" / "angle.svg").write_text(
        svg.format("1.16772e-16").replace("polyline", "polygon"))
    lines, _, failed = compare_bundles.compare_run(*dirs, old, new, 1e300)
    assert lines[1] == "  figures/angle.svg: differs" and failed
    failing = (0, stdout.format("1.3e-15").replace("PASS", "FAIL"), "")
    assert compare_bundles.compare_run(*dirs, old, failing, 1e300)[0][0].startswith(
        "  stdout differs: ")
