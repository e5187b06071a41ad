import importlib.util
import json
import os

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


def test_header_lines_json_values_and_run_results_are_compared(tmp_path):
    old = "# rk4_steps=297\n# step=0.001\nt,v\n0.0,1.0\n"
    assert compare_bundles.compare_csv(old, old.replace("297", "300")) == (
        0.0, [("# rk4_steps=297", "# rk4_steps=300")])
    assert compare_bundles.compare_csv(old, old + "1.0,2.0\n")[0] == np.inf
    assert compare_bundles.compare_csv(old, old.replace("1.0", "x"))[0] == np.inf
    # a changed header line is a difference at any --atol, though every cell is equal
    for side, text in (("old", old), ("new", old.replace("297", "300"))):
        os.makedirs(tmp_path / "csv" / side)
        (tmp_path / "csv" / side / "trajectory.csv").write_text(text)
    lines, same, failed = compare_bundles.compare_run(
        str(tmp_path / "csv" / "old"), str(tmp_path / "csv" / "new"), (0, "", ""), (0, "", ""),
        1e300)
    assert lines == ["  trajectory.csv: largest absolute difference 0",
                     "    # rk4_steps=297 -> # rk4_steps=300"] and same == 0 and failed
    gap = compare_bundles._json_gap
    assert gap([{"passed": True, "value": 0.5}], [{"passed": True, "value": 0.75}]) == 0.25
    assert gap([{"passed": True, "value": 0.5}], [{"passed": False, "value": 0.5}]) == np.inf
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
