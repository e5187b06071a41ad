import importlib.util
import os

import repdyn as rd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "seed_sweep", os.path.join(ROOT, "tools", "seed_sweep.py"))
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)


def planted(config):
    """two-state plus a check that fails at seed 1 by 25% of its bound, and one that only
    seed 0 reports."""
    bundle = rd.run_two_state(config)
    bundle.add_check("planted_fails_at_seed_1", 0.5 + 0.75 * config["seed"], 1.0)
    if config["seed"] == 0:
        bundle.add_check("planted_only_at_seed_0", 3.0, 2.0, comparison=">=")
    return bundle


def test_a_two_seed_sweep_reports_a_planted_failing_check(monkeypatch, capsys):
    monkeypatch.setitem(seed_sweep.EXPERIMENTS, "planted", planted)
    assert seed_sweep.main(["--seeds", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == list(seed_sweep.COLUMNS)
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:]}
    assert rows[("planted", "planted_fails_at_seed_1")] == [
        "<", "1", "2", "1", "1", "-0.25", "0.125", "yes"]
    assert rows[("planted", "planted_only_at_seed_0")] == [
        ">=", "2", "1", "0", "-", "0.5", "0.5", "-"]
    # every check of the six experiments passes at seeds 0 and 1, in the experiments' order
    real = [key for key in rows if key[0] != "planted"]
    assert list(dict.fromkeys(name for name, _ in real)) == [
        "two-state", "four-rooms", "chain-transfer", "limit-checks", "bayes-opt", "multi-task"]
    assert all(rows[key][2:5] == ["2", "0", "-"] for key in real)  # runs, failures, seeds
    # a rerun prints the same bytes
    seed_sweep.main(["--seeds", "2"])
    assert capsys.readouterr().out == out


def test_a_margin_is_the_slack_over_the_bound_or_the_slack_at_a_zero_bound():
    check = rd.ReportBundle("x", {})
    for value, bound, comparison, expected in [(0.1093, 0.1, "<", -0.093), (4.0, 2.0, ">", 1.0),
                                               (-0.5, 0.0, "<", 0.5), (0.0, 0.0, "<=", 0.0),
                                               (1.5, -2.0, ">=", 1.75)]:
        check.add_check("c", value, bound, comparison)
        assert abs(seed_sweep.margin(check.checks[-1]) - expected) < 1e-12
