"""Tests of the benchmark's own arithmetic: self time, traced counts, step replay, verification.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import repdyn  # noqa: E402
from repdyn import cli, flows, mdp, svg  # noqa: E402
from tracer import Span, Tracer, rk4_step_count, self_times  # noqa: E402
from workloads import Item, Verifier, run_item  # noqa: E402


def _span(name, parent, outer, inner):
    return Span(name, parent, "item", outer[0], inner[0], inner[1], outer[1])


def test_self_time_subtracts_child_outer_intervals():
    spans = [
        _span("root", -1, (0.0, 10.0), (0.0, 10.0)),
        _span("a", 0, (0.9, 3.1), (1.0, 3.0)),
        _span("a.child", 1, (1.4, 2.1), (1.5, 2.0)),
        _span("b", 0, (5.0, 9.0), (5.0, 9.0)),
        _span("b.child", 3, (4.5, 5.5), (4.6, 5.4)),  # outer starts before b: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 2.2 - 4.0, 2.0 - 0.7, 0.5, 4.0 - 0.5, 0.8])


@pytest.mark.parametrize("times, step, steps", [
    ([0.0], 0.1, 0),
    ([0.0, 0.5, 1.25], 0.25, 5),
    ([0.3], 0.25, 2),  # 0.25, then a shortened 0.05
    ([0.0, 1.0, 1.5], 0.5, 3),
])
def test_step_replay_on_hand_worked_grids(times, step, steps):
    assert rk4_step_count(times, step) == steps


@pytest.mark.parametrize("times, step", [
    ([0.0, 0.3, 0.35, 1.0], 0.1),
    (np.linspace(0.0, 5.0, 26), 1e-2),
    (np.arange(0.0, 10.0 + 1e-9, 1.0), 0.01),
])
def test_step_replay_matches_the_integrator(times, step):
    evaluations = []

    def rhs(y):
        evaluations.append(1)
        return -y

    flows._rk4_integrate(rhs, np.ones(2), np.asarray(times), step)
    assert len(evaluations) == 4 * rk4_step_count(times, step)


def test_every_binding_is_wrapped_and_restored():
    originals = (mdp.exact_value, svg.emit_svg, repdyn.experiments.run_two_state,
                 np.linalg.eigh, repdyn.ReportBundle.save)
    tracer = Tracer()
    tracer.install()
    try:
        for wrapped, original in [(flows.exact_value, mdp.exact_value.__wrapped__),
                                  (repdyn.exact_value, mdp.exact_value.__wrapped__),
                                  (cli.emit_svg, svg.emit_svg.__wrapped__),
                                  (repdyn.experiments.emit_svg, svg.emit_svg.__wrapped__)]:
            assert wrapped.__wrapped__ is original
        assert repdyn.experiments.EXPERIMENTS["two-state"].__wrapped__ is originals[2]
        assert np.linalg.eigh.__wrapped__ is originals[3]
    finally:
        tracer.uninstall()
    assert (mdp.exact_value, svg.emit_svg, repdyn.experiments.run_two_state,
            np.linalg.eigh, repdyn.ReportBundle.save) == originals
    assert flows.exact_value is mdp.exact_value and cli.emit_svg is svg.emit_svg
    assert repdyn.experiments.EXPERIMENTS["two-state"] is originals[2]


def test_traced_td_flow_counts(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = "td"
        code = cli.main(["flow", "--flow", "td", "--mdp", "chain", "--t-max", "10",
                         "--samples", "101", "--out", str(tmp_path)])
        tracer.item = None
        untraced = cli.main(["flow", "--flow", "td", "--samples", "3",
                             "--out", str(tmp_path / "untraced")])
    finally:
        tracer.uninstall()
    assert code == 0 and untraced == 0
    m = tracer.pass_metrics()
    assert m["flows.matrix_exponential.calls"] == 100  # t = 0 takes no exponential
    assert m["linalg.expm.calls"] == 100
    assert m["flows.matrix_exponential.distinct_ratio"] == 1.0
    assert m["mdp.exact_value.calls"] == 1 and m["mdp.induce.calls"] == 1
    assert m["svg.emit_svg.calls"] == 1
    assert m["flows.rk4_steps"] == 0 and m["report.save.calls"] == 0
    assert m["flows.trajectory_to_csv.bytes"] == (tmp_path / "tables" / "trajectory.csv").stat().st_size
    assert m["svg.emit_svg.bytes"] == (tmp_path / "figures" / "trajectory.svg").stat().st_size
    assert m["cli.main.self_s"] > 0.0 and m["flows.value_flow.total_s"] > 0.0
    assert tracer.spans == []


@pytest.mark.parametrize("kind", ["limit", "td"])
def test_verifier_accepts_the_flow_and_rejects_a_changed_value(tmp_path, kind):
    item = Item(f"flow-{kind}", "flow", kind, 3)
    run_item(item, str(tmp_path))
    verifier = Verifier()
    _, problems = verifier.check(item, str(tmp_path))
    assert problems == []

    csv = tmp_path / "tables" / "trajectory.csv"
    lines = csv.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-6)
    lines[-1] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    _, problems = Verifier().check(item, str(tmp_path))
    assert any("closed form" in p for p in problems)
    _, problems = verifier.check(item, str(tmp_path))
    assert any("first pass" in p for p in problems)


def test_benchmark_file_lists_what_a_run_reports():
    import json

    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    reported = list(Tracer().pass_metrics()) + ["trace.overhead_ratio"]
    assert per_layer == {name: run._unit(name) for name in reported}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS


def _fake_items(monkeypatch, table_text):
    """Items that write ``table_text(call number)`` as their only table and pass their checks."""
    import workloads

    calls = []

    def run_item(item, out_dir):
        calls.append(item.id)
        (Path(out_dir) / "tables").mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "checks.json").write_text("[]")
        (Path(out_dir) / "tables" / "t.csv").write_text(table_text(len(calls)))

    monkeypatch.setattr(workloads, "run_item", run_item)
    return [Item("slow", "experiment", "slow", 0)]


def test_an_untraced_run_compares_bytes_even_when_one_pass_outlasts_it(tmp_path, monkeypatch):
    import run

    runner = run.Runner(_fake_items(monkeypatch, str), tmp_path, Verifier(), {})
    walls, cpus = runner.passes(0.0)
    assert len(walls) == len(cpus) == 2
    assert (runner.attempted, runner.failed) == (2, 1)


def test_a_traced_run_times_each_item_untraced_and_traced(tmp_path, monkeypatch):
    import run

    record = {}
    runner = run.Runner(_fake_items(monkeypatch, lambda n: "same"), tmp_path, Verifier(), record)
    walls, ratios, layers = runner.traced_passes(0.0, Tracer())
    assert len(walls) == len(ratios) == len(layers) == 1 and ratios[0] > 0.0
    assert (runner.attempted, runner.failed) == (2, 0)
    assert len(record["slow"]["wall_s"]) == len(record["slow"]["traced_wall_s"]) == 1
