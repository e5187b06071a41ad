import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repdyn import cli, flows

CLI = [sys.executable, "-m", "repdyn.cli"]

# keep CLI runs light: overrides for the fast bayes-opt configuration
FAST_BAYES = ["--set", "n_random_subspaces=20", "--set", "mc_samples=5000"]


def run_cli(args, **kwargs):
    return subprocess.run(CLI + args, capture_output=True, text=True, **kwargs)


def test_experiment_command_writes_bundle_and_exits_zero(tmp_path):
    out = tmp_path / "bundle"
    result = run_cli(["bayes-opt", "--seed", "7", "--out", str(out)] + FAST_BAYES)
    assert result.returncode == 0, result.stderr
    assert (out / "config.json").exists()
    assert (out / "checks.json").exists()
    assert list((out / "tables").glob("*.csv"))
    assert list((out / "figures").glob("*.svg")) == []  # bayes-opt is table-only
    assert "[PASS]" in result.stdout


def test_chain_transfer_reports_a_cut_complex_pair_on_stderr(tmp_path):
    # from the all-left policy the improvement path passes a chain whose
    # fourth and fifth eigenvalues are a complex pair, which K = 4 cuts
    result = run_cli(["chain-transfer", "--set", "init_left_prob=1", "--out", str(tmp_path)])
    assert result.returncode != 1, result.stderr  # 2 = a check failed, which is no error here
    assert "K cuts through a complex conjugate pair" in result.stderr


def test_rerun_with_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = run_cli(["bayes-opt", "--seed", "3", "--out", str(out)] + FAST_BAYES)
        assert result.returncode == 0
    for csv_a in sorted((a / "tables").glob("*.csv")):
        csv_b = b / "tables" / csv_a.name
        assert csv_a.read_bytes() == csv_b.read_bytes()


def test_different_seed_changes_tables(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["bayes-opt", "--seed", "3", "--out", str(a)] + FAST_BAYES)
    run_cli(["bayes-opt", "--seed", "4", "--out", str(b)] + FAST_BAYES)
    assert (a / "tables" / "projected_traces.csv").read_bytes() != \
        (b / "tables" / "projected_traces.csv").read_bytes()


def test_usage_error_exits_one():
    result = run_cli(["bogus"])
    assert result.returncode == 1
    assert "usage" in result.stderr.lower() or "invalid choice" in result.stderr


def test_unknown_override_exits_one(tmp_path):
    result = run_cli(["bayes-opt", "--set", "nope=3", "--out", str(tmp_path / "x")])
    assert result.returncode == 1
    assert "unknown override" in result.stderr


def test_failed_check_exits_two(tmp_path):
    result = run_cli([
        "limit-checks", "--out", str(tmp_path / "f"),
        "--set", "M_list=100", "--set", "n_seeds=1", "--set", "gap_tol=1e-12",
        "--set", "weight_M=1000", "--set", "weight_seeds=1",
        "--set", "weight_tol=1.0", "--set", "rewmat_seeds=20", "--set", "rewmat_tol=1.0",
    ])
    assert result.returncode == 2, result.stdout + result.stderr
    assert "[FAIL]" in result.stdout


def test_flow_command_wide_csv(tmp_path):
    out = tmp_path / "flow"
    result = run_cli(["flow", "--flow", "td", "--mdp", "chain", "--gamma", "0.9",
                      "--t-max", "100", "--samples", "21", "--out", str(out)])
    assert result.returncode == 0, result.stderr
    text = (out / "tables" / "trajectory.csv").read_text()
    header = [ln for ln in text.splitlines() if ln.startswith("t,")][0]
    assert header.split(",")[:3] == ["t", "v_0", "v_1"]
    assert (out / "figures" / "trajectory.svg").read_text().startswith("<svg")
    assert (out / "checks.json").read_text() == "[]\n"
    assert json.loads((out / "config.json").read_text())["flow"] == "td"
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "checks.json", "config.json", "figures", "figures/trajectory.svg", "tables",
        "tables/trajectory.csv"]


@pytest.mark.parametrize("flow", ["mc", "nstep", "tdlambda", "limit", "rc"])
def test_flow_command_variants(flow, tmp_path):
    out = tmp_path / flow
    result = run_cli(["flow", "--flow", flow, "--t-max", "2", "--samples", "5",
                      "--m", "8", "--k", "2", "--step", "0.01", "--out", str(out)])
    assert result.returncode == 0, result.stderr
    assert (out / "tables" / "trajectory.csv").exists()


@pytest.mark.parametrize("flow", ["ensemble", "rc"])
def test_flow_heads_and_cumulants_follow_phi0_in_one_stream(flow, tmp_path, monkeypatch):
    # Phi_0, then the head weights, then rc's cumulants are successive draws of the seed's
    # one generator, so the weights are not Phi_0's own normals scaled, and the cumulants
    # are not the stream that --seed 1 draws its Phi_0 from
    seen, run = [], flows.ensemble_flow

    def recording_flow(chain, state0, *rest):
        seen.append(state0)
        return run(chain, state0, *rest)

    monkeypatch.setattr(flows, "ensemble_flow", recording_flow)
    assert cli.main(["flow", "--flow", flow, "--mdp", "chain", "--k", "4", "--m", "64",
                     "--t-max", "0", "--samples", "1", "--out", str(tmp_path)]) == 0
    n = seen[0].phi.shape[0]
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(seen[0].phi, rng.standard_normal((n, 4)))
    np.testing.assert_array_equal(seen[0].weights, rng.normal(0.0, 1 / 8, (64, 4)))
    if flow == "rc":
        np.testing.assert_array_equal(seen[0].cumulants, rng.standard_normal((n, 64)))


FLOW_RECORD = ["flow", "gamma", "mdp", "out", "samples", "seed", "t_max"]


@pytest.mark.parametrize("argv, ignored, recorded", [
    (["--flow", "td", "--mdp", "two-state"],
     ["--left-prob", "0.25", "--n", "5", "--lam", "0.9", "--k", "2", "--m", "3",
      "--alpha", "2", "--beta", "1", "--step", "0.5"], []),
    (["--flow", "nstep", "--mdp", "chain"], ["--lam", "0.9", "--k", "2", "--step", "0.5"],
     ["left_prob", "n"]),
    (["--flow", "limit", "--mdp", "four-rooms"], ["--left-prob", "0.25", "--m", "3"], ["k"]),
    (["--flow", "ensemble", "--mdp", "chain", "--beta", "0"], ["--step", "0.5", "--n", "5"],
     ["alpha", "beta", "k", "left_prob", "m"]),
    (["--flow", "joint", "--mdp", "two-state", "--beta", "1"], ["--m", "3", "--lam", "0.9"],
     ["alpha", "beta", "k", "step"]),
    (["--flow", "td", "--mdp", "chain"], ["--m", "0", "--k", "0"], ["left_prob"]),
    (["--flow", "limit", "--mdp", "four-rooms"], ["--m", "0", "--left-prob", "7"], ["k"]),
], ids=["td", "nstep", "limit", "frozen-ensemble", "trained-joint", "td-zero-heads-and-features",
        "limit-zero-heads"])
def test_flow_bundle_records_only_the_flags_its_run_read(argv, ignored, recorded, tmp_path,
                                                          monkeypatch):
    # two runs that differ only in flags the flow ignores write the same bundle
    files = []
    for run, extra in (("plain", []), ("ignored", ignored)):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert cli.main(["flow", *argv, "--t-max", "2", "--samples", "5", *extra,
                         "--out", "bundle"]) == 0
        out = tmp_path / run / "bundle"
        files.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert files[0] == files[1]
    config = json.loads(files[0][Path("config.json")])
    assert sorted(config) == sorted(FLOW_RECORD + recorded)


def test_step_override_on_limit_checks_is_rejected(tmp_path):
    # limit-checks evaluates its frozen-head flows exactly and has no step to set
    result = run_cli(["limit-checks", "--set", "step=5e-3", "--out", str(tmp_path / "x")])
    assert result.returncode == 1
    assert "unknown override" in result.stderr


@pytest.mark.parametrize("argv, env, message", [
    (["two-state", "--set", "gamma=abc"], {}, "expected float"),
    (["chain-transfer", "--set", "K=30"], {}, "numerically dependent"),
    (["flow", "--flow", "ensemble", "--m", "0"], {},
     "--m must be an integer of at least 1, got 0"),
    (["flow", "--flow", "joint", "--k", "0"], {}, "--k must be an integer of at least 1, got 0"),
    (["four-rooms", "--set", "K=0"], {}, "K must be an integer of at least 1, got 0"),
    (["four-rooms", "--set", "K=106"], {}, "K must lie between 1"),
    (["flow", "--flow", "td", "--seed", "-1"], {},
     "--seed must be an integer of at least 0, got -1"),
    (["flow", "--flow", "joint", "--beta", "1", "--step", "nan"], {},
     "step must be a finite real number in (0, inf)"),
    (["flow", "--flow", "joint", "--beta", "1", "--step", "inf"], {},
     "step must be a finite real number in (0, inf)"),
    (["flow", "--flow", "mc", "--t-max", "nan"], {},
     "--t-max must be a finite real number in [0, inf), got nan"),
    (["flow", "--flow", "td", "--t-max", "inf"], {},
     "--t-max must be a finite real number in [0, inf), got inf"),
    (["flow", "--flow", "td", "--t-max", "-1"], {},
     "--t-max must be a finite real number in [0, inf), got -1.0"),
    (["flow", "--flow", "td", "--samples", "-1"], {},
     "--samples must be an integer of at least 1, got -1"),
    (["flow", "--flow", "td", "--samples", "0"], {},
     "--samples must be an integer of at least 1, got 0"),
    (["flow", "--flow", "td", "--t-max", "0"], {},
     "--samples 101 needs distinct times in [0, --t-max], got --t-max 0"),
    (["flow", "--flow", "ensemble", "--alpha", "nan"], {},
     "alpha must be a finite real number in [0, inf)"),
    (["flow", "--flow", "joint", "--beta", "inf"], {},
     "beta must be a finite real number in [0, inf)"),
    (["flow", "--flow", "td", "--left-prob", "2"], {},
     "left_prob must be a finite real number in [0, 1], got 2.0"),
    (["flow", "--flow", "td", "--left-prob", "nan"], {},
     "left_prob must be a finite real number in [0, 1], got nan"),
    (["flow", "--flow", "joint", "--beta", "1", "--step", "1e-300", "--t-max", "1",
      "--samples", "2"], {}, "step 1e-300 cannot reach the horizon t = 1:"),
    (["flow", "--flow", "ensemble", "--beta", "1", "--t-max", "1e308", "--samples", "2"], {},
     "step 0.001 cannot reach the horizon t = 1e+308"),
    # allocations above 2^57 bytes, which no address space can map
    (["flow", "--flow", "td", "--samples", "100000000000000000"], {}, "Unable to allocate"),
    (["bayes-opt", "--set", "n_random_subspaces=2", "--set", "mc_samples=10000000000000000"], {},
     "Unable to allocate"),
    (["bayes-opt", "--set", "n_random_subspaces=10000000000000000"], {}, "Unable to allocate"),
    # sizes whose bytes pass numpy's index range, where numpy raises a bare ValueError
    (["flow", "--flow", "td", "--samples", "100000000000000000000"], {},
     "--samples 100000000000000000000 asks for 100000000000000000000 float64 entries, "
     "past numpy's index range"),
    (["bayes-opt", "--set", "n_random_subspaces=2", "--set", "mc_samples=2000000000000000000"],
     {}, "mc_samples 2000000000000000000 asks for 2000000000000000000 float64 entries, "
     "past numpy's index range"),
    (["bayes-opt", "--set", "n_random_subspaces=2000000000000000000"], {},
     "n_random_subspaces 2000000000000000000 asks for 2000000000000000000 float64 entries, "
     "past numpy's index range"),
    # --k against the chain's 30 states (Phi_0), --m against --k (heads) and, for rc, the
    # states (cumulants)
    (["flow", "--flow", "joint", "--k", "100000000000000000000"], {},
     "--k 100000000000000000000 asks for 3000000000000000000000 float64 entries"),
    (["flow", "--flow", "ensemble", "--m", "100000000000000000000"], {},
     "--m 100000000000000000000 asks for 400000000000000000000 float64 entries"),
    (["flow", "--flow", "ensemble", "--k", "2000000000000000000"], {},
     "--k 2000000000000000000 asks for 60000000000000000000 float64 entries"),
    (["flow", "--flow", "limit", "--k", "2000000000000000000"], {},
     "--k 2000000000000000000 asks for 60000000000000000000 float64 entries"),
    (["flow", "--flow", "rc", "--k", "1", "--m", "200000000000000000"], {},
     "--m 200000000000000000 asks for 6000000000000000000 float64 entries"),
], ids=["override-not-a-number", "chain-transfer-rank",
        "flow-zero-heads", "flow-zero-features", "four-rooms-zero-features",
        "four-rooms-too-many-features", "flow-negative-seed", "flow-step-nan",
        "flow-step-inf", "flow-t-max-nan", "flow-t-max-inf", "flow-t-max-negative",
        "flow-negative-samples",
        "flow-zero-samples", "flow-t-max-zero", "flow-alpha-nan", "flow-beta-inf",
        "flow-left-prob-above-one", "flow-left-prob-nan", "flow-joint-step-1e-300",
        "flow-ensemble-t-max-1e308", "flow-samples-1e17", "bayes-opt-mc-samples-1e16",
        "bayes-opt-random-subspaces-1e16", "flow-samples-1e20", "bayes-opt-mc-samples-2e18",
        "bayes-opt-random-subspaces-2e18", "flow-joint-k-1e20",
        "flow-ensemble-m-1e20", "flow-ensemble-k-2e18", "flow-limit-k-2e18", "flow-rc-m-2e17"])
def test_bad_input_is_one_error_line_and_exit_one(argv, env, message, tmp_path,
                                                   monkeypatch, capsys):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("repdyn: error: ")
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["flow", "--flow", "td", "--samples", "3"], ["two-state"]],
                         ids=["flow-td", "two-state"])
def test_out_that_is_a_file_is_one_error_line_and_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "F"
    out.write_text("kept\n")
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"repdyn: error: cannot write a bundle to out_dir {str(out)!r}: ")
    assert out.read_text() == "kept\n"


def test_rerun_into_an_out_that_holds_another_runs_tables_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "b"
    for _ in range(2):  # a rerun that writes the same files keeps working
        assert cli.main(["four-rooms", "--set", "K=4", "--out", str(out)]) == 0
    config = (out / "config.json").read_bytes()
    capsys.readouterr()
    assert cli.main(["four-rooms", "--set", "K=2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"repdyn: error: out_dir {str(out)!r} holds tables/projections_feature2.csv, "
                   f"which this bundle does not write\n")
    assert (out / "config.json").read_bytes() == config


def test_flow_at_t_max_zero_takes_one_sample(tmp_path):
    assert cli.main(["flow", "--flow", "td", "--t-max", "0", "--samples", "1",
                     "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "tables" / "trajectory.csv").exists()


OUT_OF_RANGE_OVERRIDES = [
    ("four-rooms", "M=0", "M must be an integer of at least 1, got 0"),
    ("four-rooms", "check_M=0", "check_M must be an integer of at least 1, got 0"),
    ("limit-checks", "M_list=0", "M_list must be an integer of at least 1, got 0"),
    ("limit-checks", "M_list=100,0", "M_list must be an integer of at least 1, got 0"),
    ("limit-checks", "weight_M=0", "weight_M must be an integer of at least 1, got 0"),
    ("limit-checks", "rewmat_M=0", "unknown override key 'rewmat_M'"),
    ("multi-task", "M=0", "M must be an integer of at least 1, got 0"),
    ("limit-checks", "n_seeds=0", "n_seeds must be an integer of at least 1, got 0"),
    ("limit-checks", "cov_seeds=0", "unknown override key 'cov_seeds'"),
    ("limit-checks", "weight_seeds=0",
     "weight_seeds must be an integer of at least 1, got 0"),
    ("bayes-opt", "n_random_subspaces=0",
     "n_random_subspaces must be an integer of at least 1, got 0"),
    ("four-rooms", "t_max=inf", "t_max must be a finite real number in (-inf, inf), got inf"),
    ("multi-task", "K=0", "K must be an integer of at least 1, got 0"),
    ("limit-checks", "K=0", "K must be an integer of at least 1, got 0"),
    ("multi-task", "t_max=nan", "unknown override key 't_max'"),
    ("two-state", "seed=-1", "seed must be an integer of at least 0, got -1"),
    ("multi-task", "K=31", "K must lie in 1..30, got 31"),
    ("two-state", "rewards=1,2,3", "unknown override key 'rewards'"),
    ("limit-checks", "n_gap_samples=1", "unknown override key 'n_gap_samples'"),
    ("bayes-opt", "mc_samples=1", "mc_samples must be an integer of at least 2, got 1"),
    ("multi-task", "mode=discounts", "unknown override key 'mode'"),
    ("multi-task", "L=2", "unknown override key 'L'"),
    ("multi-task", "mixes=0.75,0.25,0.5", "one entry per task, got 2 and 3"),
    ("two-state", "t_max=5", "unknown override key 't_max'"),
    ("four-rooms", "snapshot_times=-5", "snapshot_times must be a finite real number in [0, inf)"),
    ("multi-task", "mixes=2,0.5", "mixes must be a finite real number in [0, 1], got 2.0"),
    ("four-rooms", "t_max=0", "t_max must be a finite real number in (0, 9.0072e+15), got 0.0"),
    ("four-rooms", "check_t=-5", "check_t must be a finite real number in [0, inf), got -5.0"),
    ("limit-checks", "t_max=-1", "unknown override key 't_max'"),
    ("multi-task", "t_max=-1", "unknown override key 't_max'"),
    ("multi-task", "discounts=1.5,0.9", "discounts must be a finite real number in [0, 1)"),
    ("multi-task", "t_subspace=-3", "unknown override key 't_subspace'"),
    ("multi-task", "t_finite_span=-3", "t_finite_span must be a finite real number in [0, inf)"),
    ("chain-transfer", "init_left_prob=1.5",
     "init_left_prob must be a finite real number in [0, 1], got 1.5"),
    ("four-rooms", "beta=-1", "beta must be a finite real number in [0, inf), got -1.0"),
    ("limit-checks", "M_list=100,100", "M_list entries must be distinct"),
    ("two-state", "stay_prob_a=2", "unknown override key 'stay_prob_a'"),
    ("two-state", "stay_prob_b=-1", "unknown override key 'stay_prob_b'"),
    ("two-state", "v0=1,2,3", "unknown override key 'v0'"),
    ("chain-transfer", "J_max=0", "unknown override key 'J_max'"),
    ("limit-checks", "weight_K=0", "unknown override key 'weight_K'"),
    ("multi-task", "n_gap_samples=0", "unknown override key 'n_gap_samples'"),
    ("four-rooms", "snapshot_times=1e308", "step 0.01 cannot reach the horizon t = 1e+308"),
    ("four-rooms", "t_max=1e17",
     "t_max must be a finite real number in (0, 9.0072e+15), got 1e+17"),
    ("four-rooms", "t_max=1e308",
     "t_max must be a finite real number in (0, 9.0072e+15), got 1e+308"),
    # each limit-checks count is sized by the largest array it shapes before any draw
    ("limit-checks", "n_seeds=99999999999999999999",
     "n_seeds 99999999999999999999 asks for 599999999999999999994 float64 entries"),
    ("limit-checks", "K=99999999999999999999",
     "K 99999999999999999999 asks for 29999999999999999999400000000000000000003 float64"),
    ("limit-checks", "rewmat_seeds=99999999999999999999",
     "rewmat_seeds 99999999999999999999 asks for 11999999999999999999880 float64 entries"),
    ("limit-checks", "weight_seeds=99999999999999999999",
     "weight_seeds 99999999999999999999 asks for 9999999999999999999900 float64 entries"),
    ("limit-checks", "M_list=99999999999999999999",
     "M_list 99999999999999999999 asks for 399999999999999999996 float64 entries"),
    # four-rooms' and multi-task's head counts are sized by their (M, K) heads
    ("four-rooms", "M=99999999999999999999",
     "M 99999999999999999999 asks for 999999999999999999990 float64 entries"),
    ("four-rooms", "check_M=99999999999999999999",
     "check_M 99999999999999999999 asks for 999999999999999999990 float64 entries"),
    ("multi-task", "M=99999999999999999999",
     "M 99999999999999999999 asks for 399999999999999999996 float64 entries"),
]


@pytest.mark.parametrize("command, override, message", OUT_OF_RANGE_OVERRIDES,
                         ids=[f"{command}-{override}" for command, override, _ in
                              OUT_OF_RANGE_OVERRIDES])
def test_out_of_range_override_is_one_error_line_and_exit_one(command, override, message,
                                                              tmp_path, capsys):
    assert cli.main([command, "--set", override, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("repdyn: error: ")
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["four-rooms", "--seed", "0", "--set", "check_t=100000", "--set", "t_max=1",
      "--set", "snapshot_times=0,1"], "horizon t = 100000"),
    (["four-rooms", "--seed", "6", "--set", "check_t=100000", "--set", "t_max=1",
      "--set", "snapshot_times=0,1"], "horizon t = 100000"),
    (["flow", "--flow", "td", "--samples", "2", "--t-max", "1e308"],
     "matrix exponential overflowed at t = 1.000e+308"),
    (["flow", "--flow", "nstep", "--samples", "2", "--t-max", "1e308"],
     "matrix exponential overflowed at t = 1.000e+308"),
], ids=["four-rooms-seed-0-t=100000", "four-rooms-seed-6-t=100000",
        "flow-td-t-max-huge", "flow-nstep-t-max-huge"])
def test_numerical_limit_is_one_failure_line_and_exit_one(argv, message, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("repdyn: numerical failure: ")
    assert message in err
    assert not (tmp_path / "out").exists()


# runs cli.main in a fresh interpreter, then reports its exit code and whether scipy was imported
MAIN_THEN_REPORT_SCIPY = """
import sys
from repdyn import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exit_:
    code = exit_.code
print(code, "scipy" in sys.modules)
"""


def run_fresh(code, args=()):
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


@pytest.mark.parametrize("module", ["repdyn", "repdyn.cli"])
def test_import_does_not_load_scipy(module):
    assert run_fresh(f"import sys, {module}; print('scipy' in sys.modules)") == ["False"]


@pytest.mark.parametrize("argv, exit_code, loads_scipy", [
    (["flow", "--flow", "mc", "--samples", "11"], 0, False),
    (["flow", "--flow", "joint", "--beta", "1", "--t-max", "1", "--samples", "11"], 0, False),
    (["chain-transfer"], 0, False),
    (["bayes-opt"] + FAST_BAYES, 0, False),
    (["--help"], 0, False),
    (["chain-transfer", "--set", "gamma=abc"], 1, False),
    (["flow", "--flow", "td", "--samples", "11"], 0, True),
], ids=["flow-mc", "flow-joint-trained", "chain-transfer", "bayes-opt", "help", "error-exit",
        "flow-td"])
def test_scipy_loads_only_at_a_matrix_exponential(argv, exit_code, loads_scipy, tmp_path):
    if argv[0] != "--help":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert run_fresh(MAIN_THEN_REPORT_SCIPY, argv)[-2:] == [str(exit_code), str(loads_scipy)]
