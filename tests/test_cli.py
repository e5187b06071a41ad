import json
import os
import subprocess
import sys

import pytest

from repdyn import cli

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
    result = run_cli(["chain-transfer", "--set", "init_policy=left", "--out", str(tmp_path)])
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


def test_env_seed_fallback(tmp_path):
    env = dict(os.environ, REPDYN_SEED="3")
    out_env = tmp_path / "env"
    result = run_cli(["bayes-opt", "--out", str(out_env)] + FAST_BAYES, env=env)
    assert result.returncode == 0
    config = json.loads((out_env / "config.json").read_text())
    assert config["seed"] == 3


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
        "--set", "cov_seeds=20", "--set", "weight_M=1000", "--set", "weight_seeds=1",
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


def test_step_override_on_limit_checks_is_rejected(tmp_path):
    # limit-checks evaluates its frozen-head flows exactly and has no step to set
    result = run_cli(["limit-checks", "--set", "step=5e-3", "--out", str(tmp_path / "x")])
    assert result.returncode == 1
    assert "unknown override" in result.stderr


@pytest.mark.parametrize("argv, env, message", [
    (["two-state", "--set", "gamma=abc"], {}, "expected float"),
    (["two-state"], {"REPDYN_SEED": "x"}, "REPDYN_SEED"),
    (["chain-transfer", "--set", "K=30"], {}, "numerically dependent"),
    (["flow", "--flow", "ensemble", "--m", "0"], {}, "--m must be at least 1"),
    (["flow", "--flow", "joint", "--k", "0"], {}, "--k must be at least 1"),
    (["four-rooms", "--set", "K=0"], {}, "K must be at least 1"),
    (["four-rooms", "--set", "K=106"], {}, "K must lie between 1"),
    (["flow", "--flow", "td", "--seed", "-1"], {}, "seed must be nonnegative"),
    (["flow", "--flow", "joint", "--beta", "1", "--step", "nan"], {},
     "step must be a finite real number in (0, inf)"),
    (["flow", "--flow", "joint", "--beta", "1", "--step", "inf"], {},
     "step must be a finite real number in (0, inf)"),
    (["flow", "--flow", "mc", "--t-max", "nan"], {}, "--t-max must be finite"),
    (["flow", "--flow", "td", "--t-max", "inf"], {}, "--t-max must be finite"),
    (["flow", "--flow", "td", "--samples", "-1"], {}, "--samples must be at least 1"),
    (["flow", "--flow", "td", "--samples", "0"], {}, "--samples must be at least 1"),
    (["flow", "--flow", "ensemble", "--alpha", "nan"], {},
     "alpha must be a finite real number in [0, inf)"),
    (["flow", "--flow", "joint", "--beta", "inf"], {},
     "beta must be a finite real number in [0, inf)"),
], ids=["override-not-a-number", "env-seed-not-an-integer", "chain-transfer-rank",
        "flow-zero-heads", "flow-zero-features", "four-rooms-zero-features",
        "four-rooms-too-many-features", "flow-negative-seed", "flow-step-nan",
        "flow-step-inf", "flow-t-max-nan", "flow-t-max-inf", "flow-negative-samples",
        "flow-zero-samples", "flow-alpha-nan", "flow-beta-inf"])
def test_bad_input_is_one_error_line_and_exit_one(argv, env, message, tmp_path,
                                                   monkeypatch, capsys):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("repdyn: error: ")
    assert message in err
    assert not (tmp_path / "out").exists()


OUT_OF_RANGE_OVERRIDES = [
    ("four-rooms", "M=0", "M must be at least 1"),
    ("four-rooms", "check_M=0", "check_M must be at least 1"),
    ("limit-checks", "M_list=0", "M_list must be at least 1"),
    ("limit-checks", "M_list=100,0", "M_list must be at least 1"),
    ("limit-checks", "weight_M=0", "weight_M must be at least 1"),
    ("limit-checks", "rewmat_M=0", "rewmat_M must be at least 1"),
    ("multi-task", "M=0", "M must be at least 1"),
    ("limit-checks", "n_seeds=0", "n_seeds must be at least 1"),
    ("limit-checks", "cov_seeds=0", "cov_seeds must be at least 1"),
    ("limit-checks", "weight_seeds=0", "weight_seeds must be at least 1"),
    ("bayes-opt", "n_random_subspaces=0", "n_random_subspaces must be at least 1"),
    ("four-rooms", "t_max=inf", "t_max must be finite"),
    ("multi-task", "K=0", "K must be at least 1"),
    ("limit-checks", "K=0", "K must be at least 1"),
    ("multi-task", "t_max=nan", "t_max must be finite"),
    ("two-state", "seed=-1", "seed must be nonnegative"),
    ("multi-task", "K=31", "K must lie in 1..30, got 31"),
    ("two-state", "rewards=1,2,3", "rewards must hold one entry per state (2), got 3"),
    ("limit-checks", "n_gap_samples=1", "n_gap_samples must be at least 2"),
    ("bayes-opt", "mc_samples=1", "mc_samples must be at least 2"),
    ("multi-task", "mode=discounts", "unknown override key 'mode'"),
    ("multi-task", "L=2", "unknown override key 'L'"),
    ("multi-task", "mixes=0.75,0.25,0.5", "one entry per task, got 2 and 3"),
    ("two-state", "t_max=5", "t_max must be a finite real number in (9, inf), got 5.0"),
    ("four-rooms", "snapshot_times=-5", "snapshot_times must be a finite real number in [0, inf)"),
    ("multi-task", "mixes=2,0.5", "mixes must be a finite real number in [0, 1], got 2.0"),
    ("four-rooms", "t_max=0", "t_max must be a finite real number in (0, inf), got 0.0"),
    ("four-rooms", "check_t=-5", "check_t must be a finite real number in [0, inf), got -5.0"),
    ("limit-checks", "t_max=-1", "t_max must be a finite real number in (0, inf), got -1.0"),
    ("multi-task", "t_max=-1", "t_max must be a finite real number in (0, inf), got -1.0"),
    ("multi-task", "discounts=1.5,0.9", "discounts must be a finite real number in [0, 1)"),
    ("multi-task", "t_subspace=-3", "t_subspace must be a finite real number in [0, inf)"),
    ("multi-task", "t_finite_span=-3", "t_finite_span must be a finite real number in [0, inf)"),
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
    (["four-rooms", "--set", "check_t=1000", "--set", "t_max=1", "--set", "snapshot_times=0,1"],
     "horizon t = 1000"),
    (["flow", "--flow", "td", "--samples", "2", "--t-max", "1e308"],
     "matrix exponential overflowed at t = 1.000e+308"),
    (["flow", "--flow", "nstep", "--samples", "2", "--t-max", "1e308"],
     "matrix exponential overflowed at t = 1.000e+308"),
], ids=["four-rooms-check_t=1000", "flow-td-t-max-huge", "flow-nstep-t-max-huge"])
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
