import json

import numpy as np
import pytest

import repdyn as rd
from repdyn.errors import ConfigurationError
from repdyn.experiments import EXPERIMENT_DEFAULTS, EXPERIMENTS

# light overrides so the whole module stays fast; the acceptance suite runs
# the full-size configurations
FAST_CONFIGS = {
    "two-state": {},
    "four-rooms": {"t_max": 20.0, "snapshot_times": (0.0, 10.0, 20.0),
                   "check_M": 64, "check_t": 300.0},
    "chain-transfer": {},
    "limit-checks": {"M_list": (100, 2000), "n_seeds": 3, "gap_tol": 0.05,
                     "cov_seeds": 400, "weight_M": 20000, "weight_seeds": 3,
                     "weight_tol": 0.12, "rewmat_seeds": 300, "rewmat_tol": 0.2},
    "bayes-opt": {"n_random_subspaces": 50, "mc_samples": 20000},
    "multi-task": {"M": 2000, "t_finite_span": 60.0},
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_runs_and_checks_pass(name):
    bundle = EXPERIMENTS[name](FAST_CONFIGS[name])
    assert bundle.tables, "experiment must emit tables"
    failed = [c.name for c in bundle.checks if not c.passed]
    assert not failed, f"failed checks: {failed}"
    # every check stores its threshold and points at a table
    for check in bundle.checks:
        assert np.isfinite(check.value)
        assert check.table in bundle.tables or check.table == ""


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_rerun_is_byte_identical(name, tmp_path):
    run_a = EXPERIMENTS[name](FAST_CONFIGS[name])
    run_b = EXPERIMENTS[name](dict(FAST_CONFIGS[name]))
    assert sorted(run_a.tables) == sorted(run_b.tables)
    for key in run_a.tables:
        assert run_a.tables[key].to_csv() == run_b.tables[key].to_csv()
    for key in run_a.figures:
        assert run_a.figures[key] == run_b.figures[key]


def test_unknown_config_key_rejected():
    for name, runner in EXPERIMENTS.items():
        with pytest.raises(ConfigurationError):
            runner({"no_such_key": 1})


def test_bundle_save_layout(tmp_path):
    bundle = rd.run_two_state()
    out = tmp_path / "bundle"
    bundle.save(out)
    assert (out / "config.json").exists()
    assert (out / "checks.json").exists()
    config = json.loads((out / "config.json").read_text())
    assert config["name"] == "two-state" and "seed" in config
    checks = json.loads((out / "checks.json").read_text())
    assert all({"name", "passed", "value", "threshold"} <= set(c) for c in checks)
    tables = list((out / "tables").glob("*.csv"))
    figures = list((out / "figures").glob("*.svg"))
    assert tables and figures


def test_two_state_mc_straight_td_curved():
    bundle = rd.run_two_state()
    td = bundle.tables["td_path"].rows
    # the mc check asserts straightness; here confirm the td path genuinely bends
    p0, p1 = td[0, 1:], td[-1, 1:]
    direction = (p1 - p0) / np.linalg.norm(p1 - p0)
    mid = td[len(td) // 3, 1:]
    offset = mid - p0
    deviation = np.linalg.norm(offset - (offset @ direction) * direction)
    assert deviation > 0.05


def test_chain_transfer_table_shapes():
    bundle = rd.run_chain_transfer()
    j = int(bundle.tables["policy_iteration"].rows[0, 0])
    assert j >= 2
    for name in ("angles_ebf", "angles_rsbf", "angles_rf"):
        assert bundle.tables[name].rows.shape == (j, j)
        assert bundle.tables[f"{name}_with_value"].rows.shape == (j, j)
    assert bundle.tables["values"].rows.shape == (j, 30)


def test_four_rooms_emits_grid_figures():
    bundle = rd.run_four_rooms_features(FAST_CONFIGS["four-rooms"])
    assert "eigenfunction_5" in bundle.figures
    assert "eigenfunction_105" in bundle.figures
    assert any(name.startswith("feature0_t") for name in bundle.figures)
    proj = bundle.tables["projections_feature0"]
    assert proj.rows.shape[1] == 106  # time column plus one projection per state


def test_four_rooms_fixed_weight_mode():
    cfg = dict(FAST_CONFIGS["four-rooms"], beta_mode="fixed", t_max=10.0,
               snapshot_times=(0.0, 10.0))
    bundle = rd.run_four_rooms_features(cfg)
    assert bundle.all_passed()
    assert bundle.config["beta_mode"] == "fixed"


def test_limit_checks_single_head_reduction():
    bundle = rd.run_limit_checks({"M_list": (1,), "n_seeds": 1, "gap_tol": 10.0,
                                  "cov_seeds": 50, "weight_M": 1000,
                                  "weight_seeds": 1, "weight_tol": 1.0,
                                  "rewmat_seeds": 50, "rewmat_tol": 1.0})
    names = {c.name: c for c in bundle.checks}
    assert names["single_head_reduces_to_joint_flow"].passed


def test_multi_task_discount_mode():
    bundle = rd.run_multi_task({"mode": "discounts", "M": 2000, "t_finite_span": 60.0})
    names = {c.name: c for c in bundle.checks}
    assert names["limit_span_is_averaged_operator_ebf"].passed
    assert "limit_span_distinct_from_first_task_ebf" not in names


def test_multi_task_rejects_a_split_that_does_not_divide_the_heads():
    with pytest.raises(ConfigurationError, match="L must divide M"):
        rd.run_multi_task({"L": 3, "mixes": (0.75, 0.25, 0.5), "M": 2000})
    with pytest.raises(ConfigurationError, match="need 3 discounts"):
        rd.run_multi_task({"mode": "discounts", "L": 3, "M": 3000})
    with pytest.raises(ConfigurationError, match="mode must be"):
        rd.run_multi_task({"mode": "bogus"})


def test_failed_check_is_recorded_not_raised():
    bundle = rd.run_limit_checks({"M_list": (100,), "n_seeds": 2, "gap_tol": 1e-9,
                                  "cov_seeds": 50, "weight_M": 1000,
                                  "weight_seeds": 1, "weight_tol": 1.0,
                                  "rewmat_seeds": 50, "rewmat_tol": 1.0})
    assert not bundle.all_passed()
    failed = [c for c in bundle.checks if not c.passed]
    assert all(c.threshold is not None for c in failed)
