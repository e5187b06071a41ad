import concurrent.futures
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repdyn as rd
from repdyn import experiments, flows
from repdyn.errors import ConfigurationError, NumericalError
from repdyn.experiments import (EXPERIMENT_DEFAULTS, EXPERIMENTS, WEIGHT_K, _mix_policy,
                                _stream, chain_uniform)

# light overrides so the whole module stays fast; the acceptance suite runs
# the full-size configurations
FAST_CONFIGS = {
    "two-state": {},
    "four-rooms": {"t_max": 20.0, "snapshot_times": (0.0, 10.0, 20.0),
                   "check_M": 64, "check_t": 300.0},
    "chain-transfer": {},
    "limit-checks": {"M_list": (100, 2000), "n_seeds": 3, "gap_tol": 0.05,
                     "weight_M": 20000, "weight_seeds": 3, "weight_tol": 0.12,
                     "rewmat_seeds": 400, "rewmat_tol": 0.2},
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


def test_every_config_entry_is_a_number_or_a_non_empty_tuple_of_numbers():
    # an entry is the quantity itself (a rate, a probability, a count), never a
    # name that a branch decodes into one
    for name, defaults in EXPERIMENT_DEFAULTS.items():
        for key, value in defaults.items():
            kinds = {type(x) for x in value} if isinstance(value, tuple) else {type(value)}
            assert kinds in ({int}, {float}), f"{name} {key}={value!r}"


@pytest.mark.parametrize("left_prob, policy", [
    (1.0, rd.Policy.deterministic(np.zeros(30, dtype=int), 2)),
    (0.0, rd.Policy.deterministic(np.ones(30, dtype=int), 2)),
    (0.5, rd.Policy.uniform(30, 2)),
], ids=["all-left", "all-right", "uniform"])
def test_left_action_probability_builds_the_policy_bit_for_bit(left_prob, policy):
    assert _mix_policy(30, left_prob).probs.tobytes() == policy.probs.tobytes()


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
    cfg = dict(FAST_CONFIGS["four-rooms"], beta=0.0, t_max=10.0,
               snapshot_times=(0.0, 10.0))
    bundle = rd.run_four_rooms_features(cfg)
    assert bundle.all_passed()
    assert bundle.config["beta"] == 0.0


def test_limit_checks_single_head_reduction():
    bundle = rd.run_limit_checks({"M_list": (1,), "n_seeds": 1, "gap_tol": 10.0,
                                  "weight_M": 1000, "weight_seeds": 1, "weight_tol": 1.0,
                                  "rewmat_seeds": 50, "rewmat_tol": 1.0})
    names = {c.name: c for c in bundle.checks}
    assert names["single_head_reduces_to_joint_flow"].passed


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**80), label=st.text(),
       extra=st.lists(st.integers(0, 10**6), max_size=3))
def test_substreams_hash_the_words_of_the_flat_key_list(seed, label, extra):
    # the key is the seed's words, one word per label character (astral ones
    # included), then the extras' words; every recorded bundle rests on it
    flat = np.random.default_rng([seed] + [ord(c) for c in label] + extra)
    assert (_stream(seed, label, *extra).bit_generator.random_raw(4)
            == flat.bit_generator.random_raw(4)).all()


# a reduced limit-checks whose second-moment block has several seeds to spread
LIMIT_WORKERS_CONFIG = {"M_list": (100,), "n_seeds": 1, "weight_M": 20000, "weight_seeds": 4,
                        "rewmat_seeds": 50}


@pytest.mark.parametrize("run, config", [
    (rd.run_two_state, {"gamma": np.float32(0.9), "seed": np.int64(3)}),
    (rd.run_limit_checks, {**LIMIT_WORKERS_CONFIG, "M_list": (np.int64(100), 200)}),
], ids=["two-state", "limit-checks"])
def test_numpy_numbers_in_a_config_are_stored_as_python_numbers(run, config, tmp_path):
    bundle = run(config)
    bundle.save(tmp_path)  # a numpy scalar in config.json is not JSON
    saved = json.loads((tmp_path / "config.json").read_text())
    for key, value in config.items():
        stored = bundle.config[key]
        entries = list(stored) if isinstance(stored, tuple) else [stored]
        assert {type(x) for x in entries} <= {int, float} and stored == value
        assert saved[key] == (entries if isinstance(stored, tuple) else stored)


def _limit_checks_on(cpus, monkeypatch, out):
    """Bundle files of the reduced limit-checks as a process on ``cpus`` CPUs saves them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    workers = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    bundle = rd.run_limit_checks(LIMIT_WORKERS_CONFIG)
    bundle.save(out)
    assert workers == [cpus]
    return bundle, {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_limit_checks_is_byte_identical_on_one_and_two_workers(monkeypatch, tmp_path):
    one, files_one = _limit_checks_on(1, monkeypatch, tmp_path / "one")
    _, files_two = _limit_checks_on(2, monkeypatch, tmp_path / "two")
    assert files_one == files_two
    # seed i's error comes from the substream keyed "weight identity", i, in seed order
    wk, wm = WEIGHT_K, LIMIT_WORKERS_CONFIG["weight_M"]
    expected = []
    for i in range(LIMIT_WORKERS_CONFIG["weight_seeds"]):
        flat = np.random.default_rng([0] + [ord(c) for c in "weight identity"] + [i])
        w = flat.normal(0.0, np.sqrt(1.0 / wm), size=(wm, wk))
        expected.append(np.linalg.norm(w.T @ w - np.eye(wk)))
    np.testing.assert_allclose(one.tables["weight_second_moment"].rows[:, 1], expected,
                               rtol=1e-12)


def test_limit_checks_rejects_a_bad_config_before_its_pool_starts(monkeypatch):
    pools = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda *args: pools.append(args))
    with pytest.raises(ConfigurationError, match="M_list entries must be distinct"):
        rd.run_limit_checks({**LIMIT_WORKERS_CONFIG, "M_list": (100, 100)})
    assert pools == []


def test_an_error_in_the_flows_cancels_the_waiting_seeds_and_joins_the_pool(monkeypatch):
    # the seeds wait until the pool's shutdown has cancelled those not yet started,
    # so at most one seed per worker runs; a pool left to finish would run all 12
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    released, started = threading.Event(), []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            released.set()
            super().shutdown(wait=wait)

    def stream(seed, label, *extra):
        if label == "weight identity":
            started.append(extra)
            released.wait(10.0)  # a pool never shut down would hold them forever
        return _stream(seed, label, *extra)

    def broken_flows(*args):
        raise NumericalError("the flows broke")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(experiments, "_stream", stream)
    monkeypatch.setattr(flows, "frozen_ensemble_flows", broken_flows)
    before = threading.active_count()
    with pytest.raises(NumericalError, match="the flows broke"):
        rd.run_limit_checks({**LIMIT_WORKERS_CONFIG, "weight_seeds": 12})
    assert threading.active_count() == before
    assert len(started) <= 2


def _flat_stream(label, seed=0):
    """One generator keyed by (seed, label) alone, read in sample order."""
    return np.random.default_rng([seed] + [ord(c) for c in label])


def _relative_covariance_error(samples, target):
    """|E[x x^T] - target|_F / |target|_F over the columns of (s, n, K) samples."""
    pooled = samples.transpose(0, 2, 1).reshape(-1, samples.shape[1])
    emp = pooled.T @ pooled / pooled.shape[0]
    return np.linalg.norm(emp - target) / np.linalg.norm(target), emp


def _chain_resolvent(gamma=0.9):
    P = chain_uniform(gamma).transition
    return np.linalg.inv(np.eye(len(P)) - gamma * P)


def test_limit_checks_pooled_statistics_read_one_stream_per_label():
    # 50 samples: the products are drawn 32 at a time, so the last block is partial
    cfg = LIMIT_WORKERS_CONFIG
    assert cfg["rewmat_seeds"] % 32
    bundle = rd.run_limit_checks(cfg)
    s, K, n = cfg["rewmat_seeds"], EXPERIMENT_DEFAULTS["limit-checks"]["K"], 30
    # sample i is draw i of "reward matrix" (64 rewards) and of "reward matrix heads",
    # bit for bit whatever the block size
    r = _flat_stream("reward matrix").standard_normal((s, n, 64))
    w = _flat_stream("reward matrix heads").normal(0.0, 0.125, size=(s, 64, K))
    rew_err, emp = _relative_covariance_error(r @ w, np.eye(n))
    assert bundle.tables["reward_matrix_covariance_error"].rows[0, 0] == rew_err
    # the limiting features are those same columns through psi: Psi emp Psi^T
    psi = rd.resolvent(chain_uniform().transition, 0.9)
    assert (bundle.tables["limit_covariance_empirical"].rows == psi @ emp @ psi.T).all()
    # and their pooled covariance, taken from the features themselves
    psi = _chain_resolvent()
    cov_err, features = _relative_covariance_error(psi @ (r @ w), psi @ psi.T)
    np.testing.assert_allclose(bundle.tables["limit_covariance_error"].rows[0, 0],
                               cov_err, rtol=1e-10)
    np.testing.assert_allclose(bundle.tables["limit_covariance_empirical"].rows, features,
                               rtol=1e-10, atol=1e-12)


def test_bayes_opt_statistics_read_one_stream_per_label():
    cfg = FAST_CONFIGS["bayes-opt"]
    bundle = rd.run_bayes_optimality(cfg)
    K, n = EXPERIMENT_DEFAULTS["bayes-opt"]["K"], 30
    psi = _chain_resolvent()
    g = _flat_stream("subspace").standard_normal((cfg["n_random_subspaces"], n, K))
    q = np.linalg.qr(g)[0]
    traces = ((q.transpose(0, 2, 1) @ psi) ** 2).sum(axis=(1, 2))
    np.testing.assert_allclose(bundle.tables["projected_traces"].rows[:, 0], traces,
                               rtol=1e-12)
    # reward j is row j of one "mc rewards" draw, whatever the block size
    rewards = _flat_stream("mc rewards").standard_normal((cfg["mc_samples"], n))
    best = np.linalg.svd(psi)[0][:, :K]  # top-K principal directions of psi psi^T
    values = rewards @ psi.T
    errs = ((values - values @ best @ best.T) ** 2).sum(axis=1)
    expected = np.linalg.norm(psi) ** 2 - np.linalg.norm(best.T @ psi) ** 2
    se = errs.std(ddof=1) / np.sqrt(cfg["mc_samples"])
    z = abs(errs.mean() - expected) / se
    np.testing.assert_allclose(bundle.tables["mc_projection_error"].rows[0],
                               [errs.mean(), expected, se, z], rtol=1e-9)
    # fewer subspaces are the first rows of more
    fewer = rd.run_bayes_optimality({**cfg, "n_random_subspaces": 20})
    assert (fewer.tables["projected_traces"].rows
            == bundle.tables["projected_traces"].rows[:20]).all()


def test_bayes_opt_random_subspaces_do_not_depend_on_the_block_size(monkeypatch):
    """Blocks of 7 and 8 subspaces (the last one partial) give the traces of one block of 50,
    bit for bit: each slice of a stacked call is its own SVD and product."""
    cfg = FAST_CONFIGS["bayes-opt"]
    whole = rd.run_bayes_optimality(cfg)
    for block in (7, 8):
        monkeypatch.setattr(experiments, "MC_BLOCK", block)
        blocked = rd.run_bayes_optimality(cfg)
        assert (blocked.tables["projected_traces"].rows
                == whole.tables["projected_traces"].rows).all()
        np.testing.assert_allclose(blocked.tables["mc_projection_error"].rows,
                                   whole.tables["mc_projection_error"].rows, rtol=1e-12)


def test_multi_task_discount_mode():
    bundle = rd.run_multi_task({"discounts": (0.8, 0.99), "mixes": (0.5, 0.5), "M": 2000,
                                "t_finite_span": 60.0})
    names = {c.name: c for c in bundle.checks}
    assert names["limit_span_is_averaged_operator_ebf"].passed
    assert "limit_span_distinct_from_first_task_ebf" not in names


def test_multi_task_rejects_a_split_that_does_not_divide_the_heads():
    with pytest.raises(ConfigurationError, match="L must divide M"):
        rd.run_multi_task({"mixes": (0.75, 0.25, 0.5), "discounts": (0.9, 0.9, 0.9), "M": 2000})
    with pytest.raises(ConfigurationError, match="L must divide M"):
        rd.run_multi_task({"mixes": (0.5, 0.5, 0.5), "discounts": (0.8, 0.9, 0.99), "M": 2000})
    with pytest.raises(ConfigurationError, match="one entry per task, got 2 and 3"):
        rd.run_multi_task({"mixes": (0.75, 0.25, 0.5), "M": 3000})


def test_failed_check_is_recorded_not_raised():
    bundle = rd.run_limit_checks({"M_list": (100,), "n_seeds": 2, "gap_tol": 1e-9,
                                  "weight_M": 1000, "weight_seeds": 1, "weight_tol": 1.0,
                                  "rewmat_seeds": 50, "rewmat_tol": 1.0})
    assert not bundle.all_passed()
    failed = [c for c in bundle.checks if not c.passed]
    assert all(c.threshold is not None for c in failed)
