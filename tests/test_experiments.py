import concurrent.futures
import json
import os
import threading
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import repdyn as rd
from repdyn import experiments, flows
from repdyn.errors import ConfigurationError
from repdyn.experiments import (EXPERIMENT_DEFAULTS, EXPERIMENTS, WEIGHT_K, _mix_policy,
                                _stream, _wishart_factors, chain_uniform)

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


# a reduced limit-checks with several second-moment seeds and a few reward-weight products
LIMIT_SMALL_CONFIG = {"M_list": (100,), "n_seeds": 1, "weight_M": 20000, "weight_seeds": 4,
                      "rewmat_seeds": 50}


@pytest.mark.parametrize("run, config", [
    (rd.run_two_state, {"gamma": np.float32(0.9), "seed": np.int64(3)}),
    (rd.run_limit_checks, {**LIMIT_SMALL_CONFIG, "M_list": (np.int64(100), 200)}),
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


def _bartlett_reference(rng, count, n, k):
    """Bartlett factors assembled entry by entry: the (count, d) chi-square draw, then the
    entries below the diagonal of each factor, row by row, from one standard normal draw."""
    d = min(n, k)
    chi2 = rng.chisquare([n - i for i in range(d)], size=(count, d))
    below = rng.standard_normal((count, sum(min(i, d) for i in range(k))))
    L = np.zeros((count, k, d))
    for s in range(count):
        entries = iter(below[s])
        for i in range(k):
            for j in range(min(i, d)):
                L[s, i, j] = next(entries)
            if i < d:
                L[s, i, i] = np.sqrt(chi2[s, i])
    return L


def _moments_agree(x, mean, variance, se=5.0):
    """The sample mean and variance of x lie within ``se`` standard errors of the given law's."""
    count, centred = len(x), x - mean
    assert abs(x.mean() - mean) <= se * np.sqrt(variance / count)
    fourth = np.mean(centred ** 4)  # the variance estimate's standard error from its sample
    assert abs(np.mean(centred ** 2) - variance) <= se * np.sqrt((fourth - variance ** 2) / count)


def _laws_agree(a, b):
    """Two samples of one statistic pass a two-sample Kolmogorov-Smirnov test."""
    assert scipy.stats.ks_2samp(a, b).pvalue > 1e-3


@pytest.mark.parametrize("n, k", [(64, 4), (3, 5), (1, 10)])
def test_wishart_factors_have_the_law_of_a_gaussian_gram_matrix(n, k):
    # oracle: X^T X of a standard normal (n, k) X is Wishart_k(n, I), with E = n I,
    # Var = 2n on the diagonal and n off it; n < k is the singular case
    count = 20000
    L = _wishart_factors(np.random.default_rng([n, k, 1]), count, n, k)
    assert L.shape == (count, k, min(n, k))
    assert (np.triu(L, 1) == 0).all() and (np.diagonal(L, axis1=1, axis2=2) > 0).all()
    factored = L @ L.swapaxes(1, 2)
    x = np.random.default_rng([n, k, 2]).standard_normal((count, n, k))
    direct = x.swapaxes(1, 2) @ x
    for i, j in zip(*np.triu_indices(k)):
        _laws_agree(factored[:, i, j], direct[:, i, j])
        _moments_agree(factored[:, i, j], n * (i == j), n * (1 + (i == j)))
    trace = np.trace(factored, axis1=1, axis2=2)
    _laws_agree(trace, np.trace(direct, axis1=1, axis2=2))
    _moments_agree(trace, n * k, 2 * n * k)  # a sum of k independent chi2(n)


@pytest.mark.parametrize("heads, K", [(64, 4), (3, 5)])
def test_factored_reward_weight_products_have_the_law_of_direct_products(heads, K):
    # oracle: Z = R W, R (n, heads) standard normal and W (heads, K) of variance 1/heads.
    # Each entry has mean 0 and variance 1; Z_00 Z_10 (rows tied through W) and
    # Z_00 Z_01 (one row) have mean 0 and variance 1 + 2 / heads
    count, n = 20000, 3
    rng = np.random.default_rng([heads, K, 1])
    L = _wishart_factors(rng, count, heads, K)
    factored = (L @ rng.standard_normal((count, n, L.shape[2])).swapaxes(1, 2)
                / np.sqrt(heads)).swapaxes(1, 2)
    rng = np.random.default_rng([heads, K, 2])
    direct = (rng.standard_normal((count, n, heads))
              @ rng.normal(0.0, np.sqrt(1.0 / heads), (count, heads, K)))
    assert factored.shape == direct.shape == (count, n, K)
    for stat, variance in [(lambda z: z[:, 0, 0], 1.0), (lambda z: z[:, 2, K - 1], 1.0),
                           (lambda z: z[:, 0, 0] * z[:, 1, 0], 1.0 + 2.0 / heads),
                           (lambda z: z[:, 0, 0] * z[:, 0, 1], 1.0 + 2.0 / heads)]:
        _laws_agree(stat(factored), stat(direct))
        _moments_agree(stat(factored), 0.0, variance)
    _laws_agree((factored ** 2).sum(axis=(1, 2)), (direct ** 2).sum(axis=(1, 2)))


def _limit_checks_files_on(cpus, monkeypatch, out):
    """Bundle files of the reduced limit-checks as a process on ``cpus`` CPUs saves them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    bundle = rd.run_limit_checks(LIMIT_SMALL_CONFIG)
    bundle.save(out)
    return bundle, {f.name: f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}


def test_limit_checks_is_byte_identical_on_one_and_two_workers(monkeypatch, tmp_path):
    # the files do not depend on how many CPUs the process may use
    one, files_one = _limit_checks_files_on(1, monkeypatch, tmp_path / "one")
    _, files_two = _limit_checks_files_on(2, monkeypatch, tmp_path / "two")
    assert files_one and files_one == files_two
    # seed i's second moment is factor i of the "weight identity" stream over weight_M
    cfg = LIMIT_SMALL_CONFIG
    wm = cfg["weight_M"]
    L = _bartlett_reference(_flat_stream("weight identity"), cfg["weight_seeds"], wm, WEIGHT_K)
    errs = [np.linalg.norm(f @ f.T / wm - np.eye(WEIGHT_K)) for f in L]
    np.testing.assert_allclose(one.tables["weight_second_moment"].rows,
                               np.column_stack([np.arange(cfg["weight_seeds"]), errs]),
                               rtol=1e-12)


def test_limit_checks_pooled_statistics_read_one_stream_per_label():
    cfg = LIMIT_SMALL_CONFIG
    bundle = rd.run_limit_checks(cfg)
    s, K, n = cfg["rewmat_seeds"], EXPERIMENT_DEFAULTS["limit-checks"]["K"], 30
    # "reward matrix" holds the rewmat_seeds factors of 64 heads, then the (n, K) normals
    rng = _flat_stream("reward matrix")
    L = _bartlett_reference(rng, s, 64, K)
    z = L @ rng.standard_normal((s, n, K)).swapaxes(1, 2) / 8.0  # (s, K, n): Z^T
    rew_err, emp = _relative_covariance_error(z.swapaxes(1, 2), np.eye(n))
    assert bundle.tables["reward_matrix_covariance_error"].rows[0, 0] == rew_err
    # the limiting features are those same columns through psi: Psi emp Psi^T
    psi = rd.resolvent(chain_uniform().transition, 0.9)
    assert (bundle.tables["limit_covariance_empirical"].rows == psi @ emp @ psi.T).all()
    # and their pooled covariance, taken from the features themselves
    psi = _chain_resolvent()
    cov_err, features = _relative_covariance_error(psi @ z.swapaxes(1, 2), psi @ psi.T)
    np.testing.assert_allclose(bundle.tables["limit_covariance_error"].rows[0, 0],
                               cov_err, rtol=1e-10)
    np.testing.assert_allclose(bundle.tables["limit_covariance_empirical"].rows, features,
                               rtol=1e-10, atol=1e-12)


def test_limit_checks_starts_no_thread(monkeypatch):
    # the check values come from Bartlett factors on the calling thread, with no pool
    def no_pool(*args, **kwargs):
        raise AssertionError("limit-checks built a ThreadPoolExecutor")

    counts, frozen = [], flows.frozen_ensemble_flows

    def counted(*args, **kwargs):  # the thread count while the flows run
        counts.append(threading.active_count())
        return frozen(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(flows, "frozen_ensemble_flows", counted)
    before = threading.active_count()
    rd.run_limit_checks({**LIMIT_SMALL_CONFIG, "n_seeds": 2, "weight_seeds": 12})
    assert counts == [before, before] and threading.active_count() == before


def test_limit_checks_refuses_a_repeated_M_list_before_any_draw(monkeypatch):
    streams = []
    monkeypatch.setattr(experiments, "_stream", lambda *key: streams.append(key))
    with pytest.raises(ConfigurationError, match="M_list entries must be distinct"):
        rd.run_limit_checks({**LIMIT_SMALL_CONFIG, "M_list": (100, 100)})
    assert streams == []


def _limit_gap_chain_and_times():
    """limit-checks' zero-reward chain and the sample times of its gap flows."""
    return chain_uniform(0.9).with_reward(np.zeros(30)), np.linspace(0.0, 5.0, 26)


@pytest.mark.parametrize("M", [1, 3, 100])
def test_zero_reward_frozen_flow_sees_its_heads_only_through_their_gram_matrix(M):
    # the premise of limit-checks' factored gap heads: any factor F with F^T F = w^T w
    # gives the same flow, whether it has K rows (a symmetric root) or min(M, K) (QR's R)
    K = 4
    chain, times = _limit_gap_chain_and_times()
    phi0 = np.random.default_rng([M, 2]).standard_normal((30, K))
    w = flows.sample_weights(M, K, 1.0 / M, [M, 1])
    lam, V = np.linalg.eigh(w.T @ w)
    root = (V * np.sqrt(np.clip(lam, 0.0, None))) @ V.T
    heads = [w, root, np.linalg.qr(w, mode="r")]
    assert [h.shape[0] for h in heads] == [M, K, min(M, K)]
    paths = flows.frozen_ensemble_flows(
        chain, [flows.EnsembleState(phi0, h) for h in heads], 1.0, times)
    for member in (1, 2):
        np.testing.assert_allclose(paths[:, member], paths[:, 0], rtol=0, atol=1e-12)


def test_limit_checks_gap_heads_are_bartlett_factors_of_the_heads_stream():
    cfg = {**LIMIT_SMALL_CONFIG, "M_list": (3, 100, 1), "n_seeds": 2, "seed": 5}
    K = EXPERIMENT_DEFAULTS["limit-checks"]["K"]
    rows = rd.run_limit_checks(cfg).tables["trajectory_gaps"].rows
    chain, times = _limit_gap_chain_and_times()
    expected = []
    for i in range(cfg["n_seeds"]):
        phi0 = np.random.default_rng([5] + [ord(c) for c in "phi0"] + [i]).standard_normal((30, K))
        phi0 /= np.linalg.norm(phi0)
        limit = flows.ensemble_flow(chain, flows.EnsembleState(phi0, np.eye(K)), 1.0, 0.0, times)
        for m in cfg["M_list"]:
            # each M's heads: L^T / sqrt(M), L the Bartlett factor of the (seed, "heads", i, M) key
            key = [5] + [ord(c) for c in "heads"] + [i, m]
            heads = _bartlett_reference(np.random.default_rng(key), 1, m, K)[0].T / np.sqrt(m)
            finite = flows.ensemble_flow(chain, flows.EnsembleState(phi0, heads), 1.0, 0.0, times)
            gap = max(np.linalg.norm(s - ref) for s, ref in zip(finite.states, limit.states))
            expected.append([m, i, gap])
    np.testing.assert_allclose(rows, expected, rtol=1e-12)


def test_limit_checks_gap_cost_does_not_grow_with_the_head_count():
    # a Bartlett factor costs the same at any M; (10^12, 4) drawn heads would not fit in memory
    cfg = {**LIMIT_SMALL_CONFIG, "M_list": (100, 10**12), "n_seeds": 2}
    start = time.perf_counter()
    bundle = rd.run_limit_checks(cfg)
    assert time.perf_counter() - start < 1.0
    gaps = bundle.tables["trajectory_gaps"].rows[:, 2].reshape(cfg["n_seeds"], 2)
    assert (gaps[:, 1] < 1e-3 * gaps[:, 0]).all()  # the gap falls like 1/sqrt(M): by ~1e-5
    checks = {c.name: c for c in bundle.checks}
    assert checks["gap_shrinks_with_M_per_seed"].passed
    assert checks["largest_M_gap_below_tolerance"].passed


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
