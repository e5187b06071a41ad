import numpy as np
import pytest
import scipy.stats

import repdyn as rd
from repdyn.errors import ConfigurationError
from repdyn.experiments import frozen_ensemble_span
from repdyn.svg import emit_svg


def test_sample_weights_deterministic_per_seed():
    a = rd.sample_weights(100, 5, 0.01, 42)
    b = rd.sample_weights(100, 5, 0.01, 42)
    np.testing.assert_array_equal(a, b)
    c = rd.sample_weights(100, 5, 0.01, 43)
    assert np.abs(a - c).max() > 0


def test_sample_weights_second_moment_identity():
    # sum_m w^m (w^m)^T concentrates on the identity at variance 1/M
    w = rd.sample_weights(100000, 10, 1e-5, 0)
    assert np.linalg.norm(w.T @ w - np.eye(10)) <= 0.05


def test_sample_weights_sum_is_standard_gaussian():
    # ||sum_m w^m|| over seeds follows a chi distribution with K dof
    K, M = 5, 10000
    norms = [np.linalg.norm(rd.sample_weights(M, K, 1.0 / M, seed).sum(axis=0))
             for seed in range(200)]
    stat = scipy.stats.kstest(norms, scipy.stats.chi(K).cdf)
    assert stat.pvalue > 0.01


def test_sample_cumulants_deterministic_per_seed():
    a = rd.sample_cumulants(8, 6, 2)
    assert a.shape == (6, 8)
    np.testing.assert_array_equal(a, rd.sample_cumulants(8, 6, 2))
    assert np.abs(a - rd.sample_cumulants(8, 6, 3)).max() > 0


def test_sample_cumulants_covariance():
    # columns are isotropic: mean zero, covariance I
    draws = rd.sample_cumulants(100000, 8, 5)
    assert np.abs(draws.mean(axis=1)).max() < 0.02
    emp = draws @ draws.T / draws.shape[1]
    assert np.linalg.norm(emp - np.eye(8)) / np.sqrt(8) < 0.05


def test_reward_weight_product_columns_have_covariance_sigma():
    # sum_m r^m (w^m)^T has independent columns with covariance sigma
    n, K, M = 12, 4, 64
    sigma = np.eye(n)
    cols = []
    for seed in range(2000):
        r = rd.sample_cumulants(M, n, [6, seed])
        w = rd.sample_weights(M, K, 1.0 / M, [7, seed])
        cols.append((r @ w).T)
    pooled = np.concatenate(cols)
    emp = pooled.T @ pooled / pooled.shape[0]
    assert np.linalg.norm(emp - sigma) / np.linalg.norm(sigma) < 0.10


def test_block_orthogonal_weights_have_disjoint_support():
    w = rd.sample_block_orthogonal_weights(8, 4, 2, 0.5, 0)
    assert np.abs(w[:4, 2:]).max() == 0.0
    assert np.abs(w[4:, :2]).max() == 0.0
    assert np.abs(w[:4, :2]).min() > 0.0
    with pytest.raises(ConfigurationError):
        rd.sample_block_orthogonal_weights(8, 5, 2, 0.5, 0)


@pytest.mark.parametrize("M, K, n_blocks", [(1, 1, 1), (64, 4, 2), (1000, 10, 5)])
@pytest.mark.parametrize("variance", [1e-10, 1.0 / 64, 1.0, 7.5])
def test_head_draws_are_generator_normal_draws_bit_for_bit(M, K, n_blocks, variance):
    # the reference is Generator.normal(0.0, scale, size), which computes 0.0 + scale z
    scale = np.sqrt(variance)
    reference = np.random.default_rng(9).normal(0.0, scale, size=(M, K))
    assert rd.sample_weights(M, K, variance, 9).tobytes() == reference.tobytes()
    rng, rows, cols = np.random.default_rng(9), M // n_blocks, K // n_blocks
    blocks = np.zeros((M, K))
    for i in range(n_blocks):
        blocks[i * rows:(i + 1) * rows, i * cols:(i + 1) * cols] = rng.normal(
            0.0, scale, size=(rows, cols))
    drawn = rd.sample_block_orthogonal_weights(M, K, n_blocks, variance, 9)
    assert drawn.tobytes() == blocks.tobytes()


NAN = float("nan")
CHAIN = rd.MarkovChain(np.eye(2), np.zeros(2), 0.9)
CHAIN_MDP = rd.build_chain_mdp(3, 0.1, 1.0, 2.0)


@pytest.mark.parametrize("make", [
    lambda: rd.sample_weights(4, 2, NAN, 0),
    lambda: rd.sample_weights(4, 2, float("inf"), 0),
    lambda: rd.sample_weights(4, 2, 0.0, 0),
    lambda: rd.sample_block_orthogonal_weights(4, 2, 2, -1.0, 0),
    lambda: rd.sample_block_orthogonal_weights(4, 2, 2, NAN, 0),
    lambda: rd.sample_block_orthogonal_weights(4, 2, 0, 1.0, 0),
    lambda: rd.LinearFlowSpec(np.full((2, 2), NAN), np.zeros((2, 1)), np.ones((2, 1))),
    lambda: rd.LinearFlowSpec(-np.eye(2), np.full((2, 1), np.inf), np.ones((2, 1))),
    lambda: rd.LinearFlowSpec(-np.eye(2), np.zeros((2, 1)), np.full((2, 1), NAN)),
    lambda: rd.td_value_flow(CHAIN, [NAN, 0.0], [0.0, 1.0]),
    lambda: rd.mc_value_flow(CHAIN, [np.inf, 0.0], [0.0, 1.0]),
    lambda: rd.EnsembleState(np.full((2, 1), NAN), np.ones((1, 1))),
    lambda: rd.EnsembleState(np.ones((2, 1)), np.full((1, 1), np.inf)),
    lambda: rd.EnsembleState(np.ones((2, 1)), np.ones((1, 1)), np.full((2, 1), NAN)),
    lambda: rd.joint_flow(CHAIN, np.full((2, 1), NAN), [1.0], 1.0, 1.0, [0.0, 1.0]),
    lambda: rd.joint_flow(CHAIN, np.ones((2, 1)), [np.inf], 1.0, 1.0, [0.0, 1.0]),
    lambda: rd.vector_subspace_angle(np.array([NAN, 0.0]), rd.orthonormalize(np.eye(2)[:, :1])),
    lambda: rd.multi_task_flow([CHAIN, CHAIN], np.full((4, 1), NAN), np.ones((2, 1)), [0.0, 1.0]),
    lambda: rd.multi_task_flow([CHAIN, CHAIN], np.ones((4, 1)), np.full((2, 1), NAN), [0.0, 1.0]),
    lambda: rd.greedy_policy(CHAIN_MDP, np.full(3, NAN), 0.9),
    lambda: rd.greedy_policy(CHAIN_MDP, np.zeros(3), NAN),
], ids=["weights-nan-variance", "weights-inf-variance", "weights-zero-variance",
        "block-negative-variance", "block-nan-variance", "block-zero-blocks",
        "spec-nan-A", "spec-inf-B", "spec-nan-phi0",
        "td-nan-v0", "mc-inf-v0", "ensemble-nan-phi", "ensemble-inf-weights",
        "ensemble-nan-cumulants", "joint-nan-phi0", "joint-inf-w0", "angle-nan-vector",
        "multi-task-nan-weights", "multi-task-nan-phi0", "greedy-nan-value", "greedy-nan-gamma"])
def test_sampling_and_flow_specs_reject_non_finite_inputs(make):
    with pytest.raises(ConfigurationError, match="finite|divide"):
        make()


E1 = rd.Subspace(np.eye(3)[:, :1])


@pytest.mark.parametrize("make, match", [
    (lambda: rd.sample_weights(-1, 2, 1.0, 0), "M must be an integer of at least 1"),
    (lambda: rd.sample_weights(4, 0, 1.0, 0), "K must be an integer of at least 1"),
    (lambda: rd.sample_block_orthogonal_weights(4, 0, 2, 1.0, 0),
     "K must be an integer of at least 1"),
    (lambda: rd.sample_cumulants(-1, 2, 0), "M must be an integer of at least 1"),
    (lambda: rd.split_heads(4, 0), "L must be an integer of at least 1"),
    (lambda: rd.nstep_value_flow(CHAIN, 2.5, [0.0, 0.0], [0.0, 1.0]),
     "n must be an integer of at least 1"),
    (lambda: rd.grassmann_distance(E1, rd.Subspace(np.eye(4)[:, :1])),
     "different ambient dimensions"),
    (lambda: rd.vector_subspace_angle(np.ones(4), E1),
     r"v must be a non-empty array of shape \(3,\), got shape \(4,\)"),
    (lambda: rd.EnsembleState(np.ones(2), np.ones((1, 1))),
     r"phi must be a non-empty array of shape \(n, K\)"),
    (lambda: rd.orthonormalize(np.zeros((3, 0))), r"M must be a non-empty array of shape \(n, K\)"),
    (lambda: rd.ebf(np.diag([0.9, 0.5, 0.1]), 1.5), "K must be an integer of at least 1"),
    (lambda: rd.ebf(np.diag([0.9, 0.5, 0.1]), True), "K must be an integer of at least 1"),
    (lambda: rd.rsbf(np.diag([0.9, 0.5, 0.1]), 0.9, 1.5), "K must be an integer of at least 1"),
    (lambda: rd.joint_flow(CHAIN, np.ones(2), [1.0], 1.0, 1.0, [0.0, 1.0]),
     r"phi must be a non-empty array of shape \(n, K\)"),
    (lambda: rd.EnsembleState(np.ones((2, 1)), np.ones((1, 1, 1))),
     r"weights must be a non-empty array of shape \(M, 1\)"),
    (lambda: rd.LinearFlowSpec(-np.eye(2), np.zeros((2, 1, 1)), np.ones((2, 1, 1))),
     r"B must be a non-empty array of shape \(2, K\)"),
    (lambda: rd.Subspace(np.zeros((3, 0))),
     r"basis must be a non-empty array of shape \(n, K\), got shape \(3, 0\)"),
    (lambda: rd.Policy.deterministic(np.array([5, 0]), 2), r"indices in 0\.\.1"),
    (lambda: rd.Policy.deterministic(np.array([-1, 0]), 2), r"indices in 0\.\.1"),
    (lambda: rd.Policy.deterministic(np.array([1.7, 0.2]), 2), r"integer indices in 0\.\.1"),
    (lambda: rd.run_bayes_optimality({"K": 2.0}), "K must be an integer"),
    (lambda: rd.run_four_rooms_features({"K": 2.5}), "K must be an integer"),
    (lambda: rd.run_two_state({"gamma": "0.9"}),
     r"gamma must be a finite real number in \(-inf, inf\), got '0.9'"),
    (lambda: rd.run_limit_checks({"M_list": 100}), "M_list must be a tuple or list, got int"),
    (lambda: rd.run_multi_task({"mixes": 0.5}), "mixes must be a tuple or list, got float"),
    (lambda: rd.build_chain_mdp(2.5, 0.01, 2.0, 1.0), "n must be an integer of at least 1"),
    (lambda: rd.policy_iteration(CHAIN_MDP, 0.9, 2.5, rd.Policy.uniform(3, 2)),
     "max_iters must be an integer of at least 1"),
    (lambda: rd.sample_block_orthogonal_weights(3, 3, 1.5, 1.0, 0),
     "n_blocks must be an integer of at least 1"),
    (lambda: rd.sample_block_orthogonal_weights(4, 2, True, 1.0, 0),
     "n_blocks must be an integer of at least 1"),
    (lambda: rd.sample_block_orthogonal_weights(4, 2, "2", 1.0, 0),
     "n_blocks must be an integer of at least 1"),
    (lambda: rd.Policy.deterministic(np.array([0, 1]), 2.5),
     "n_actions must be an integer of at least 1"),
    (lambda: rd.Policy.uniform(2.5, 2), "n_states must be an integer of at least 1"),
    (lambda: rd.Policy.uniform(2, 0), "n_actions must be an integer of at least 1"),
    (lambda: rd.sample_weights(4, 2, 1.0, -1), "seed must be a nonnegative integer"),
    (lambda: rd.sample_cumulants(4, 2, -1), "seed must be a nonnegative integer"),
    (lambda: rd.sample_block_orthogonal_weights(4, 2, 2, 1.0, 1.5),
     "seed must be a nonnegative integer"),
    (lambda: rd.run_two_state([]), "config must be a Mapping, got list"),
    (lambda: rd.run_two_state("x"), "config must be a Mapping, got str"),
    (lambda: rd.run_two_state(np.ones(2)), "config must be a Mapping, got ndarray"),
    (lambda: rd.run_limit_checks({"M_list": ()}), r"M_list must hold at least one entry, got \(\)"),
    (lambda: rd.run_multi_task({"mixes": (), "discounts": ()}),
     r"mixes must hold at least one entry, got \(\)"),
    (lambda: rd.run_two_state({"v0": []}), "unknown config key 'v0'"),
    (lambda: rd.build_two_state_mdp(0.9, 0.1, (1.0, 2.0, 3.0)),
     r"rewards must hold one entry per state \(2\), got 3"),
    (lambda: rd.ensemble_flow(CHAIN, rd.EnsembleState(np.ones((3, 1)), np.ones((1, 1))),
                              1.0, 0.0, [0.0, 1.0]), "phi0 does not match the chain"),
    (lambda: frozen_ensemble_span(np.array([[0.5, 0.5], [0.9, 0.1]]), 0.9, np.ones((1, 1)),
                                  np.ones((2, 1)), 1.0), "requires symmetric P"),
    (lambda: rd.Mdp(np.array([[[1.5, -0.5]], [[0.0, 1.0]]]), np.zeros((2, 1))),
     "kernel has negative entries"),
    (lambda: rd.gridworld_from_map(""), "empty map"),
    (lambda: rd.rsbf(np.diag([0.9, 0.5, 0.1]), 0.9, 4), r"K must lie in 1\.\.3, got 4"),
    (lambda: emit_svg(np.ones(3), "gridworld"), "gridworld rendering needs coords and shape"),
    (lambda: emit_svg(np.ones(3), "gridworld", coords=[(0, 0), (0, 1)], shape=(2, 2)),
     "vector length 3 does not match 2 cells"),
    (lambda: emit_svg(np.ones((3, 1)), "line"),
     "line rendering needs an abscissa and at least one curve"),
], ids=["weights-negative-M", "weights-zero-K", "block-zero-K", "cumulants-negative-M",
        "split-zero-tasks", "nstep-fractional-n", "grassmann-ambient-mismatch",
        "angle-length-mismatch", "ensemble-1d-phi", "orthonormalize-no-columns",
        "ebf-fractional-K", "ebf-bool-K",
        "rsbf-fractional-K", "joint-1d-phi0", "ensemble-3d-weights", "spec-3d-B-phi0",
        "subspace-no-columns", "deterministic-action-too-large", "deterministic-action-negative",
        "deterministic-action-fractional",
        "config-float-for-int", "config-fraction-for-int", "config-string-for-float",
        "config-scalar-for-tuple", "config-scalar-for-task-list", "chain-fractional-n",
        "policy-iteration-fractional-max-iters", "block-fractional-blocks", "block-bool-blocks",
        "block-string-blocks", "deterministic-fractional-actions", "uniform-fractional-states",
        "uniform-zero-actions", "weights-negative-seed", "cumulants-negative-seed",
        "block-fractional-seed", "config-list", "config-string", "config-array",
        "config-empty-M_list", "config-empty-mixes", "config-empty-v0",
        "two-state-three-rewards", "ensemble-phi0-off-the-chain", "span-non-symmetric-P",
        "mdp-negative-kernel", "gridworld-empty-map", "rsbf-K-above-n", "svg-gridworld-no-coords",
        "svg-gridworld-length-mismatch", "svg-line-one-column"])
def test_bad_counts_and_shapes_raise_configuration_errors(make, match):
    with pytest.raises(ConfigurationError, match=match):
        make()
