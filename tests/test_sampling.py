import numpy as np
import pytest
import scipy.stats

import repdyn as rd
from repdyn.errors import ConfigurationError


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


def test_sample_cumulants_zero_sigma_and_determinism():
    zeros = rd.sample_cumulants(8, np.zeros((6, 6)), 1)
    np.testing.assert_array_equal(zeros, np.zeros((6, 8)))
    a = rd.sample_cumulants(8, np.eye(6), 2)
    b = rd.sample_cumulants(8, np.eye(6), 2)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ConfigurationError):
        rd.sample_cumulants(8, -np.eye(6), 3)


def test_sample_cumulants_covariance():
    rng = np.random.default_rng(4)
    root = rng.standard_normal((8, 8))
    sigma = root @ root.T / 8 + 0.5 * np.eye(8)
    draws = rd.sample_cumulants(100000, sigma, 5)
    emp = draws @ draws.T / draws.shape[1]
    rel = np.linalg.norm(emp - sigma) / np.linalg.norm(sigma)
    assert rel < 0.05


def test_reward_weight_product_columns_have_covariance_sigma():
    # sum_m r^m (w^m)^T has independent columns with covariance sigma
    n, K, M = 12, 4, 64
    sigma = np.eye(n)
    cols = []
    for seed in range(2000):
        r = rd.sample_cumulants(M, sigma, [6, seed])
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


NAN = float("nan")
CHAIN = rd.MarkovChain(np.eye(2), np.zeros(2), 0.9)


@pytest.mark.parametrize("make", [
    lambda: rd.sample_weights(4, 2, NAN, 0),
    lambda: rd.sample_weights(4, 2, float("inf"), 0),
    lambda: rd.sample_weights(4, 2, 0.0, 0),
    lambda: rd.sample_block_orthogonal_weights(4, 2, 2, -1.0, 0),
    lambda: rd.sample_block_orthogonal_weights(4, 2, 2, NAN, 0),
    lambda: rd.sample_block_orthogonal_weights(4, 2, 0, 1.0, 0),
    lambda: rd.sample_cumulants(3, np.full((2, 2), NAN), 0),
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
], ids=["weights-nan-variance", "weights-inf-variance", "weights-zero-variance",
        "block-negative-variance", "block-nan-variance", "block-zero-blocks",
        "cumulants-nan-sigma", "spec-nan-A", "spec-inf-B", "spec-nan-phi0",
        "td-nan-v0", "mc-inf-v0", "ensemble-nan-phi", "ensemble-inf-weights",
        "ensemble-nan-cumulants", "joint-nan-phi0", "joint-inf-w0", "angle-nan-vector"])
def test_sampling_and_flow_specs_reject_non_finite_inputs(make):
    with pytest.raises(ConfigurationError, match="finite|divide"):
        make()
