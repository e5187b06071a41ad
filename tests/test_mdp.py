import numpy as np
import pytest

import repdyn as rd
from repdyn.errors import ConfigurationError


def value_iteration_oracle(chain, sweeps=10000):
    """Independent fixed-point oracle: V <- R + gamma P V."""
    v = np.zeros(chain.n_states)
    for _ in range(sweeps):
        v = chain.reward + chain.gamma * chain.transition @ v
    return v


def test_chain_mdp_shapes_and_end_rewards():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    assert m.n_states == 30 and m.n_actions == 2
    assert m.reward[0, 0] == 2.0
    assert m.reward[29, 1] == 1.0
    assert np.count_nonzero(m.reward) == 2


def test_chain_mdp_deterministic_two_state():
    m = rd.build_chain_mdp(2, 0.0, 0.0, 0.0)
    # every kernel row is one-hot
    for x in range(2):
        for a in range(2):
            row = m.kernel[x, a]
            assert sorted(row) == [0.0, 1.0]


def test_chain_mdp_slip_mixture_interior():
    # slip resamples the action uniformly: P(intended) = 1 - slip + slip/2
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    x = 10
    assert m.kernel[x, 0, x - 1] == pytest.approx(0.995, abs=1e-15)
    assert m.kernel[x, 0, x + 1] == pytest.approx(0.005, abs=1e-15)
    assert m.kernel[x, 1, x + 1] == pytest.approx(0.995, abs=1e-15)


def test_chain_mdp_invalid_inputs():
    with pytest.raises(ConfigurationError):
        rd.build_chain_mdp(1, 0.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        rd.build_chain_mdp(10, 1.5, 0.0, 0.0)


def test_four_rooms_has_105_states_and_stochastic_walk():
    rooms, policy = rd.build_four_rooms()
    assert rooms.n_states == 105
    chain = rd.induce(rooms, policy, 0.9)
    np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)
    # top eigenvalue 1 with constant eigenvector
    values, vectors = np.linalg.eig(chain.transition)
    top = np.argmax(values.real)
    assert values[top].real == pytest.approx(1.0, abs=1e-10)
    direction = np.real(vectors[:, top])
    assert np.abs(direction - direction.mean()).max() < 1e-8


def test_four_rooms_walk_is_reachable_everywhere():
    rooms, policy = rd.build_four_rooms()
    chain = rd.induce(rooms, policy, 0.9)
    hops = np.linalg.matrix_power(chain.transition + np.eye(105), 105)
    assert np.all(hops > 0)


def test_gridworld_map_rejects_bad_text():
    with pytest.raises(ConfigurationError):
        rd.gridworld_from_map("..\n.")
    with pytest.raises(ConfigurationError):
        rd.gridworld_from_map("..x\n...")


def test_gridworld_wall_bump_stays_in_place():
    m, _, coords = rd.gridworld_from_map("..\n.#")
    corner = coords.index((0, 0))
    # moving up or left from the top-left corner stays put
    assert m.kernel[corner, 0, corner] == 1.0
    assert m.kernel[corner, 3, corner] == 1.0


def test_two_state_defaults_match_value_iteration_oracle():
    m, policy = rd.build_two_state_mdp(0.9, 0.1, (1.0, 0.0))
    chain = rd.induce(m, policy, 0.9)
    v = rd.exact_value(chain)
    np.testing.assert_allclose(v, value_iteration_oracle(chain), atol=1e-10)


def test_two_state_absorbing():
    m, policy = rd.build_two_state_mdp(1.0, 1.0, (0.0, 0.0))
    chain = rd.induce(m, policy, 0.5)
    np.testing.assert_array_equal(chain.transition, np.eye(2))


def test_induce_uniform_symmetric_two_state():
    kernel = np.zeros((2, 2, 2))
    kernel[:, 0] = [[1, 0], [1, 0]]  # action 0: go to state 0
    kernel[:, 1] = [[0, 1], [0, 1]]  # action 1: go to state 1
    m = rd.Mdp(kernel, np.zeros((2, 2)))
    chain = rd.induce(m, rd.Policy.uniform(2, 2), 0.9)
    np.testing.assert_allclose(chain.transition, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_induce_deterministic_policy_selects_kernel_rows():
    m = rd.build_chain_mdp(5, 0.1, 1.0, 1.0)
    policy = rd.Policy.deterministic(np.array([0, 1, 0, 1, 0]), 2)
    chain = rd.induce(m, policy, 0.9)
    for x, a in enumerate([0, 1, 0, 1, 0]):
        np.testing.assert_array_equal(chain.transition[x], m.kernel[x, a])


def test_induced_chain_rows_sum_to_one():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        probs = rng.dirichlet(np.ones(2), size=30)
        chain = rd.induce(m, rd.Policy(probs), 0.9)
        np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)


def test_induce_dimension_mismatch():
    m = rd.build_chain_mdp(5, 0.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        rd.induce(m, rd.Policy.uniform(4, 2), 0.9)


def test_exact_value_zero_reward_and_myopic():
    m = rd.build_chain_mdp(10, 0.05, 0.0, 0.0)
    chain = rd.induce(m, rd.Policy.uniform(10, 2), 0.9)
    np.testing.assert_array_equal(rd.exact_value(chain), np.zeros(10))
    m2 = rd.build_chain_mdp(10, 0.05, 3.0, 2.0)
    chain2 = rd.induce(m2, rd.Policy.uniform(10, 2), 0.0)
    np.testing.assert_allclose(rd.exact_value(chain2), chain2.reward, atol=1e-14)


def test_exact_value_matches_value_iteration_on_chain():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    chain = rd.induce(m, rd.Policy.uniform(30, 2), 0.9)
    v = rd.exact_value(chain)
    assert np.abs(v - value_iteration_oracle(chain)).max() < 1e-8


def test_exact_value_bellman_residual():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    for left in (1.0, 0.5, 0.25):
        probs = np.column_stack([np.full(30, left), np.full(30, 1 - left)])
        chain = rd.induce(m, rd.Policy(probs), 0.9)
        v = rd.exact_value(chain)
        residual = v - (chain.reward + 0.9 * chain.transition @ v)
        assert np.abs(residual).max() <= 1e-10


def test_greedy_policy_myopic_and_tie_break():
    m = rd.build_chain_mdp(6, 0.0, 2.0, 1.0)
    greedy = rd.greedy_policy(m, np.zeros(6), 0.0)
    # interior rewards are all zero: tie broken toward action 0
    assert np.array_equal(np.argmax(greedy.probs, axis=1)[1:-1], np.zeros(4))
    assert np.argmax(greedy.probs[0]) == 0  # +2 beats nothing
    assert np.argmax(greedy.probs[-1]) == 1


def test_greedy_policy_follows_value_gradient():
    # value concentrated on the left end: interior states prefer moving left
    m = rd.build_chain_mdp(10, 0.0, 0.0, 0.0)
    value = np.linspace(5.0, 0.0, 10)
    q = m.reward + 0.9 * np.einsum("xay,y->xa", m.kernel, value)
    expected = np.argmax(q, axis=1)
    greedy = rd.greedy_policy(m, value, 0.9)
    assert np.array_equal(np.argmax(greedy.probs, axis=1), expected)
    assert np.all(np.argmax(greedy.probs, axis=1)[1:] == 0)


def test_greedy_policy_shift_invariant():
    m = rd.build_chain_mdp(12, 0.02, 2.0, 1.0)
    rng = np.random.default_rng(1)
    value = rng.normal(size=12)
    a = rd.greedy_policy(m, value, 0.9)
    b = rd.greedy_policy(m, value + 17.3, 0.9)
    np.testing.assert_array_equal(a.probs, b.probs)


def test_policy_iteration_on_optimal_init_converges_immediately():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    warmup = rd.policy_iteration(m, 0.9, 50, rd.Policy.deterministic(np.ones(30, int), 2))
    assert warmup.converged
    restart = rd.policy_iteration(m, 0.9, 50, warmup.policies[-1])
    assert restart.converged and len(restart) == 1


def test_policy_iteration_values_nondecreasing():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    init = rd.Policy.deterministic(np.zeros(30, int), 2)
    trace = rd.policy_iteration(m, 0.9, 50, init)
    assert trace.converged
    for older, newer in zip(trace.values, trace.values[1:]):
        assert np.all(newer >= older - 1e-10)


def test_policy_iteration_trace_is_consistent():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    trace = rd.policy_iteration(m, 0.9, 50, rd.Policy.deterministic(np.ones(30, int), 2))
    assert len(trace.policies) == len(trace.values) >= 2
    for policy, value in zip(trace.policies, trace.values):
        expected = rd.exact_value(rd.induce(m, policy, 0.9))
        np.testing.assert_allclose(value, expected, atol=1e-12)


def test_mdp_json_round_trip():
    m = rd.build_chain_mdp(7, 0.03, 2.0, 1.0)
    text = rd.mdp_to_json(m)
    back = rd.mdp_from_json(text)
    np.testing.assert_array_equal(back.kernel, m.kernel)
    np.testing.assert_array_equal(back.reward, m.reward)


def test_four_rooms_map_file_geometry():
    text = rd.four_rooms_map()
    rows = [r for r in text.splitlines() if r.strip()]
    assert len(rows) == 11 and all(len(r) == 11 for r in rows)
    assert sum(r.count(".") for r in rows) == 105


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: rd.Mdp(np.full((2, 1, 2), NAN), np.zeros((2, 1))),
    lambda: rd.Policy(np.array([[NAN, 1.0], [0.5, 0.5]])),
    lambda: rd.MarkovChain(np.array([[1.0, 0.0], [NAN, NAN]]), np.zeros(2), 0.9),
    lambda: rd.MarkovChain(np.eye(2), np.array([0.0, NAN]), 0.9),
    lambda: rd.MarkovChain(np.zeros((0, 0)), np.zeros(0), 0.9),
    lambda: rd.gridworld_from_map("#"),
    lambda: rd.resolvent(np.full((2, 2), NAN), 0.9),
    lambda: rd.ebf(np.array([[1.0, np.inf], [0.0, 1.0]]), 1),
    lambda: rd.orthonormalize(np.full((3, 1), NAN)),
], ids=["mdp-nan-kernel", "policy-nan-probs", "chain-nan-transition", "chain-nan-reward",
        "chain-empty", "map-without-open-cells", "resolvent-nan-P",
        "ebf-inf-P", "orthonormalize-nan"])
def test_nan_and_empty_inputs_raise_configuration_errors(make):
    with pytest.raises(ConfigurationError, match="finite|empty|open cells"):
        make()
