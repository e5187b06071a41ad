"""Exact tabular MDP construction, policy induction, evaluation and policy iteration.

Everything in this module is a pure function of immutable array data: kernels,
reward tables and policies are validated once at construction and never
mutated afterwards, so values are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigurationError, check_array, check_count, check_instance, check_real

_STOCHASTIC_TOL = 1e-12

# gridworld actions in index order: up, right, down, left
_GRID_MOVES = ((-1, 0), (0, 1), (1, 0), (0, -1))


def _check_rows_stochastic(mat: np.ndarray, what: str) -> None:
    if np.any(mat < -_STOCHASTIC_TOL):
        raise ConfigurationError(f"{what} has negative entries")
    err = np.abs(mat.sum(axis=-1) - 1.0).max()
    if not err <= _STOCHASTIC_TOL:
        raise ConfigurationError(f"{what} rows must sum to 1 (max deviation {err:.3e})")


@dataclass(frozen=True)
class Mdp:
    """Finite MDP: kernel[x, a, x'] transition probabilities, reward[x, a] expectations."""

    kernel: np.ndarray
    reward: np.ndarray

    def __post_init__(self):
        kernel = check_array("kernel", self.kernel, ("n", "a", "n"))
        _check_rows_stochastic(kernel, "kernel")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "reward", check_array("reward", self.reward, kernel.shape[:2]))

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    @property
    def n_actions(self) -> int:
        return self.kernel.shape[1]


@dataclass(frozen=True)
class Policy:
    """Stochastic policy as a row-stochastic matrix probs[x, a]."""

    probs: np.ndarray

    def __post_init__(self):
        probs = check_array("probs", self.probs, ("n", "a"))
        _check_rows_stochastic(probs, "policy")
        object.__setattr__(self, "probs", probs)

    @staticmethod
    def uniform(n_states: int, n_actions: int) -> "Policy":
        check_count("n_states", n_states)
        check_count("n_actions", n_actions)
        return Policy(np.full((n_states, n_actions), 1.0 / n_actions))

    @staticmethod
    def deterministic(actions, n_actions: int) -> "Policy":
        check_count("n_actions", n_actions)
        actions = check_array("actions", actions, ("n",))
        if np.any(actions != np.round(actions)) or np.any((actions < 0) | (actions >= n_actions)):
            raise ConfigurationError(
                f"actions must be a 1-d array of integer indices in 0..{n_actions - 1}, "
                f"got {actions}")
        actions = actions.astype(int)
        probs = np.zeros((actions.shape[0], n_actions))
        probs[np.arange(actions.shape[0]), actions] = 1.0
        return Policy(probs)


@dataclass(frozen=True)
class MarkovChain:
    """Policy-induced chain: transition matrix, expected reward vector, discount."""

    transition: np.ndarray
    reward: np.ndarray
    gamma: float

    def __post_init__(self):
        transition = check_array("transition", self.transition, ("n", "n"))
        _check_rows_stochastic(transition, "transition")
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "reward", check_array("reward", self.reward, transition.shape[:1]))
        object.__setattr__(self, "gamma", check_real("gamma", self.gamma, 0.0, 1.0, high_open=True))

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def with_reward(self, reward) -> "MarkovChain":
        """Same chain with the reward vector replaced (e.g. zeroed for reward-free runs)."""
        return MarkovChain(self.transition, reward, self.gamma)


@dataclass(frozen=True)
class PolicyIterationTrace:
    policies: list = field(default_factory=list)
    values: list = field(default_factory=list)
    converged: bool = False

    def __len__(self) -> int:
        return len(self.policies)


def build_chain_mdp(n: int, slip: float, left_reward: float, right_reward: float) -> Mdp:
    """Chain of ``n`` states with actions left=0 / right=1.

    The intended move happens with probability 1 - slip; with probability slip
    a uniformly random action is executed instead. Moving off either end keeps
    the agent in place. Taking left in state 0 pays ``left_reward``, right in
    state n-1 pays ``right_reward``; every other expected reward is zero.
    """
    check_count("n", n)
    if n < 2:
        raise ConfigurationError(f"chain needs at least 2 states, got {n}")
    slip = check_real("slip", slip, 0.0, 1.0)
    kernel = np.zeros((n, 2, n))
    reward = np.zeros((n, 2))
    for x in range(n):
        targets = (max(x - 1, 0), min(x + 1, n - 1))
        for a in range(2):
            for b in range(2):
                p = (1.0 - slip) * (a == b) + slip * 0.5
                kernel[x, a, targets[b]] += p
    reward[0, 0] = check_real("left_reward", left_reward)
    reward[n - 1, 1] = check_real("right_reward", right_reward)
    return Mdp(kernel, reward)


def gridworld_from_map(text: str) -> tuple[Mdp, Policy, list]:
    """Build a 4-action gridworld from a plain-text map ('#' wall, '.' open).

    Moves that would enter a wall or leave the grid keep the agent in place;
    all rewards are zero. Returns the MDP, the uniform-random policy, and the
    list of (row, col) coordinates of the open cells in state-index order.
    """
    rows = [line for line in check_instance("text", text, str).splitlines() if line.strip()]
    if not rows:
        raise ConfigurationError("empty map")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigurationError("map rows must have equal length")
    bad = sorted(set("".join(rows)) - {"#", "."})
    if bad:
        raise ConfigurationError(f"map may only contain '#' and '.', found {bad}")
    coords = [(i, j) for i, row in enumerate(rows) for j, c in enumerate(row) if c == "."]
    if not coords:
        raise ConfigurationError("map has no open cells")
    index = {c: s for s, c in enumerate(coords)}
    n = len(coords)
    kernel = np.zeros((n, 4, n))
    for (i, j), s in index.items():
        for a, (di, dj) in enumerate(_GRID_MOVES):
            target = index.get((i + di, j + dj), s)
            kernel[s, a, target] = 1.0
    mdp = Mdp(kernel, np.zeros((n, 4)))
    return mdp, Policy.uniform(n, 4), coords


def four_rooms_map() -> str:
    """The versioned 11x11 four-rooms map shipped with the package.

    105 open cells: four rooms in a pinwheel arrangement joined by four
    single-cell doorways, plus one dead-end niche at (7, 5) next to the wall
    crossing (an 11x11 grid with full dividing walls and four doorways would
    leave 104 cells, so one extra wall cell is open by design).
    """
    return resources.files("repdyn.maps").joinpath("four_rooms_11x11.txt").read_text()


def build_four_rooms() -> tuple[Mdp, Policy]:
    """Four-rooms gridworld (105 reachable cells) with its uniform-random policy."""
    mdp, policy, _ = gridworld_from_map(four_rooms_map())
    return mdp, policy


def four_rooms_coords() -> list:
    """State-index -> (row, col) mapping for the shipped four-rooms map."""
    _, _, coords = gridworld_from_map(four_rooms_map())
    return coords


def build_two_state_mdp(stay_prob_a: float, stay_prob_b: float, rewards) -> tuple[Mdp, Policy]:
    """Single-action two-state MDP with given self-transition probabilities."""
    stay_prob_a = check_real("stay_prob_a", stay_prob_a, 0.0, 1.0)
    stay_prob_b = check_real("stay_prob_b", stay_prob_b, 0.0, 1.0)
    kernel = np.array(
        [
            [[stay_prob_a, 1.0 - stay_prob_a]],
            [[1.0 - stay_prob_b, stay_prob_b]],
        ]
    )
    reward = check_array("rewards", rewards, ("n",))
    if reward.size != 2:
        raise ConfigurationError(f"rewards must hold one entry per state (2), got {reward.size}")
    return Mdp(kernel, reward.reshape(2, 1)), Policy(np.ones((2, 1)))


def induce(mdp: Mdp, policy: Policy, gamma: float) -> MarkovChain:
    """Mix the kernel and reward table through a policy: P[x, x'] = sum_a pi[x, a] K[x, a, x']."""
    mdp, policy = check_instance("mdp", mdp, Mdp), check_instance("policy", policy, Policy)
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ConfigurationError(
            f"policy shape {policy.probs.shape} does not match MDP "
            f"({mdp.n_states}, {mdp.n_actions})"
        )
    transition = np.einsum("xa,xay->xy", policy.probs, mdp.kernel)
    reward = np.einsum("xa,xa->x", policy.probs, mdp.reward)
    return MarkovChain(transition, reward, gamma)


def exact_value(chain: MarkovChain) -> np.ndarray:
    """Solve (I - gamma P) V = R directly."""
    n = check_instance("chain", chain, MarkovChain).n_states
    value = np.linalg.solve(np.eye(n) - chain.gamma * chain.transition, chain.reward)
    return value


def greedy_policy(mdp: Mdp, value: np.ndarray, gamma: float) -> Policy:
    """Deterministic argmax_a [R(x,a) + gamma sum_x' K(x,a,x') V(x')], ties to the lowest index."""
    value = check_array("value", value, (check_instance("mdp", mdp, Mdp).n_states,))
    q = mdp.reward + check_real("gamma", gamma) * np.einsum("xay,y->xa", mdp.kernel, value)
    return Policy.deterministic(np.argmax(q, axis=1), mdp.n_actions)


def policy_iteration(mdp: Mdp, gamma: float, max_iters: int, init: Policy) -> PolicyIterationTrace:
    """Alternate exact evaluation and greedy improvement until the policy repeats.

    The trace records every (policy, value) pair including the initial policy;
    ``converged`` is true iff the greedy step reproduced the current policy
    before ``max_iters`` was exhausted.
    """
    check_count("max_iters", max_iters)
    policies = [init]
    values = [exact_value(induce(mdp, init, gamma))]
    converged = False
    for _ in range(max_iters):
        improved = greedy_policy(mdp, values[-1], gamma)
        if np.array_equal(improved.probs, policies[-1].probs):
            converged = True
            break
        policies.append(improved)
        values.append(exact_value(induce(mdp, improved, gamma)))
    return PolicyIterationTrace(policies=policies, values=values, converged=converged)

