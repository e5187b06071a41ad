"""Continuous-time learning flows: closed forms for frozen heads, RK4 for trained heads.

Value flows (one-step, n-step, lambda-return bootstrapping and Monte Carlo)
have exact matrix-exponential solutions and are evaluated in closed form.
The n-step and lambda-return flows step shared propagators, one matrix
exponential per distinct sample interval; one-step TD takes one exponential
from t = 0 per sample, and Monte Carlo a scalar exponential. Every flow that
is linear in Phi -- the joint and multi-head flows with frozen heads
(beta = 0), the multi-task head split and the infinite-head limits -- has the
form d/dt Phi = sum_i A_i Phi W_i + F and is evaluated exactly by one
augmented matrix exponential per distinct sample interval, one for all the K
columns of an infinite-head limit. With frozen heads the head weights enter
only through the K x K second moment W, so head counts in the tens of
thousands cost the same as a single head. Only trained heads
(beta > 0) make the flow bilinear; those are integrated with a fixed-step
classical Runge-Kutta scheme, preferring determinism over adaptivity. The
single-head ``joint_flow`` runs the ensemble flow's code with one head.
W^T(t) never leaves the span of the rows of W^T(0) and of the reward matrix
R, so the M heads are integrated as K x d heads W^T B, B an orthonormal basis
of that span with d <= min(M, K + rank R): trained heads, too, cost the same
at any head count.
RK4 steps the representation and the head weights packed into one float
array in state coordinates, for every P, through buffers allocated once per
flow; the right-hand side forms (G Phi) W^T with the dense G = gamma P - I.
Only zero-reward flows on an exactly symmetric P stop early: they settle once a
rounding bound proves that no later step can move Phi by a bit, and the heads
then take RK4's own amplification in closed form. Every other trained flow
computes every step of its grid.

Heads split evenly over tasks follow, as their number grows, the flow of one
averaged operator, ``build_multi_task_operator``: the mean of the task
operators gamma_i P_i - I, for any mix of policies and discounts.

Every flow returns a ``Trajectory`` whose states are one (T, n, K) array,
state t at ``states[t]``.

scipy is imported by the first ``matrix_exponential`` call, not by importing
this module: it is the largest part of a process's start-up, and the Monte
Carlo and trained-head flows never take an exponential.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, DivergenceError, NumericalError, check_array,
                     check_count, check_instance, check_real)
from .mdp import MarkovChain, exact_value
from .report import Table, float_reprs

DEFAULT_STEP = 1e-3
_DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states of a flow: one (T, n, K) array, K = 1 for value flows."""

    times: np.ndarray
    states: np.ndarray
    meta: dict

    def __post_init__(self):
        times = check_array("times", self.times, ("T",))
        states = check_array("states", self.states, (len(times), "n", "K"), finite=False)
        check_instance("meta", self.meta, dict)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def final(self) -> np.ndarray:
        return self.states[-1]

    def values(self) -> np.ndarray:
        """(T, n) array for value flows (K = 1)."""
        return self.states[:, :, 0]


@dataclass(frozen=True)
class EnsembleState:
    """Shared representation, per-head weights, optional per-head reward columns."""

    phi: np.ndarray
    weights: np.ndarray  # (M, K), one weight vector per head
    cumulants: np.ndarray | None = None  # (n, M), one reward vector per column

    def __post_init__(self):
        phi = check_array("phi", self.phi, ("n", "K"))
        weights = check_array("weights", self.weights, ("M", phi.shape[1]))
        if self.cumulants is not None:
            object.__setattr__(self, "cumulants", check_array(
                "cumulants", self.cumulants, (phi.shape[0], weights.shape[0])))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "weights", weights)

    @property
    def n_heads(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class LinearFlowSpec:
    """d/dt Phi = A Phi + B from phi0; fixed point -A^{-1} B when A is invertible."""

    A: np.ndarray
    B: np.ndarray
    phi0: np.ndarray

    def __post_init__(self):
        A = check_array("A", self.A, ("n", "n"))
        B = check_array("B", self.B, (A.shape[0], "K"))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "phi0", check_array("phi0", self.phi0, B.shape))


def matrix_exponential(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t A) by scaling-and-squaring; raises on non-finite input or overflow."""
    import scipy.linalg

    A = check_array("A", A, ("n", "n"), finite=False)
    t = check_real("t", t)
    if not np.all(np.isfinite(A)):
        raise NumericalError("matrix exponential of non-finite input")
    with np.errstate(over="ignore"):  # an overflow is reported below, as an error
        scaled = t * A
        out = scipy.linalg.expm(scaled) if np.all(np.isfinite(scaled)) else scaled
        if not np.all(np.isfinite(out)):
            raise NumericalError(f"matrix exponential overflowed at t = {t:.3e} "
                                 f"for ||A|| = {np.linalg.norm(A):.3e}")
    return out


def _value_flow(chain: MarkovChain, v0, times, decay: Callable, meta: dict) -> Trajectory:
    """Per-sample closed form V_t = V^pi + decay(t) (V_0 - V^pi); V_0 itself at t = 0.

    ``decay(t)`` is exp(t op) for the flow's operator op, as a matrix, or as a
    scalar when op = -I. Monte Carlo (a scalar) and one-step TD (one matrix
    exponential from t = 0 per sample) take this form; the n-step and
    lambda-return flows step shared propagators instead
    (``_stepped_value_flow``).
    """
    times = check_array("times", times, ("T",), increasing=True)
    v0 = check_array("v0", v0, (chain.n_states,))
    v_star = exact_value(chain)
    delta0 = v0 - v_star
    states = np.empty((len(times), len(v0), 1))
    for i, t in enumerate(times):
        states[i, :, 0] = v0 if t == 0.0 else v_star + np.dot(decay(t), delta0)
    return Trajectory(times=times, states=states, meta=meta)


def _stepped_value_flow(chain: MarkovChain, v0, times, op: np.ndarray, meta: dict) -> Trajectory:
    """V_t = V^pi + exp(t op)(V_0 - V^pi) as the affine flow V' = op V - op V^pi.

    One (n, 1) column block for ``_affine_path``: one matrix exponential per
    distinct sample interval, and V_0 itself at t = 0.
    """
    times = check_array("times", times, ("T",), increasing=True)
    v0 = check_array("v0", v0, (chain.n_states,))
    forcing = -(op @ exact_value(chain))
    states = _affine_path(op, forcing[:, None], v0[:, None], times)
    return Trajectory(times=times, states=states, meta=meta)


def td_value_flow(chain: MarkovChain, v0, times) -> Trajectory:
    """One-step bootstrapped value flow: V_t = exp(-t(I - gamma P))(V_0 - V^pi) + V^pi."""
    n = check_instance("chain", chain, MarkovChain).n_states
    op = -(np.eye(n) - chain.gamma * chain.transition)
    return _value_flow(chain, v0, times, lambda t: matrix_exponential(op, t),
                       {"flow": "td", "gamma": chain.gamma})


def mc_value_flow(chain: MarkovChain, v0, times) -> Trajectory:
    """Monte Carlo flow: plain exponential interpolation from V_0 to V^pi.

    The displacement V_t - V^pi stays parallel to V_0 - V^pi for all t; no
    transition structure enters the trajectory.
    """
    chain = check_instance("chain", chain, MarkovChain)
    return _value_flow(chain, v0, times, lambda t: np.exp(-t), {"flow": "mc", "gamma": chain.gamma})


def nstep_value_flow(chain: MarkovChain, n: int, v0, times) -> Trajectory:
    """n-step bootstrapped flow: V_t = exp(-t(I - (gamma P)^n))(V_0 - V^pi) + V^pi."""
    check_count("n", n)
    dim = check_instance("chain", chain, MarkovChain).n_states
    op = -(np.eye(dim) - np.linalg.matrix_power(chain.gamma * chain.transition, n))
    return _stepped_value_flow(chain, v0, times, op,
                               {"flow": "nstep", "n": n, "gamma": chain.gamma})


def td_lambda_series_operator(chain: MarkovChain, lam: float) -> np.ndarray:
    """(1-lambda) sum_{k>=1} lambda^{k-1} gamma^k P^k, summed exactly via a resolvent."""
    lam = check_real("lambda", lam, 0.0, 1.0, high_open=True)
    n = check_instance("chain", chain, MarkovChain).n_states
    gp = chain.gamma * chain.transition
    return (1.0 - lam) * gp @ np.linalg.solve(np.eye(n) - lam * gp, np.eye(n))


def td_lambda_value_flow(chain: MarkovChain, lam: float, v0, times) -> Trajectory:
    """Lambda-return flow: V_t = exp(t(S_lambda - I))(V_0 - V^pi) + V^pi."""
    op = td_lambda_series_operator(chain, lam) - np.eye(chain.n_states)
    return _stepped_value_flow(chain, v0, times, op,
                               {"flow": "td_lambda", "lambda": lam, "gamma": chain.gamma})


def _affine_path(G: np.ndarray, F: np.ndarray, X0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(T, m, c) array of X(t) of X' = G X + F at ``times``, starting from X(0) = X0.

    (X; I_c) follows the linear flow of the augmented generator [[G, F], [0, 0]]
    (Van Loan 1978), so each step between samples is one matrix exponential
    for all c columns; equal sample intervals share it.
    """
    m, c = X0.shape
    aug = np.zeros((m + c, m + c))
    aug[:m, :m] = G
    aug[:m, m:] = F
    x = np.vstack([X0, np.eye(c)])
    propagators = {}
    out = np.empty((len(times), m, c))
    t = 0.0
    for i, target in enumerate(times):
        dt = target - t
        if dt > 0.0:
            if dt not in propagators:
                propagators[dt] = matrix_exponential(aug, dt)
            with np.errstate(over="ignore", invalid="ignore"):  # reported below, as an error
                x = propagators[dt] @ x
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"flow overflowed at t = {target:.6g}")
        out[i] = x[:m]
        t = target
    return out


def _linear_flow(terms: list, forcing: np.ndarray, phi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact (T, n, K) states of d/dt Phi = sum_i A_i Phi W_i + F at ``times``; W_i symmetric.

    ``terms`` lists the (A_i, W_i) pairs. One term decouples in the eigenbasis
    of W into K column problems of size n + 1. Several terms act on vec(Phi)
    through the Kronecker generator sum_i W_i (x) A_i. A state at t = 0 is
    ``phi0`` itself.
    """
    n, k = phi0.shape
    if len(terms) == 1:
        (A, W), = terms
        omega, V = np.linalg.eigh(W)
        paths = [_affine_path(w * A, f[:, None], c[:, None], times)
                 for w, c, f in zip(omega, (phi0 @ V).T, (forcing @ V).T)]
        states = np.concatenate(paths, axis=-1) @ V.T
    else:
        G = sum(np.kron(W, A) for A, W in terms)
        path = _affine_path(G, forcing.T.reshape(-1, 1), phi0.T.reshape(-1, 1), times)
        states = path.reshape(-1, k, n).transpose(0, 2, 1)
    if times[0] == 0.0:
        states[0] = phi0
    return states


def _rk4_integrate(rhs: Callable, y0: np.ndarray, times: np.ndarray, step: float,
                   settle: Callable | None = None) -> tuple:
    """Classical RK4 with fixed step on one float array; sample times are hit exactly.

    ``rhs`` maps the state to a new array of the same shape. The state norm
    is monitored; exceeding 1e12, or a stage overflowing float64, raises
    DivergenceError with the time of blowup. Returns the (T, ...) sampled
    states and the number of steps computed. A step writes its stages, the
    sum k1 + 2 k2 + 2 k3 + k4 and the next state into buffers allocated
    once, with the operations of y + (h / 6)(k1 + 2 k2 + 2 k3 + k4) in that
    order.

    From t = 2^52 step on, ``t += h`` need not advance t in float64, so a
    horizon that far is a ConfigurationError. ``settle(y, moved)``, if given,
    sees each computed step's start and end and may return ``tail(y, counts)``,
    the state after counts[h] steps of each size h from y, which takes the rest
    uncounted. It is the only early exit, and only zero-reward flows on an exactly
    symmetric P get one: every other trained flow computes every step of its grid.
    """
    step = check_real("step", step, 0.0, low_open=True)
    if times[-1] >= 2.0 ** 52 * step:
        raise ConfigurationError(f"step {step:g} cannot reach the horizon t = {times[-1]:g}: "
                                 f"float64 time stops advancing at 2^52 steps")
    y = np.array(y0, dtype=float, order="C")  # BLAS rounds a transposed view differently
    moved, stage, total = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    path = np.empty((len(times),) + y.shape)
    t, steps, tail = 0.0, 0, None
    for i, target in enumerate(times):
        rest = {}  # this sample interval's step sizes and their counts, for the tail
        while t < target - 1e-12:
            h = min(step, target - t)
            t += h
            if tail is not None:
                rest[h] = rest.get(h, 0) + 1
                continue
            # a stage past float64's range is a divergence: the norm check below
            # sees the inf or NaN it leaves in the step's result
            with np.errstate(over="ignore", invalid="ignore"):
                k1 = rhs(y)
                np.add(y, np.multiply(0.5 * h, k1, out=stage), out=stage)
                k2 = rhs(stage)
                np.add(y, np.multiply(0.5 * h, k2, out=stage), out=stage)
                k3 = rhs(stage)
                np.add(y, np.multiply(h, k3, out=stage), out=stage)
                k4 = rhs(stage)
                np.add(k1, np.multiply(2.0, k2, out=total), out=total)
                total += np.multiply(2.0, k3, out=k3)
                total += k4
                np.add(y, np.multiply(h / 6.0, total, out=total), out=moved)
                norm = np.sqrt(np.vdot(moved, moved))
            steps += 1
            if not np.isfinite(norm) or norm > _DIVERGENCE_NORM:
                raise DivergenceError(f"flow diverged at t = {t:.6g}", time=t)
            tail = settle(y, moved) if settle else None
            y, moved = moved, y
        path[i] = y = tail(y, rest) if rest else y
    return path, steps


def _trained_heads_rhs(G: np.ndarray, rewards: np.ndarray, alpha: float, beta: float,
                       shapes: tuple) -> Callable:
    """Right-hand side of the trained-head flow on the packed state (Phi, W^T).

    ``shapes`` are those of Phi, (n, K), and of W^T, (K, d); rewards are
    (n, d) and G = gamma P - I. The TD errors are formed as (G Phi) W^T + R:
    n^2 K + n K d multiplications against n K d + n^2 d for G (Phi W^T), so
    the n x n product does not grow with d (64 for ``repdyn flow --flow rc``).
    A rate of exactly 1 is not applied, which leaves every bit unchanged.
    """
    (n, k), (_, d) = shapes
    split = n * k
    gphi, delta = np.empty((n, k)), np.empty((n, d))

    def rhs(y):
        phi, wmat = y[:split].reshape(n, k), y[split:].reshape(k, d)
        out = np.empty_like(y)
        dphi, dw = out[:split].reshape(n, k), out[split:].reshape(k, d)
        np.add(np.matmul(np.matmul(G, phi, out=gphi), wmat, out=delta), rewards, out=delta)
        np.matmul(delta, wmat.T, out=dphi)
        np.matmul(phi.T, delta, out=dw)
        if alpha != 1.0:
            dphi *= alpha
        if beta != 1.0:
            dw *= beta
        return out

    return rhs


def _zero_reward_settle(G: np.ndarray, alpha: float, beta: float, step: float, shape) -> Callable:
    """``_rk4_integrate``'s settle hook for zero-reward trained heads with a symmetric G.

    With Phi of ``shape`` (n, K), heads H and G = gamma P - I symmetric,
    d/dt Phi = alpha G Phi H H^T and d/dt H = A H, A = beta Phi^T G Phi =
    V diag(mu) V^T. After a computed step that left Phi bit for bit unchanged
    it settles if mu_max < 0, step |mu_min| <= 2.78, min |Phi| > 0 and
    12 step alpha ||G||_2 ||Phi||_2 ||H||_F^2 <= 2^-55 min |Phi|. While Phi is
    held, a step h <= step has stage heads p(hA) H, p = 1, 1 + z/2, 1 + z/2 +
    z^2/4 or 1 + z + z^2/2 + z^3/4, |p| <= 3.31 on RK4's stability interval
    [-2.785, 0]. So each increment of Phi, at most h alpha ||G||_2 ||Phi||_2
    (3.31 ||H||_F)^2, is below 2^-55 |Phi_ij|, half the distance to a rounding
    midpoint (12 / 3.31^2 spares rounding): Phi stays put. H advances by R(hA),
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, |R| <= 1 there, so ||H||_F never
    grows and the bound holds later on; the tail applies R(h mu) in V's basis.
    """
    n, k = shape
    split, held = n * k, [None]  # the last Phi's bytes, mu, V and the bound's two factors

    def settle(y, moved):
        phi = moved[:split]
        if not np.array_equal(phi, y[:split]):
            return None
        if held[0] != phi.tobytes():
            square, low = phi.reshape(n, k), np.abs(phi).min()
            mu, V = np.linalg.eigh(beta * (square.T @ (G @ square)))
            scale = 12.0 * step * alpha * np.linalg.norm(G, 2) * np.linalg.norm(square, 2)
            steady = mu[-1] < 0.0 and step * -mu[0] <= 2.78 and low > 0.0
            held[:] = phi.tobytes(), mu, V, scale, 2.0 ** -55 * low if steady else -1.0
        _, mu, V, scale, limit = held
        heads = moved[split:].reshape(k, -1)
        if scale * np.vdot(heads, heads) > limit:
            return None
        coef = V.T @ heads

        def tail(y, counts):
            for h, count in counts.items():
                z = h * mu[:, None]
                coef[:] *= (1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))) ** count
            return np.concatenate([y[:split], (V @ coef).ravel()])

        return tail

    return settle


def joint_flow(
    chain: MarkovChain,
    phi0: np.ndarray,
    w0: np.ndarray,
    alpha: float,
    beta: float,
    times,
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Semi-gradient joint flow on (Phi, w) for a single linear value head.

    d/dt Phi = alpha (R + gamma P Phi w - Phi w) w^T
    d/dt w   = beta  Phi^T (R + gamma P Phi w - Phi w)

    The bootstrap target is treated as a constant (no gradient flows through
    it); that convention is already baked into these right-hand sides.
    This is the one-head ``ensemble_flow`` and runs that flow's code: the
    closed form at beta = 0 (``step`` is unused), otherwise RK4, with ``meta``
    recording the steps it computed (``rk4_steps``) and ``rhs_evals``. States
    stack Phi over w: shape (T, n + 1, K) with the last row of each state w^T.
    """
    state0 = EnsembleState(phi0, check_array("w0", w0, ("K",))[None, :])
    traj, heads = _multi_head_flow(chain, state0, alpha, beta, times, step)
    kept = ("alpha", "beta", "gamma", "step", "rk4_steps", "rhs_evals")
    meta = {"flow": "joint", **{key: traj.meta[key] for key in kept if key in traj.meta}}
    states = np.concatenate([traj.states, heads.transpose(0, 2, 1)], axis=1)
    return Trajectory(times=traj.times, states=states, meta=meta)


def ensemble_flow(
    chain: MarkovChain,
    state0: EnsembleState,
    alpha: float,
    beta: float,
    times,
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Multi-head semi-gradient flow on a shared representation.

    d/dt Phi = alpha sum_m (r^m + gamma P Phi w^m - Phi w^m) (w^m)^T
    d/dt w^m = beta  Phi^T (r^m + gamma P Phi w^m - Phi w^m)

    Every head predicts from the same Phi; r^m is the chain's expected reward
    unless per-head cumulants are attached to ``state0``. With beta = 0 the
    weights are frozen and the Phi equation reduces to the linear flow
    alpha ((gamma P - I) Phi W + F) with W = sum_m w^m (w^m)^T and
    F = sum_m r^m (w^m)^T, evaluated in closed form at a head-count-free cost
    (``step`` is unused). Trained heads (beta > 0) are integrated with RK4
    on (Phi, W^T B), rewards R B, where B (M x d) is the Q factor of the
    reduced QR of [weights, r]: r is 1_M for a nonzero shared reward, the
    cumulants' transpose for nonzero cumulants, and absent for zero reward.
    W^T(t) stays in the row span of W^T(0) and R, so this equals RK4 on all M
    heads in exact arithmetic, at a cost that does not grow with M. ``meta``
    records the steps RK4 computed before any settled tail (``rk4_steps``),
    their ``rhs_evals``, d (``head_dim``) and ``invariant_drift``, the largest entry of
    |C(t) - C(0)| over the samples for C = beta Phi^T Phi - alpha H H^T,
    H = W^T B: C is constant along the exact flow, so its drift measures the
    integration error. Trajectory states are the (T, n, K) Phi path.

    ``DivergenceError`` is raised only once the state's norm passes 1e12. A
    step outside RK4's stability interval that does not get there returns a
    wrong flow without an error: on the uniform chain at zero reward, with
    step |mu| = 3 for the head mode, Phi moves by 6.2% where the exact flow
    holds it, and only ``invariant_drift`` (2.44) shows it.
    """
    return _multi_head_flow(chain, state0, alpha, beta, times, step)[0]


def _multi_head_flow(chain, state0: EnsembleState, alpha, beta, times, step) -> tuple:
    """``ensemble_flow``'s trajectory and (T, K, d) head path W^T B; B = [[1]] for one head.

    B is I_M for frozen heads and the RK4 basis for trained ones.
    """
    times = check_array("times", times, ("T",), increasing=True)
    alpha, beta = check_real("alpha", alpha, 0.0), check_real("beta", beta, 0.0)
    state0 = check_instance("state0", state0, EnsembleState)
    phi0, weights, rewards = state0.phi, state0.weights, state0.cumulants
    shared = rewards is None  # R = r 1_M^T
    if phi0.shape[0] != check_instance("chain", chain, MarkovChain).n_states:
        raise ConfigurationError("phi0 does not match the chain")
    meta = {"flow": "ensemble", "alpha": alpha, "beta": beta, "gamma": chain.gamma,
            "M": state0.n_heads, "step": step if beta > 0 else None, "cumulants": not shared}
    if beta == 0.0:
        forcing = np.outer(chain.reward, weights.sum(axis=0)) if shared else rewards @ weights
        op = alpha * (chain.gamma * chain.transition - np.eye(chain.n_states))
        states = _linear_flow([(op, weights.T @ weights)], alpha * forcing, phi0, times)
        heads = np.broadcast_to(weights.T, (len(times),) + weights.T.shape)
    else:
        reward_rows = np.ones((state0.n_heads, 1)) if shared else rewards.T
        nonzero = np.any(chain.reward) if shared else np.any(rewards)
        basis, _ = np.linalg.qr(np.hstack([weights, reward_rows]) if nonzero else weights)
        reduced = np.outer(chain.reward, basis.sum(axis=0)) if shared else rewards @ basis
        heads0, P = weights.T @ basis, chain.transition
        G = chain.gamma * P - np.eye(chain.n_states)
        symmetric = np.array_equal(P, P.T)  # A = beta Phi^T G Phi is symmetric: the rule's eigh
        settle = (_zero_reward_settle(G, alpha, beta, step, phi0.shape)
                  if symmetric and not nonzero else None)
        rhs = _trained_heads_rhs(G, reduced, alpha, beta, (phi0.shape, heads0.shape))
        path, steps = _rk4_integrate(rhs, np.concatenate([phi0.ravel(), heads0.ravel()]),
                                     times, step, settle)
        states = path[:, :phi0.size].reshape((len(times),) + phi0.shape)
        heads = path[:, phi0.size:].reshape((len(times),) + heads0.shape)
        # C = beta Phi^T Phi - alpha H H^T is constant along the exact flow
        invariant = (beta * np.matmul(states.transpose(0, 2, 1), states)
                     - alpha * np.matmul(heads, heads.transpose(0, 2, 1)))
        invariant0 = beta * phi0.T @ phi0 - alpha * heads0 @ heads0.T
        meta.update(rk4_steps=steps, rhs_evals=4 * steps, head_dim=basis.shape[1],
                    invariant_drift=float(np.abs(invariant - invariant0).max()))
    return Trajectory(times=times, states=states, meta=meta), heads


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed it rejects is a ConfigurationError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ConfigurationError(f"seed must be a nonnegative integer, a sequence of them "
                                 f"or a Generator, got {seed!r}") from None


def sample_weights(M: int, K: int, variance: float, seed) -> np.ndarray:
    """M independent N(0, variance I_K) head weights, deterministic per seed; rows are heads."""
    check_count("M", M)
    check_count("K", K)
    scale = np.sqrt(check_real("variance", variance, 0.0, low_open=True))
    return _rng(seed).normal(0.0, scale, size=(M, K))


def sample_block_orthogonal_weights(M: int, K: int, n_blocks: int, variance: float, seed) -> np.ndarray:
    """Head weights supported on disjoint coordinate blocks, task i on block i.

    Heads are assigned to blocks contiguously (head m to block ceil(m*L/M));
    K must divide into n_blocks equal parts.
    """
    check_count("M", M)
    check_count("K", K)
    if isinstance(n_blocks, numbers.Real) and (n_blocks < 1 or K % n_blocks or M % n_blocks):
        raise ConfigurationError("n_blocks must divide both K and M")
    check_count("n_blocks", n_blocks)  # 1.5 divides 3, and True divides every count
    scale = np.sqrt(check_real("variance", variance, 0.0, low_open=True))
    rng = _rng(seed)
    block = K // n_blocks
    w = np.zeros((M, K))
    per = M // n_blocks
    for i in range(n_blocks):
        rows = slice(i * per, (i + 1) * per)
        cols = slice(i * block, (i + 1) * block)
        w[rows, cols] = rng.normal(0.0, scale, size=(per, block))
    return w


def sample_cumulants(M: int, n: int, seed) -> np.ndarray:
    """M isotropic standard Gaussian reward vectors on n states; columns are heads."""
    check_count("M", M)
    check_count("n", n)
    return _rng(seed).standard_normal((n, M))


def linear_limit_flow(spec: LinearFlowSpec, times) -> Trajectory:
    """Closed form of d/dt Phi = A Phi + B, exact for any A, singular or unstable.

    All K columns share the generator A, so each distinct sample interval
    takes one matrix exponential for all of them. A state that overflows
    raises ``NumericalError``. Instantiates every infinite-head limit:
    A = -(I - gamma P) with B = 0 or a Gaussian forcing matrix, and the
    averaged operator of a multi-task head split (``build_multi_task_operator``).
    """
    times = check_array("times", times, ("T",), increasing=True)
    spec = check_instance("spec", spec, LinearFlowSpec)
    states = _affine_path(spec.A, spec.B, spec.phi0, times)
    return Trajectory(times=times, states=states, meta={"flow": "linear_limit"})


def build_multi_task_operator(chains: list) -> np.ndarray:
    """Averaged flow operator mean_i(gamma_i P_i) - I of heads split evenly over tasks.

    Tasks that share a discount give -(I - gamma P_bar), tasks that share a
    policy give -(I - gamma_bar P), and tasks may differ in both.
    """
    if not check_instance("chains", chains, list):
        raise ConfigurationError("need at least one chain")
    n = check_instance("chain", chains[0], MarkovChain).n_states
    if any(check_instance("chain", c, MarkovChain).n_states != n for c in chains):
        raise ConfigurationError("all chains must share the state space")
    return np.mean([c.gamma * c.transition for c in chains], axis=0) - np.eye(n)


def split_heads(M: int, L: int) -> np.ndarray:
    """Task index (0-based) per head for an even contiguous split: head m -> ceil(m L / M) - 1."""
    check_count("M", M)
    check_count("L", L)
    if M % L != 0:
        raise ConfigurationError("L must divide M")
    m = np.arange(1, M + 1)
    return np.ceil(m * L / M).astype(int) - 1


def multi_task_flow(
    chains: list,
    weights: np.ndarray,
    phi0: np.ndarray,
    times,
    *,
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Frozen-weight multi-head flow with heads split evenly over L tasks, zero reward.

    d/dt Phi = sum_i (gamma_i P_i - I) Phi W_i with W_i the second-moment
    matrix of task i's heads, evaluated in closed form. Reduces to the
    single-task frozen flow at L = 1. With head weights of variance 1/M,
    each W_i tends to I / L as M grows, and the flow to that of
    ``build_multi_task_operator(chains)``. ``step`` is unused; it stays in
    the signature because ``perfbench/tracer.py`` binds it by name.
    """
    times = check_array("times", times, ("T",), increasing=True)
    if not check_instance("chains", chains, list):
        raise ConfigurationError("need at least one chain")
    state0 = EnsembleState(phi0, weights)
    phi0, weights = state0.phi, state0.weights
    if any(check_instance("chain", c, MarkovChain).n_states != phi0.shape[0] for c in chains):
        raise ConfigurationError("phi0 must have one row per state of every chain")
    L = len(chains)
    M = weights.shape[0]
    assign = split_heads(M, L)
    ops = [c.gamma * c.transition - np.eye(c.n_states) for c in chains]
    Ws = [weights[assign == i].T @ weights[assign == i] for i in range(L)]
    states = _linear_flow(list(zip(ops, Ws)), np.zeros_like(phi0), phi0, times)
    meta = {"flow": "multi_task", "L": L, "M": M, "step": None}
    return Trajectory(times=times, states=states, meta=meta)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize a trajectory to CSV with '# key=value' meta header lines.

    Value flows (K = 1) take the wide format, the ``Table`` (t, v_0, ..., v_{n-1});
    matrix flows take the long format (t, entry_row, entry_col, value). A cell is Python's
    shortest round-trip ``repr`` of its float64, each distinct bit pattern formatted once per file.
    """
    traj = check_instance("traj", traj, Trajectory)
    header = "".join(f"# {key}={traj.meta[key]}\n" for key in sorted(traj.meta))
    count, n, k = traj.states.shape
    if k == 1:
        return header + Table(["t", *(f"v_{i}" for i in range(n))],
                              np.column_stack([traj.times, traj.values()])).to_csv()
    prefixes = np.array([f",{i},{j}," for i in range(n) for j in range(k)], dtype=object)
    rows = ["\n".join((row[0] + prefixes + row[1:]).tolist()) + "\n" for row in float_reprs(
        np.column_stack([traj.times, traj.states.reshape(count, n * k)]))]
    return "".join([header, "t,entry_row,entry_col,value\n", *rows])
