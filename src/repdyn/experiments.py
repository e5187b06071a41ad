"""Scripted desk-scale experiments producing ReportBundles.

Each runner takes a config dict (unknown keys rejected), derives every random
draw from the recorded seed through named substreams, and emits CSV tables,
SVG figures and pass/fail checks with their thresholds. Re-running a bundle
from its own config reproduces the tables byte for byte.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping

import numpy as np

from . import flows, mdp, spectral
from .errors import ConfigurationError, NumericalError, check_instance, check_real
from .report import ReportBundle
from .svg import emit_svg

CHAIN_N = 30
CHAIN_SLIP = 0.01
CHAIN_LEFT_REWARD = 2.0
CHAIN_RIGHT_REWARD = 1.0
MC_BLOCK = 8192  # Monte Carlo draws (rows or columns) held at once


_ENTRY_KINDS = {  # type of a default (or of its elements) -> accepted type, in words
    int: (numbers.Integral, "an integer", "integers"),
    float: (numbers.Real, "a real number", "real numbers"),
    str: (str, "a string", "strings"),
}


def _finalize_config(defaults: dict, config: dict | None) -> dict:
    """``defaults`` overridden by ``config`` (None or a mapping), checked entry by entry.

    Each entry takes its default's type: an int entry an integral value, a
    float entry any real, a string entry a string, and a tuple entry a tuple
    or list of its default's element type (a rerun reads tuples back from
    ``config.json`` as lists); a bool is neither an integer nor a real. Every
    int entry (also inside a tuple) other than ``seed`` is a count and must be
    at least 1; ``seed`` must be nonnegative; every float must be finite.
    """
    merged = dict(defaults)
    config = {} if config is None else check_instance("config", config, Mapping)
    for key, value in config.items():
        if key not in defaults:
            raise ConfigurationError(
                f"unknown config key {key!r}; known keys: {sorted(defaults)}"
            )
        merged[key] = value
    for key, value in merged.items():
        sequence = isinstance(defaults[key], tuple)
        kind, one, many = _ENTRY_KINDS[type(defaults[key][0] if sequence else defaults[key])]
        entries = value if sequence else (value,)
        if sequence != isinstance(value, (tuple, list)) or not all(
                isinstance(x, kind) and not isinstance(x, bool) for x in entries):
            raise ConfigurationError(
                f"{key} must be {'a tuple or list of ' + many if sequence else one}, "
                f"got {value!r}")
        for x in entries:
            if kind is numbers.Integral and key == "seed" and x < 0:
                raise ConfigurationError(f"seed must be nonnegative, got {value!r}")
            if kind is numbers.Integral and key != "seed" and x < 1:
                raise ConfigurationError(f"{key} must be at least 1, got {value!r}")
            if kind is numbers.Real and not math.isfinite(x):
                raise ConfigurationError(f"{key} must be finite, got {value!r}")
    return merged


def _stream(seed: int, label: str, *extra) -> np.random.Generator:
    """Independent substream keyed by (seed, label, indices); order of use is irrelevant."""
    digest = [seed] + [ord(c) for c in label] + [int(x) for x in extra]
    return np.random.default_rng(digest)


def _chain_mdp() -> mdp.Mdp:
    return mdp.build_chain_mdp(CHAIN_N, CHAIN_SLIP, CHAIN_LEFT_REWARD, CHAIN_RIGHT_REWARD)


def _mix_policy(n: int, left_prob: float) -> mdp.Policy:
    return mdp.Policy(np.column_stack([np.full(n, left_prob), np.full(n, 1.0 - left_prob)]))


def chain_uniform(gamma: float = 0.9) -> mdp.MarkovChain:
    """Uniform-policy chain: the reflecting random walk with a clean real spectrum."""
    return mdp.induce(_chain_mdp(), _mix_policy(CHAIN_N, 0.5), gamma)


def chain_drift(gamma: float = 0.9, left_prob: float = 1.0) -> mdp.MarkovChain:
    """Drifting-policy chain: large top spectral gap (1 - lambda_2 ~ 0.86 at left_prob=1)."""
    left_prob = check_real("left_prob", left_prob, 0.0, 1.0)
    return mdp.induce(_chain_mdp(), _mix_policy(CHAIN_N, left_prob), gamma)


def _normalized_phi0(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    g = rng.standard_normal((n, k))
    return g / np.linalg.norm(g)


def _mgs_longdouble(B: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt (two passes) in extended precision; returns float64 Q."""
    B = B.astype(np.longdouble)
    norms = np.sqrt((B * B).sum(axis=0))
    B = B / norms
    Q = np.zeros_like(B)
    for k in range(B.shape[1]):
        v = B[:, k]
        for _ in range(2):
            for m in range(k):
                v = v - (Q[:, m] @ v) * Q[:, m]
        Q[:, k] = v / np.sqrt(v @ v)
    return Q.astype(np.float64)


def frozen_ensemble_span(
    P: np.ndarray, gamma: float, weights: np.ndarray, phi0: np.ndarray, t: float
) -> spectral.Subspace:
    """Column span of the frozen-head flow solution at time t, extracted stably.

    For symmetric P the flow d/dt Phi = (gamma P - I) Phi W solves exactly in
    the product eigenbasis of P and W = sum_m w^m (w^m)^T:
    coefficients scale by exp(-t (1 - gamma lambda_i) omega_j). The mode
    amplitudes at the times where the leading subspace has separated span many
    orders of magnitude, so the span is extracted after a span-preserving
    column rescaling, in extended precision.
    """
    P = np.asarray(P, dtype=float)
    if np.abs(P - P.T).max() > 1e-12:
        raise ConfigurationError("closed-form span extraction requires symmetric P")
    lam, U = np.linalg.eigh(P)
    order = np.argsort(-lam, kind="stable")
    lam, U = lam[order], U[:, order]
    rates = 1.0 - gamma * lam
    W = weights.T @ weights
    om, V = np.linalg.eigh((W + W.T) / 2.0)
    coeff = U.T @ phi0 @ V
    # rescale column j by exp(+t * rates_min * om_j): pure column operation
    expo = -t * np.outer(rates - rates.min(), om).astype(np.longdouble)
    B = coeff.astype(np.longdouble) * np.exp(expo)
    Q = _mgs_longdouble(B)
    gram_err = np.abs(Q.T @ Q - np.eye(Q.shape[1])).max()
    if not gram_err <= 1e-10:
        raise NumericalError(
            f"frozen-head span at horizon t = {t:g} is beyond extended precision: its basis "
            f"is not orthonormal (max deviation {gram_err:.3e})")
    return spectral.Subspace(U @ Q)


# ---------------------------------------------------------------------------
# two-state value-flow geometry
# ---------------------------------------------------------------------------

TWO_STATE_DEFAULTS = {
    "stay_prob_a": 0.9,
    "stay_prob_b": 0.1,
    "rewards": (1.0, 0.0),
    "gamma": 0.9,
    "v0": (2.0, -1.0),
    "t_max": 180.0,
    "seed": 0,
}


def run_two_state(config: dict | None = None) -> ReportBundle:
    """Bootstrapped vs Monte Carlo value paths in the two-state value plane.

    The Monte Carlo path is a straight line toward the fixed point; the
    bootstrapped path curves and its late displacement aligns with the top
    transition mode.
    """
    cfg = _finalize_config(TWO_STATE_DEFAULTS, config)
    bundle = ReportBundle("two-state", dict(cfg))
    two_mdp, policy = mdp.build_two_state_mdp(
        cfg["stay_prob_a"], cfg["stay_prob_b"], cfg["rewards"]
    )
    chain = mdp.induce(two_mdp, policy, cfg["gamma"])
    v_star = mdp.exact_value(chain)
    v0 = np.asarray(cfg["v0"], dtype=float)

    t_max = check_real("t_max", cfg["t_max"], 9.0, low_open=True)  # the late grid starts at 9
    times = np.concatenate([np.linspace(0.0, 8.0, 81), np.linspace(9.0, t_max, 172)])
    td = flows.td_value_flow(chain, v0, times)
    mc = flows.mc_value_flow(chain, v0, times)

    for label, traj in (("td_path", td), ("mc_path", mc)):
        vals = traj.values()
        bundle.add_table(label, ["t", "v_0", "v_1"], np.column_stack([traj.times, vals]))
        bundle.figures[label] = emit_svg(vals, "line", title=f"{label} in the value plane")
    bundle.add_table("fixed_point", ["v_0", "v_1"], v_star[None, :])

    top_mode = spectral.ebf(chain.transition, 1)
    d0 = v0 - v_star
    start_line = spectral.orthonormalize(d0[:, None])
    # collinearity is measurable only while the displacement stays resolvable
    # above the rounding floor of v*; beyond that the recovered direction is
    # pure float noise
    floor = 1e-3 * (1.0 + np.linalg.norm(v_star))
    mc_angles = [
        spectral.vector_subspace_angle(s[:, 0] - v_star, start_line)
        for s in mc.states[1:]
        if np.linalg.norm(s[:, 0] - v_star) > floor
    ]
    td_final_angle = spectral.vector_subspace_angle(td.final()[:, 0] - v_star, top_mode)

    bundle.add_check("td_endpoint_near_fixed_point", np.abs(td.final()[:, 0] - v_star).max(),
                     1e-6, table="td_path")
    bundle.add_check("mc_endpoint_near_fixed_point", np.abs(mc.final()[:, 0] - v_star).max(),
                     1e-6, table="mc_path")
    bundle.add_check("mc_path_collinear", max(mc_angles), 1e-10, table="mc_path")
    bundle.add_check("td_final_angle_to_top_mode", td_final_angle, 1e-2, table="td_path")
    return bundle


# ---------------------------------------------------------------------------
# four-rooms feature evolution
# ---------------------------------------------------------------------------

FOUR_ROOMS_DEFAULTS = {
    "K": 10,
    "M": 20,
    "t_max": 100.0,
    "beta_mode": "trained",  # "trained" or "fixed"
    "alpha": 1.0,
    "gamma": 0.9,
    "step": 0.01,
    "seed": 0,
    "snapshot_times": (0.0, 25.0, 50.0, 75.0, 100.0),
    "check_M": 200,
    "check_t": 300.0,
    "subspace_tol": 0.1,
    "m1_drift_tol": 0.05,
}


def run_four_rooms_features(config: dict | None = None) -> ReportBundle:
    """Feature evolution of a multi-head learner on the four-rooms walk.

    Integrates the multi-head flow (all rewards zero), renders feature column
    0 on the grid at snapshot times next to two reference eigenfunctions, and
    tracks the projection of each feature onto every transition eigenfunction
    over time. A frozen-head variant at a head count well above K checks that
    the feature span lands on the leading eigenfunction subspace; a single
    head leaves the features nearly untouched.
    """
    cfg = _finalize_config(FOUR_ROOMS_DEFAULTS, config)
    if not 1 <= cfg["K"] <= 105:
        raise ConfigurationError("K must lie between 1 and the 105 four-rooms states")
    t_max = check_real("t_max", cfg["t_max"], 0.0, low_open=True)
    check_t = check_real("check_t", cfg["check_t"], 0.0)
    bundle = ReportBundle("four-rooms", dict(cfg))
    rooms, policy = mdp.build_four_rooms()
    coords = mdp.four_rooms_coords()
    chain = mdp.induce(rooms, policy, cfg["gamma"])
    n, K = rooms.n_states, cfg["K"]

    lam, U = np.linalg.eigh(chain.transition)
    order = np.argsort(-lam, kind="stable")
    lam, U = lam[order], U[:, order]

    rng = _stream(cfg["seed"], "phi0")
    phi0 = rng.standard_normal((n, K))
    weights = flows.sample_weights(cfg["M"], K, 1.0 / cfg["M"], _stream(cfg["seed"], "heads"))
    beta = 1.0 if cfg["beta_mode"] == "trained" else 0.0
    if cfg["beta_mode"] not in ("trained", "fixed"):
        raise ConfigurationError("beta_mode must be 'trained' or 'fixed'")

    snapshots = [check_real("snapshot_times", t, 0.0) for t in cfg["snapshot_times"]]
    sample_times = np.unique(np.concatenate(
        [snapshots, np.arange(0.0, t_max + 1e-9, 1.0)]))
    traj = flows.ensemble_flow(
        chain, flows.EnsembleState(phi0, weights), cfg["alpha"], beta, sample_times, cfg["step"]
    )

    for t_snap in cfg["snapshot_times"]:
        idx = int(np.argmin(np.abs(sample_times - t_snap)))
        col = traj.states[idx, :, 0]
        bundle.figures[f"feature0_t{t_snap:g}"] = emit_svg(
            col, "gridworld", coords=coords, shape=(11, 11),
            title=f"feature 0 at t={t_snap:g}",
        )
    bundle.figures["eigenfunction_5"] = emit_svg(
        U[:, 4], "gridworld", coords=coords, shape=(11, 11), title="eigenfunction 5")
    bundle.figures["eigenfunction_105"] = emit_svg(
        U[:, -1], "gridworld", coords=coords, shape=(11, 11), title="eigenfunction 105")

    # dot products of each feature with every eigenfunction over time
    proj = U.T @ traj.states  # (T, n_eig, K)
    for k in range(K):
        cols = ["t"] + [f"u{i + 1}" for i in range(n)]
        bundle.add_table(f"projections_feature{k}", cols,
                         np.column_stack([sample_times, proj[:, :, k]]))
    bundle.figures["projections_feature0"] = emit_svg(
        np.column_stack([sample_times, proj[:, :, 0]]), "line",
        title="feature 0 projections onto eigenfunctions")

    bundle.add_check("t0_snapshot_matches_seeded_init", np.abs(traj.states[0] - phi0).max(),
                     0.0, comparison="<=", table="projections_feature0")

    # frozen-head variant, M >> K: feature span vs leading eigenfunction span
    w_check = flows.sample_weights(
        cfg["check_M"], K, 1.0 / cfg["check_M"], _stream(cfg["seed"], "check heads"))
    span = frozen_ensemble_span(chain.transition, cfg["gamma"], w_check, phi0, check_t)
    d_span = spectral.grassmann_distance(span, spectral.ebf(chain.transition, K)).distance
    bundle.add_table("frozen_head_span", ["M", "t", "distance"],
                     np.array([[cfg["check_M"], cfg["check_t"], d_span]]))
    bundle.add_check("frozen_head_span_near_ebf", d_span, cfg["subspace_tol"],
                     table="frozen_head_span")

    # single-head variant: features barely move
    w1 = flows.sample_weights(1, K, 1.0, _stream(cfg["seed"], "single head"))
    traj1 = flows.ensemble_flow(
        chain, flows.EnsembleState(phi0, w1), cfg["alpha"], 1.0,
        np.array([0.0, t_max]), cfg["step"],
    )
    drift = np.linalg.norm(traj1.final() - phi0) / np.linalg.norm(phi0)
    bundle.add_table("single_head_drift", ["relative_change"], np.array([[drift]]))
    bundle.add_check("single_head_features_stay_fixed", drift, cfg["m1_drift_tol"],
                     table="single_head_drift")
    return bundle


# ---------------------------------------------------------------------------
# chain transfer across the improvement path
# ---------------------------------------------------------------------------

CHAIN_TRANSFER_DEFAULTS = {
    "K": 4,
    "gamma": 0.9,
    "J_max": 25,
    "seed": 0,
    "init_policy": "right",  # "left", "right" or "uniform"
}


def run_chain_transfer(config: dict | None = None) -> ReportBundle:
    """Feature transfer across the policy-improvement path of the reward chain.

    Policy iteration yields policies pi_1..pi_J with values V_1..V_J. For each
    pi_j three K-dimensional feature sets are built from its induced chain
    (eigen features, resolvent singular features, random features) and the
    angle between V_j' and each feature span is tabulated over all (j, j'),
    with and without V_j appended to the feature set.
    """
    cfg = _finalize_config(CHAIN_TRANSFER_DEFAULTS, config)
    bundle = ReportBundle("chain-transfer", dict(cfg))
    chain_mdp = _chain_mdp()
    n, K = CHAIN_N, cfg["K"]

    if cfg["init_policy"] == "uniform":
        init = mdp.Policy.uniform(n, 2)
    elif cfg["init_policy"] in ("left", "right"):
        init = mdp.Policy.deterministic(
            np.full(n, 0 if cfg["init_policy"] == "left" else 1), 2)
    else:
        raise ConfigurationError("init_policy must be 'left', 'right' or 'uniform'")

    trace = mdp.policy_iteration(chain_mdp, cfg["gamma"], cfg["J_max"], init)
    J = len(trace)
    values = trace.values
    bundle.add_matrix("values", np.stack(values), prefix="v")
    bundle.add_table("policy_iteration", ["J", "converged"],
                     np.array([[float(J), float(trace.converged)]]))

    feature_sets = {"ebf": [], "rsbf": [], "rf": []}
    for j, policy in enumerate(trace.policies):
        chain = mdp.induce(chain_mdp, policy, cfg["gamma"])
        feature_sets["ebf"].append(spectral.ebf(chain.transition, K))
        feature_sets["rsbf"].append(spectral.rsbf(chain.transition, cfg["gamma"], K))
        g = _stream(cfg["seed"], "random features", j).standard_normal((n, K))
        feature_sets["rf"].append(spectral.orthonormalize(g))

    def angle_table(features, with_value: bool) -> np.ndarray:
        a = np.zeros((J, J))
        for j in range(J):
            basis = features[j].basis
            if with_value:
                basis = spectral.orthonormalize(
                    np.column_stack([basis, values[j]])).basis
            sub = spectral.Subspace(basis)
            for jp in range(J):
                a[j, jp] = spectral.vector_subspace_angle(values[jp], sub)
        return a

    off_diag = ~np.eye(J, dtype=bool)
    means = {}
    for name, feats in feature_sets.items():
        table = angle_table(feats, with_value=False)
        bundle.add_matrix(f"angles_{name}", table, prefix="j")
        bundle.figures[f"angles_{name}"] = emit_svg(table, "heatmap",
                                                    title=f"{name} transfer angles")
        means[name] = table[off_diag].mean()
        if name == "rsbf":
            rsbf_angles = table
        table_v = angle_table(feats, with_value=True)
        bundle.add_matrix(f"angles_{name}_with_value", table_v, prefix="j")
        bundle.figures[f"angles_{name}_with_value"] = emit_svg(
            table_v, "heatmap", title=f"{name}+value transfer angles")
        bundle.add_check(f"{name}_with_value_diagonal", table_v.diagonal().max(), 1e-8,
                         table=f"angles_{name}_with_value")

    bundle.add_table("mean_offdiagonal_angles", sorted(means),
                     np.array([[means[k] for k in sorted(means)]]))
    bundle.add_check("rsbf_transfers_better_than_random", means["rsbf"] - means["rf"], 0.0,
                     table="mean_offdiagonal_angles")

    # monotonicity of transfer difficulty with policy distance, reported per row
    mono = []
    for j in range(J):
        dist = np.abs(np.arange(J) - j)[off_diag[j]]
        ang = rsbf_angles[j][off_diag[j]]
        mono.append(float(np.corrcoef(dist, ang)[0, 1]) if len(set(dist)) > 1 else 0.0)
    bundle.add_table("rsbf_row_distance_correlation", ["row", "corr"],
                     np.column_stack([np.arange(J), mono]))
    frac = float(np.mean(np.asarray(mono) > 0))
    bundle.add_check("rsbf_angle_grows_with_policy_distance", frac, 0.5, comparison=">=",
                     table="rsbf_row_distance_correlation")
    return bundle


# ---------------------------------------------------------------------------
# infinite-head limit checks
# ---------------------------------------------------------------------------

LIMIT_CHECKS_DEFAULTS = {
    "M_list": (100, 10000),
    "n_seeds": 20,
    "K": 4,
    "gamma": 0.9,
    "t_max": 5.0,
    "n_gap_samples": 26,
    "gap_tol": 0.02,          # absolute gate at the largest M
    "cov_seeds": 2000,
    "cov_tol": 0.10,
    "weight_M": 100000,
    "weight_K": 10,
    "weight_seeds": 20,
    "weight_tol": 0.05,
    "rewmat_seeds": 2000,
    "rewmat_M": 64,
    "rewmat_tol": 0.10,
    "seed": 0,
}


def run_limit_checks(config: dict | None = None) -> ReportBundle:
    """Finite-head convergence to the infinite-head flow, plus the Gaussian limits.

    Measures the sup-Frobenius gap between the frozen-head flow (zero reward,
    head variance 1/M) and exp(-t(I - gamma P)) Phi_0 on [0, t_max] across
    seeds and head counts; checks the 1/sqrt(M) decay by per-seed comparison
    across M and an absolute gate at the largest M. Also verifies the
    second-moment identity sum_m w^m (w^m)^T -> I, the reward-weight product
    limit covariance, and the limiting feature covariance Psi Psi^T.
    """
    cfg = _finalize_config(LIMIT_CHECKS_DEFAULTS, config)
    if cfg["n_gap_samples"] < 2:  # at t = 0 alone every gap is 0 and their ratios are 0/0
        raise ConfigurationError(f"n_gap_samples must be at least 2, got {cfg['n_gap_samples']}")
    bundle = ReportBundle("limit-checks", dict(cfg))
    K = cfg["K"]
    chain = chain_uniform(cfg["gamma"]).with_reward(np.zeros(CHAIN_N))
    times = np.linspace(0.0, check_real("t_max", cfg["t_max"], 0.0, low_open=True),
                        cfg["n_gap_samples"])
    op = cfg["gamma"] * chain.transition - np.eye(CHAIN_N)

    m_list = [int(m) for m in cfg["M_list"]]
    rows = []
    gaps = {}
    for i in range(cfg["n_seeds"]):
        phi0 = _normalized_phi0(_stream(cfg["seed"], "phi0", i), CHAIN_N, K)
        limits = flows.linear_limit_flow(
            flows.LinearFlowSpec(op, np.zeros_like(phi0), phi0), times).states
        for m in m_list:
            w = flows.sample_weights(m, K, 1.0 / m, _stream(cfg["seed"], "heads", i, m))
            traj = flows.ensemble_flow(chain, flows.EnsembleState(phi0, w), 1.0, 0.0, times)
            gap = max(
                float(np.linalg.norm(s - ref)) for s, ref in zip(traj.states, limits))
            rows.append([float(m), float(i), gap])
            gaps[(m, i)] = gap
    bundle.add_table("trajectory_gaps", ["M", "seed", "gap"], np.array(rows))

    m_big = max(m_list)
    worst_big = max(gaps[(m_big, i)] for i in range(cfg["n_seeds"]))
    bundle.add_check("largest_M_gap_below_tolerance", worst_big, cfg["gap_tol"],
                     table="trajectory_gaps")
    if len(m_list) > 1:
        ordered = sorted(m_list)
        worst_ratio = max(
            gaps[(ordered[a + 1], i)] / gaps[(ordered[a], i)]
            for a in range(len(ordered) - 1) for i in range(cfg["n_seeds"]))
        bundle.add_check("gap_shrinks_with_M_per_seed", worst_ratio, 1.0,
                         table="trajectory_gaps")
    if 1 in m_list:
        # single-head reduction: identical to the single-head joint flow
        phi0 = _normalized_phi0(_stream(cfg["seed"], "phi0", 0), CHAIN_N, K)
        w = flows.sample_weights(1, K, 1.0, _stream(cfg["seed"], "heads", 0, 1))
        ens = flows.ensemble_flow(chain, flows.EnsembleState(phi0, w), 1.0, 0.0, times)
        joint = flows.joint_flow(chain, phi0, w[0], 1.0, 0.0, times)
        diff = max(float(np.abs(a - b[:CHAIN_N]).max())
                   for a, b in zip(ens.states, joint.states))
        bundle.add_check("single_head_reduces_to_joint_flow", diff, 1e-12,
                         table="trajectory_gaps")

    # second-moment identity of frozen heads; the weights are drawn in row
    # blocks from one generator, the same draws as one (weight_M, K) sample
    wk, wm = cfg["weight_K"], cfg["weight_M"]
    errs = []
    for i in range(cfg["weight_seeds"]):
        rng = _stream(cfg["seed"], "weight identity", i)
        second = np.zeros((wk, wk))
        for start in range(0, wm, MC_BLOCK):
            w = flows.sample_weights(min(MC_BLOCK, wm - start), wk, 1.0 / wm, rng)
            second += w.T @ w
        errs.append(float(np.linalg.norm(second - np.eye(wk))))
    bundle.add_table("weight_second_moment", ["seed", "error"],
                     np.column_stack([np.arange(cfg["weight_seeds"]), errs]))
    bundle.add_check("weight_second_moment_identity", max(errs), cfg["weight_tol"],
                     table="weight_second_moment")

    # reward-weight product limit: columns of sum_m r^m (w^m)^T have covariance I
    sigma = np.eye(CHAIN_N)
    cols = []
    for i in range(cfg["rewmat_seeds"]):
        r = flows.sample_cumulants(cfg["rewmat_M"], CHAIN_N,
                                   _stream(cfg["seed"], "reward matrix", i))
        w = flows.sample_weights(cfg["rewmat_M"], K, 1.0 / cfg["rewmat_M"],
                                 _stream(cfg["seed"], "reward matrix heads", i))
        cols.append(r @ w)
    pooled = np.concatenate([z.T for z in cols])  # rows are column samples
    emp = pooled.T @ pooled / pooled.shape[0]
    rew_err = float(np.linalg.norm(emp - sigma) / np.linalg.norm(sigma))
    bundle.add_table("reward_matrix_covariance_error", ["relative_error"],
                     np.array([[rew_err]]))
    bundle.add_check("reward_matrix_columns_have_covariance_sigma", rew_err,
                     cfg["rewmat_tol"], table="reward_matrix_covariance_error")

    # limiting feature covariance: columns of Psi Z have covariance Psi Psi^T
    psi = spectral.resolvent(chain.transition, cfg["gamma"])
    target = psi @ psi.T
    samples = []
    for i in range(cfg["cov_seeds"]):
        z = _stream(cfg["seed"], "limit covariance", i).standard_normal((CHAIN_N, K))
        samples.append((psi @ z).T)
    pooled = np.concatenate(samples)
    emp = pooled.T @ pooled / pooled.shape[0]
    cov_err = float(np.linalg.norm(emp - target) / np.linalg.norm(target))
    bundle.add_matrix("limit_covariance_empirical", emp)
    bundle.add_table("limit_covariance_error", ["relative_error"], np.array([[cov_err]]))
    bundle.add_check("limit_covariance_matches_resolvent_form", cov_err, cfg["cov_tol"],
                     table="limit_covariance_error")
    return bundle


# ---------------------------------------------------------------------------
# trace optimality of resolvent features
# ---------------------------------------------------------------------------

BAYES_OPT_DEFAULTS = {
    "K": 4,
    "gamma": 0.9,
    "n_random_subspaces": 1000,
    "mc_samples": 100000,
    "seed": 0,
}


def run_bayes_optimality(config: dict | None = None) -> ReportBundle:
    """Resolvent features maximize Tr(Psi^T Pi_S Psi) over K-dim subspaces.

    Equivalently they minimize the expected squared error of projecting the
    value of an isotropic random reward; the Monte Carlo estimate of that
    error is cross-checked against the trace identity.
    """
    cfg = _finalize_config(BAYES_OPT_DEFAULTS, config)
    if cfg["mc_samples"] < 2:  # the standard error needs two samples
        raise ConfigurationError(f"mc_samples must be at least 2, got {cfg['mc_samples']}")
    bundle = ReportBundle("bayes-opt", dict(cfg))
    chain = chain_uniform(cfg["gamma"])
    psi = spectral.resolvent(chain.transition, cfg["gamma"])
    K = cfg["K"]

    def projected_trace(subspace: spectral.Subspace) -> float:
        return float(np.linalg.norm(subspace.basis.T @ psi) ** 2)

    total = float(np.linalg.norm(psi) ** 2)
    best = spectral.rsbf(chain.transition, cfg["gamma"], K)
    best_trace = projected_trace(best)
    random_traces = []
    for i in range(cfg["n_random_subspaces"]):
        g = _stream(cfg["seed"], "subspace", i).standard_normal((CHAIN_N, K))
        random_traces.append(projected_trace(spectral.orthonormalize(g)))
    random_traces = np.asarray(random_traces)
    bundle.add_table("projected_traces", ["trace"], random_traces[:, None])
    bundle.add_table("summary", ["rsbf_trace", "best_random_trace", "total_trace"],
                     np.array([[best_trace, random_traces.max(), total]]))

    violations = int(np.sum(random_traces >= best_trace))
    bundle.add_check("rsbf_trace_dominates_random_subspaces", violations, 1.0,
                     table="projected_traces")

    # Monte Carlo projection error vs the trace identity
    rng = _stream(cfg["seed"], "mc rewards")
    rewards = rng.standard_normal((CHAIN_N, cfg["mc_samples"]))
    errs = np.empty(cfg["mc_samples"])
    for start in range(0, cfg["mc_samples"], MC_BLOCK):  # bounds the temporaries' memory
        values = psi @ rewards[:, start:start + MC_BLOCK]
        residuals = values - best.basis @ (best.basis.T @ values)
        errs[start:start + MC_BLOCK] = (residuals ** 2).sum(axis=0)
    expected = total - best_trace
    se = float(errs.std(ddof=1) / np.sqrt(cfg["mc_samples"]))
    z_score = abs(float(errs.mean()) - expected) / se
    bundle.add_table("mc_projection_error",
                     ["mc_mean", "identity_value", "standard_error", "z"],
                     np.array([[errs.mean(), expected, se, z_score]]))
    bundle.add_check("mc_error_matches_trace_identity", z_score, 3.0,
                     table="mc_projection_error")

    # full-dimensional subspace leaves no projection error
    full = spectral.Subspace(np.eye(CHAIN_N))
    residual_full = total - projected_trace(full)
    bundle.add_check("full_space_projection_error_zero", abs(residual_full), 1e-8,
                     table="summary")
    return bundle


# ---------------------------------------------------------------------------
# multi-task head splits
# ---------------------------------------------------------------------------

MULTI_TASK_DEFAULTS = {
    "M": 10000,
    "K": 4,
    "mixes": (0.75, 0.25),     # per-task probability of the left action
    "discounts": (0.9, 0.9),   # per-task discount
    "t_max": 5.0,
    "n_gap_samples": 26,
    "t_subspace": 200.0,
    "t_finite_span": 120.0,
    "gap_tol": 0.05,
    "subspace_tol": 0.05,
    "distinct_tol": 0.1,
    "seed": 0,
}


def run_multi_task(config: dict | None = None) -> ReportBundle:
    """Heads split across tasks converge to the averaged-task dynamics.

    Task i is the drifting chain with discount ``discounts[i]`` and left-action
    probability ``mixes[i]``. With M heads split evenly over the L tasks, zero
    rewards and frozen weights, the trajectory tracks the flow of the averaged
    operator, and the averaged flow's limiting feature span is the averaged
    operator's eigen span, distinguishable from the first task's when the
    policies differ. The finite-head span distance is reported for reference:
    at fixed M it does not sharpen indefinitely, since the head-split noise
    perturbs the invariant subspaces.
    """
    cfg = _finalize_config(MULTI_TASK_DEFAULTS, config)
    if len(cfg["discounts"]) != len(cfg["mixes"]):
        raise ConfigurationError(
            f"discounts and mixes must hold one entry per task, got {len(cfg['discounts'])} "
            f"and {len(cfg['mixes'])}")
    bundle = ReportBundle("multi-task", dict(cfg))
    M, K = cfg["M"], cfg["K"]
    if K > CHAIN_N:
        raise ConfigurationError(f"K must lie in 1..{CHAIN_N}, got {K}")
    chains = [chain_drift(check_real("discounts", g, 0.0, 1.0, high_open=True),
                          check_real("mixes", p, 0.0, 1.0)).with_reward(np.zeros(CHAIN_N))
              for g, p in zip(cfg["discounts"], cfg["mixes"])]
    L = len(chains)
    policies_differ = len(set(cfg["mixes"])) > 1

    op_bar = flows.build_multi_task_operator(chains)
    phi0 = _normalized_phi0(_stream(cfg["seed"], "phi0"), CHAIN_N, K)
    weights = flows.sample_weights(M, K, 1.0 / M, _stream(cfg["seed"], "heads"))

    # longest horizon at which the leading K modes still span 8 digits of
    # dynamic range, so span extraction keeps its numerical rank
    rates = np.sort(-np.linalg.eigvals(op_bar).real)
    t_rank = 8.0 * np.log(10.0) / max(rates[K - 1] - rates[0], 1e-12)
    t_span = min(check_real("t_subspace", cfg["t_subspace"], 0.0), t_rank)
    t_fin = min(check_real("t_finite_span", cfg["t_finite_span"], 0.0), t_rank)

    times = np.linspace(0.0, check_real("t_max", cfg["t_max"], 0.0, low_open=True),
                        cfg["n_gap_samples"])
    sample_times = np.unique(np.concatenate([times, [t_fin]]))
    finite = flows.multi_task_flow(chains, weights, phi0, sample_times)
    limit = flows.linear_limit_flow(flows.LinearFlowSpec(op_bar, np.zeros_like(phi0), phi0),
                                    np.unique(np.append(times, t_span)))
    by_time = dict(zip(finite.times, finite.states))
    limit_at = dict(zip(limit.times, limit.states))
    gap = max(float(np.linalg.norm(by_time[t] - limit_at[t])) for t in times)
    bundle.add_table("trajectory_gap", ["gap"], np.array([[gap]]))
    bundle.add_check("finite_head_flow_matches_averaged_limit", gap, cfg["gap_tol"],
                     table="trajectory_gap")

    if L == 1:
        ens = flows.ensemble_flow(chains[0], flows.EnsembleState(phi0, weights), 1.0,
                                  0.0, times)
        diff = max(float(np.abs(a - by_time[t]).max())
                   for a, t in zip(ens.states, times))
        bundle.add_check("single_task_reduces_to_plain_ensemble", diff, 1e-12,
                         table="trajectory_gap")

    # limiting span of the averaged flow vs candidate eigen spans; meaningful
    # for genuine task splits (L >= 2), where the averaged operator differs
    # from each task's own
    if L > 1:
        limit_span = spectral.orthonormalize(limit_at[t_span])
        ebf_bar = spectral.ebf(op_bar, K)
        ebf_first = spectral.ebf(chains[0].transition, K)
        d_bar = spectral.grassmann_distance(limit_span, ebf_bar).distance
        d_first = spectral.grassmann_distance(limit_span, ebf_first).distance
        d_finite = spectral.grassmann_distance(
            spectral.orthonormalize(by_time[t_fin]), ebf_bar).distance
        bundle.add_table("subspace_distances",
                         ["limit_to_averaged_ebf", "limit_to_first_task_ebf",
                          "finite_head_to_averaged_ebf", "t_subspace", "t_finite_span"],
                         np.array([[d_bar, d_first, d_finite, t_span, t_fin]]))
        bundle.add_check("limit_span_is_averaged_operator_ebf", d_bar, cfg["subspace_tol"],
                         table="subspace_distances")
        if policies_differ:
            bundle.add_check("limit_span_distinct_from_first_task_ebf", d_first,
                             cfg["distinct_tol"], comparison=">", table="subspace_distances")

    if policies_differ and K % L == 0:
        wb = flows.sample_block_orthogonal_weights(
            M, K, L, 1.0 / M, _stream(cfg["seed"], "block heads"))
        traj_b = flows.multi_task_flow(chains, wb, phi0, np.array([t_fin]))
        block = K // L
        rows = []
        for i, chain_i in enumerate(chains):
            cols = slice(i * block, (i + 1) * block)
            span_i = spectral.orthonormalize(traj_b.final()[:, cols])
            d_i = spectral.grassmann_distance(
                span_i, spectral.ebf(chain_i.transition, block)).distance
            rows.append([float(i), d_i])
        bundle.add_table("block_orthogonal_decomposition", ["task", "distance_to_task_ebf"],
                         np.array(rows))
    return bundle


EXPERIMENTS = {
    "two-state": run_two_state,
    "four-rooms": run_four_rooms_features,
    "chain-transfer": run_chain_transfer,
    "limit-checks": run_limit_checks,
    "bayes-opt": run_bayes_optimality,
    "multi-task": run_multi_task,
}

EXPERIMENT_DEFAULTS = {
    "two-state": TWO_STATE_DEFAULTS,
    "four-rooms": FOUR_ROOMS_DEFAULTS,
    "chain-transfer": CHAIN_TRANSFER_DEFAULTS,
    "limit-checks": LIMIT_CHECKS_DEFAULTS,
    "bayes-opt": BAYES_OPT_DEFAULTS,
    "multi-task": MULTI_TASK_DEFAULTS,
}
