"""Scripted desk-scale experiments producing ReportBundles.

Each runner takes a config dict (unknown keys rejected), derives every random
draw from the recorded seed through named substreams, and emits CSV tables,
SVG figures and pass/fail checks with their thresholds. Re-running a bundle
from its own config reproduces the tables byte for byte.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from . import flows, mdp, spectral
from .errors import (ConfigurationError, NumericalError, RankDeficiencyError, check_array,
                     check_count, check_instance, check_real)
from .report import ReportBundle
from .svg import emit_svg

CHAIN_N = 30
CHAIN_SLIP = 0.01
CHAIN_LEFT_REWARD = 2.0
CHAIN_RIGHT_REWARD = 1.0
MC_BLOCK = 8192  # bayes-opt's Monte Carlo draws (subspaces or rewards) worked on at once
WEIGHT_K = 10  # head dimension of limit-checks' second-moment identity


def _finalize_config(defaults: dict, config: dict | None) -> dict:
    """``defaults`` overridden by ``config`` (None or a mapping), coerced entry by entry.

    Each entry takes its default's kind: an int entry is a count
    (``check_count``; ``seed`` may be 0), a float entry a finite real
    (``check_real``), and a tuple entry a non-empty tuple or list of its
    default's element kind (a rerun reads tuples back from ``config.json`` as
    lists). Entries are stored as the Python numbers the coercers return.
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
        if sequence and not check_instance(key, value, (tuple, list)):
            raise ConfigurationError(f"{key} must hold at least one entry, got {value!r}")
        real = isinstance(defaults[key][0] if sequence else defaults[key], float)
        low = 0 if key == "seed" else 1
        entries = tuple(check_real(key, x) if real else check_count(key, x, low)
                        for x in (value if sequence else (value,)))
        merged[key] = entries if sequence else entries[0]
    return merged


def _stream(seed: int, label: str, *extra) -> np.random.Generator:
    """Independent substream keyed by (seed, label, indices).

    A Monte Carlo family pooled into one statistic reads one stream per label.
    Index keys serve draws that are a table row's coordinates.
    """
    # the label as one uint32 word array hashes the same words as one int per character
    label_words = np.array([ord(c) for c in label], dtype=np.uint32)
    return np.random.default_rng([seed, label_words, *(int(x) for x in extra)])


def _chain_mdp() -> mdp.Mdp:
    return mdp.build_chain_mdp(CHAIN_N, CHAIN_SLIP, CHAIN_LEFT_REWARD, CHAIN_RIGHT_REWARD)


def _mix_policy(n: int, left_prob: float) -> mdp.Policy:
    return mdp.Policy(np.column_stack([np.full(n, left_prob), np.full(n, 1.0 - left_prob)]))


def chain_uniform(gamma: float = 0.9) -> mdp.MarkovChain:
    """Uniform-policy chain: the reflecting random walk with a clean real spectrum."""
    return chain_drift(gamma, 0.5)


def chain_drift(gamma: float = 0.9, left_prob: float = 1.0) -> mdp.MarkovChain:
    """Drifting-policy chain: large top spectral gap (1 - lambda_2 ~ 0.86 at left_prob=1)."""
    left_prob = check_real("left_prob", left_prob, 0.0, 1.0)
    return mdp.induce(_chain_mdp(), _mix_policy(CHAIN_N, left_prob), gamma)


def two_state_chain(gamma: float = 0.9) -> mdp.MarkovChain:
    """The two-state world: stay probabilities 0.9 and 0.1, rewards 1 and 0."""
    return mdp.induce(*mdp.build_two_state_mdp(0.9, 0.1, (1.0, 0.0)), gamma)


def _normalized_phi0(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    g = rng.standard_normal((n, k))
    return g / np.linalg.norm(g)


def _wishart_factors(rng: np.random.Generator, count: int, n: int, k: int) -> np.ndarray:
    """(count, k, min(n, k)) stack of lower-trapezoidal L with L L^T ~ Wishart_k(n, I).

    Bartlett's decomposition: Gram-Schmidt on the rows of a standard normal
    (k, n) matrix leaves row i a chi(n - i) length on the diagonal and N(0, 1)
    coordinates below it; rows past the n-th are coordinates only (rank n).
    """
    d = min(n, k)
    L = np.zeros((count, k, d))
    L[:, range(d), range(d)] = np.sqrt(rng.chisquare(n - np.arange(d, dtype=float), (count, d)))
    rows, cols = np.tril_indices(k, -1, d)
    L[:, rows, cols] = rng.standard_normal((count, len(rows)))
    return L


def frozen_ensemble_span(
    P: np.ndarray, gamma: float, weights: np.ndarray, phi0: np.ndarray, t: float
) -> spectral.Subspace:
    """Column span of the frozen-head flow solution at time t, extracted stably.

    For symmetric P the flow d/dt Phi = (gamma P - I) Phi W solves exactly in
    the product eigenbasis of P and W = sum_m w^m (w^m)^T:
    coefficients scale by exp(-t (1 - gamma lambda_i) omega_j). The mode
    amplitudes at the times where the leading subspace has separated span many
    orders of magnitude, so the span is the float64 Householder QR of the
    coefficients after a span-preserving column rescaling. Rows in decreasing
    lambda fall in size down the matrix, where QR is row-wise stable (Cox &
    Higham, BIT 38, 1998). A phi0 of dependent columns is a
    RankDeficiencyError; coefficients that lose rank to underflow (from
    t ~ 1e4 at the four-rooms defaults) are a NumericalError naming t.
    """
    P = check_array("P", P, ("n", "n"))
    phi0 = check_array("phi0", phi0, (P.shape[0], "K"))
    weights = check_array("weights", weights, ("M", phi0.shape[1]))
    gamma = check_real("gamma", gamma, 0.0, 1.0, high_open=True)
    t = check_real("t", t, 0.0)
    if np.abs(P - P.T).max() > 1e-12:
        raise ConfigurationError("closed-form span extraction requires symmetric P")
    try:
        spectral.orthonormalize(phi0)
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(f"phi0 {exc}", numerical_rank=exc.numerical_rank) from None
    lam, U = np.linalg.eigh(P)
    order = np.argsort(-lam, kind="stable")
    lam, U = lam[order], U[:, order]
    rates = 1.0 - gamma * lam
    W = weights.T @ weights
    om, V = np.linalg.eigh((W + W.T) / 2.0)
    # columns in decreasing omega: each reflector then comes from a column that
    # falls faster down the rows than those it updates, so its rounding stays
    # below their small lower entries (ascending omega loses digits)
    om, V = om[::-1], V[:, ::-1]
    coeff = U.T @ phi0 @ V
    # rescale column j by exp(+t * rates_min * om_j): pure column operation.
    # W is semidefinite, so an omega below 0 is rounding; an exponent past
    # float64's range (t near 1e308) is -inf, a factor of 0
    with np.errstate(over="ignore"):
        expo = -t * np.outer(rates - rates.min(), np.maximum(om, 0.0))
    B = coeff * np.exp(expo)
    Q, R = np.linalg.qr(B)
    if not np.all(np.abs(np.diag(R)) > 0.0):
        raise NumericalError(
            f"frozen-head span at horizon t = {t:g} has lost rank to underflow")
    return spectral.Subspace(U @ Q)


# ---------------------------------------------------------------------------
# two-state value-flow geometry
# ---------------------------------------------------------------------------

TWO_STATE_DEFAULTS = {
    "gamma": 0.9,
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
    chain = two_state_chain(cfg["gamma"])
    v_star = mdp.exact_value(chain)
    v0 = np.array([2.0, -1.0])
    times = np.concatenate([np.linspace(0.0, 8.0, 81), np.linspace(9.0, 180.0, 172)])
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
    gaps = mc.values()[1:] - v_star
    mc_angles = spectral.vector_subspace_angles(
        gaps[np.linalg.norm(gaps, axis=1) > floor], start_line)
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
    "beta": 1.0,  # head learning rate; 0 freezes the heads
    "alpha": 1.0,
    "gamma": 0.9,
    "step": 0.01,
    "seed": 0,
    "snapshot_times": (0.0, 25.0, 50.0, 75.0, 100.0),
    "check_M": 200,
    "check_t": 300.0,
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
    for key in ("M", "check_M"):  # each sizes an (M, K) head draw
        check_count(key, cfg[key], floats=cfg["K"])
    # above 2^53 the unit-spaced sample times are no longer distinct floats
    t_max = check_real("t_max", cfg["t_max"], 0.0, 2.0 ** 53, low_open=True, high_open=True)
    check_t = check_real("check_t", cfg["check_t"], 0.0)
    bundle = ReportBundle("four-rooms", dict(cfg))
    rooms, policy, coords = mdp.gridworld_from_map(mdp.four_rooms_map())
    chain = mdp.induce(rooms, policy, cfg["gamma"])
    n, K = rooms.n_states, cfg["K"]

    lam, U = np.linalg.eigh(chain.transition)
    order = np.argsort(-lam, kind="stable")
    lam, U = lam[order], spectral._sign_fix(U)[:, order]

    rng = _stream(cfg["seed"], "phi0")
    phi0 = rng.standard_normal((n, K))
    weights = flows.sample_weights(cfg["M"], K, 1.0 / cfg["M"], _stream(cfg["seed"], "heads"))

    snapshots = [check_real("snapshot_times", t, 0.0) for t in cfg["snapshot_times"]]
    sample_times = np.unique(np.concatenate(
        [snapshots, np.arange(0.0, t_max + 1e-9, 1.0)]))
    traj = flows.ensemble_flow(chain, flows.EnsembleState(phi0, weights), cfg["alpha"],
                               cfg["beta"], sample_times, cfg["step"])

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
    bundle.add_check("frozen_head_span_near_ebf", d_span, 0.1, table="frozen_head_span")

    # single-head variant: features barely move
    w1 = flows.sample_weights(1, K, 1.0, _stream(cfg["seed"], "single head"))
    traj1 = flows.ensemble_flow(
        chain, flows.EnsembleState(phi0, w1), cfg["alpha"], 1.0,
        np.array([0.0, t_max]), cfg["step"],
    )
    drift = np.linalg.norm(traj1.final() - phi0) / np.linalg.norm(phi0)
    bundle.add_table("single_head_drift", ["relative_change"], np.array([[drift]]))
    bundle.add_check("single_head_features_stay_fixed", drift, 0.05, table="single_head_drift")
    return bundle


# ---------------------------------------------------------------------------
# chain transfer across the improvement path
# ---------------------------------------------------------------------------

CHAIN_TRANSFER_DEFAULTS = {
    "K": 4,
    "gamma": 0.9,
    "seed": 0,
    "init_left_prob": 0.0,  # left-action probability of the initial policy
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
    init = _mix_policy(n, check_real("init_left_prob", cfg["init_left_prob"], 0.0, 1.0))
    trace = mdp.policy_iteration(chain_mdp, cfg["gamma"], 25, init)
    J = len(trace)
    values = np.stack(trace.values)
    bundle.add_matrix("values", values, prefix="v")
    bundle.add_table("policy_iteration", ["J", "converged"],
                     np.array([[float(J), float(trace.converged)]]))

    transitions = [mdp.induce(chain_mdp, pi, cfg["gamma"]).transition for pi in trace.policies]
    feature_sets = {  # the (J, n, K) stack of each set's bases
        "ebf": np.stack([spectral.ebf(P, K).basis for P in transitions]),
        "rsbf": np.stack([spectral.rsbf(P, cfg["gamma"], K).basis for P in transitions]),
        "rf": spectral.orthonormal_bases(np.stack([
            _stream(cfg["seed"], "random features", j).standard_normal((n, K)) for j in range(J)])),
    }

    def angle_table(bases: np.ndarray) -> np.ndarray:  # row j: every V_j' against bases[j]
        return np.stack([spectral.vector_subspace_angles(values, spectral.Subspace(basis))
                         for basis in bases])

    off_diag = ~np.eye(J, dtype=bool)
    means = {}
    for name, bases in feature_sets.items():
        table = angle_table(bases)
        bundle.add_matrix(f"angles_{name}", table, prefix="j")
        bundle.figures[f"angles_{name}"] = emit_svg(table, "heatmap",
                                                    title=f"{name} transfer angles")
        means[name] = table[off_diag].mean()
        if name == "rsbf":
            rsbf_angles = table
        table_v = angle_table(spectral.orthonormal_bases(
            np.concatenate([bases, values[:, :, None]], axis=2)))
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
    "gap_tol": 0.02,          # absolute gate at the largest M
    "weight_M": 100000,
    "weight_seeds": 20,
    "weight_tol": 0.05,
    "rewmat_seeds": 2000,
    "rewmat_tol": 0.10,
    "seed": 0,
}


def run_limit_checks(config: dict | None = None) -> ReportBundle:
    """Finite-head convergence to the infinite-head flow, plus the Gaussian limits.

    Measures the sup-Frobenius gap between the frozen-head flow (zero reward,
    head variance 1/M) and exp(-t(I - gamma P)) Phi_0 at 26 even times on
    [0, 5] across seeds and head counts; checks the 1/sqrt(M) decay by
    per-seed comparison across distinct M and an absolute gate at the largest
    M. Also verifies the second-moment identity sum_m w^m (w^m)^T -> I and,
    from one family of reward-weight products Z = sum_m r^m (w^m)^T, that the
    columns of Z have covariance I and those of the limiting features Psi Z
    have covariance Psi Psi^T. A seed's limit (heads I_K) and finite-M flows
    run as one stack. The finite-M heads and each Gaussian statistic are drawn
    from their exact laws through Bartlett factors (``_wishart_factors``).
    """
    cfg = _finalize_config(LIMIT_CHECKS_DEFAULTS, config)
    m_list, n_seeds, K, wk, wm = cfg["M_list"], cfg["n_seeds"], cfg["K"], WEIGHT_K, cfg["weight_M"]
    if len(set(m_list)) != len(m_list):  # a repeat would compare an M's gaps with themselves
        raise ConfigurationError(f"M_list entries must be distinct, got {m_list!r}")
    # each count sized by the largest array it shapes, given the counts sized before it: a seed's
    # K x K head second moments, trajectory_gaps, the factors. M_list keeps (M, K) heads' bound
    check_count("K", K, floats=(len(m_list) + 1) * K)
    for m in m_list:
        check_count("M_list", m, floats=K)
    check_count("n_seeds", n_seeds, floats=3 * len(m_list))
    check_count("weight_seeds", cfg["weight_seeds"], floats=wk * wk)
    check_count("rewmat_seeds", cfg["rewmat_seeds"], floats=K * max(CHAIN_N, min(64, K)))
    bundle = ReportBundle("limit-checks", dict(cfg))
    chain = chain_uniform(cfg["gamma"]).with_reward(np.zeros(CHAIN_N))
    times = np.linspace(0.0, 5.0, 26)

    gaps = np.empty((len(m_list), n_seeds))  # sup-Frobenius gap per M and seed
    for i in range(n_seeds):
        phi0 = _normalized_phi0(_stream(cfg["seed"], "phi0", i), CHAIN_N, K)
        # at zero reward M heads act only through sum_m w w^T ~ Wishart_K(M, I) / M = L L^T / M
        heads = [np.eye(K)] + [_wishart_factors(_stream(cfg["seed"], "heads", i, m), 1, m, K)[0].T
                               / np.sqrt(m) for m in m_list]
        paths = flows.frozen_ensemble_flows(  # (T, 1 + len(M_list), n, K), the limit first
            chain, [flows.EnsembleState(phi0, w) for w in heads], 1.0, times)
        gaps[:, i] = np.linalg.norm(paths[:, 1:] - paths[:, :1], axis=(-2, -1)).max(axis=0)

    bundle.add_table("trajectory_gaps", ["M", "seed", "gap"], np.column_stack([
        np.tile(m_list, n_seeds), np.repeat(np.arange(n_seeds), len(m_list)), gaps.T.ravel()]))
    order = np.argsort(m_list)
    bundle.add_check("largest_M_gap_below_tolerance", gaps[order[-1]].max(), cfg["gap_tol"],
                     table="trajectory_gaps")
    if len(m_list) > 1:
        bundle.add_check("gap_shrinks_with_M_per_seed", (gaps[order[1:]] / gaps[order[:-1]]).max(),
                         1.0, table="trajectory_gaps")
    if 1 in m_list:
        # one head w is the joint flow, whose rank-one closed form at zero reward is
        # Phi0 + (e^{t |w|^2 G} - I) Phi0 w^ w^T, G = U diag(gamma lam - 1) U^T
        phi0 = _normalized_phi0(_stream(cfg["seed"], "phi0", 0), CHAIN_N, K)
        w = flows.sample_weights(1, K, 1.0, _stream(cfg["seed"], "heads", 0, 1))[0]
        ens = flows.ensemble_flow(chain, flows.EnsembleState(phi0, w[None, :]), 1.0, 0.0, times)
        lam, U = np.linalg.eigh(chain.transition)
        unit = w / np.linalg.norm(w)
        coeff = U.T @ (phi0 @ unit)
        diff = max(float(np.abs(state - phi0 - np.outer(
            U @ (np.expm1(t * (w @ w) * (cfg["gamma"] * lam - 1.0)) * coeff), unit)).max())
            for t, state in zip(times, ens.states))
        bundle.add_check("single_head_reduces_to_joint_flow", diff, 1e-12,
                         table="trajectory_gaps")

    # second-moment identity of frozen heads: L L^T / weight_M, one factor per seed
    L = _wishart_factors(_stream(cfg["seed"], "weight identity"), cfg["weight_seeds"], wm, wk)
    errs = np.linalg.norm(L @ L.swapaxes(1, 2) / wm - np.eye(wk), axis=(1, 2))
    bundle.add_table("weight_second_moment", ["seed", "error"],
                     np.column_stack([np.arange(cfg["weight_seeds"]), errs]))
    bundle.add_check("weight_second_moment_identity", max(errs), cfg["weight_tol"],
                     table="weight_second_moment")

    # reward-weight product limit: columns of sum_m r^m (w^m)^T have covariance I.
    # Z = R W, R (n, 64) standard normal and W (64, K) of variance 1/64; 64 W^T W
    # is L L^T, so Z^T = L G^T / 8 with G (n, min(64, K)) standard normal
    rng = _stream(cfg["seed"], "reward matrix")
    L = _wishart_factors(rng, cfg["rewmat_seeds"], 64, K)
    g = rng.standard_normal((cfg["rewmat_seeds"], CHAIN_N, L.shape[2]))
    pooled = (L @ g.swapaxes(1, 2) / 8.0).reshape(-1, CHAIN_N)  # rows are columns of Z
    sigma = np.eye(CHAIN_N)
    emp = pooled.T @ pooled / pooled.shape[0]
    rew_err = float(np.linalg.norm(emp - sigma) / np.linalg.norm(sigma))
    bundle.add_table("reward_matrix_covariance_error", ["relative_error"],
                     np.array([[rew_err]]))
    bundle.add_check("reward_matrix_columns_have_covariance_sigma", rew_err,
                     cfg["rewmat_tol"], table="reward_matrix_covariance_error")

    # limiting feature covariance: frozen heads on these rewards settle at
    # Psi Z (W^T W)^-1, which tends to Psi Z as M grows, so the same columns
    # through Psi give the features' pooled covariance Psi emp Psi^T -> Psi Psi^T
    psi = spectral.resolvent(chain.transition, cfg["gamma"])
    target = psi @ psi.T
    features = psi @ emp @ psi.T
    cov_err = float(np.linalg.norm(features - target) / np.linalg.norm(target))
    bundle.add_matrix("limit_covariance_empirical", features)
    bundle.add_table("limit_covariance_error", ["relative_error"], np.array([[cov_err]]))
    bundle.add_check("limit_covariance_matches_resolvent_form", cov_err, 0.10,
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
    check_count("mc_samples", cfg["mc_samples"], 2, floats=1)  # two for a standard error
    check_count("n_random_subspaces", cfg["n_random_subspaces"], floats=1)
    bundle = ReportBundle("bayes-opt", dict(cfg))
    chain = chain_uniform(cfg["gamma"])
    psi = spectral.resolvent(chain.transition, cfg["gamma"])
    K = cfg["K"]

    def projected_traces(bases: np.ndarray) -> np.ndarray:
        """||B^T Psi||_F^2 of each basis B of an (..., n, K) stack."""
        return ((np.swapaxes(bases, -1, -2) @ psi) ** 2).sum(axis=(-2, -1))

    total = float(np.linalg.norm(psi) ** 2)
    best = spectral.rsbf(chain.transition, cfg["gamma"], K)
    best_trace = float(projected_traces(best.basis))
    random_traces = np.empty(cfg["n_random_subspaces"])
    rng = _stream(cfg["seed"], "subspace")
    for start in range(0, len(random_traces), MC_BLOCK):
        # a (b, n, K) draw holds the numbers of b successive (n, K) draws
        g = rng.standard_normal((min(MC_BLOCK, len(random_traces) - start), CHAIN_N, K))
        random_traces[start:start + MC_BLOCK] = projected_traces(spectral.orthonormal_bases(g))
    bundle.add_table("projected_traces", ["trace"], random_traces[:, None])
    bundle.add_table("summary", ["rsbf_trace", "best_random_trace", "total_trace"],
                     np.array([[best_trace, random_traces.max(), total]]))

    violations = int(np.sum(random_traces >= best_trace))
    bundle.add_check("rsbf_trace_dominates_random_subspaces", violations, 1.0,
                     table="projected_traces")

    # Monte Carlo projection error vs the trace identity; Q r is the residual of Psi r
    q = psi - best.basis @ (best.basis.T @ psi)
    rng = _stream(cfg["seed"], "mc rewards")
    errs = np.empty(cfg["mc_samples"])
    for start in range(0, cfg["mc_samples"], MC_BLOCK):
        # one reward per row, so the draws do not depend on MC_BLOCK
        rewards = rng.standard_normal((min(MC_BLOCK, cfg["mc_samples"] - start), CHAIN_N))
        residuals = rewards @ q.T
        errs[start:start + MC_BLOCK] = np.einsum("ij,ij->i", residuals, residuals)
    expected = total - best_trace
    se = float(errs.std(ddof=1) / np.sqrt(cfg["mc_samples"]))
    z_score = abs(float(errs.mean()) - expected) / se
    bundle.add_table("mc_projection_error",
                     ["mc_mean", "identity_value", "standard_error", "z"],
                     np.array([[errs.mean(), expected, se, z_score]]))
    bundle.add_check("mc_error_matches_trace_identity", z_score, 3.0,
                     table="mc_projection_error")

    # full-dimensional subspace leaves no projection error
    residual_full = total - float(projected_traces(np.eye(CHAIN_N)))
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
    "t_finite_span": 120.0,
    "seed": 0,
}


def run_multi_task(config: dict | None = None) -> ReportBundle:
    """Heads split across tasks converge to the averaged-task dynamics.

    Task i is the drifting chain with discount ``discounts[i]`` and left-action
    probability ``mixes[i]``. With M heads split evenly over the L tasks, zero
    rewards and frozen weights, the trajectory tracks the flow of the averaged
    operator at 26 even times on [0, 5], and the averaged flow's feature span
    at t = 200 (or earlier, while the leading K modes keep 8 digits of range)
    is the averaged operator's eigen span, distinguishable from the first
    task's when the policies differ. The finite-head span distance is reported
    for reference: at fixed M it does not sharpen indefinitely, since the
    head-split noise perturbs the invariant subspaces.
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
    check_count("M", M, floats=K)  # the (M, K) heads
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
    t_span = min(200.0, t_rank)
    t_fin = min(check_real("t_finite_span", cfg["t_finite_span"], 0.0), t_rank)

    times = np.linspace(0.0, 5.0, 26)
    sample_times = np.unique(np.concatenate([times, [t_fin]]))
    finite = flows.multi_task_flow(chains, weights, phi0, sample_times)
    limit = flows.linear_limit_flow(flows.LinearFlowSpec(op_bar, np.zeros_like(phi0), phi0),
                                    np.unique(np.append(times, t_span)))
    by_time = dict(zip(finite.times, finite.states))
    limit_at = dict(zip(limit.times, limit.states))
    gap = max(float(np.linalg.norm(by_time[t] - limit_at[t])) for t in times)
    bundle.add_table("trajectory_gap", ["gap"], np.array([[gap]]))
    bundle.add_check("finite_head_flow_matches_averaged_limit", gap, 0.05, table="trajectory_gap")

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
        bundle.add_check("limit_span_is_averaged_operator_ebf", d_bar, 0.05,
                         table="subspace_distances")
        if policies_differ:
            bundle.add_check("limit_span_distinct_from_first_task_ebf", d_first, 0.1,
                             comparison=">", table="subspace_distances")

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
