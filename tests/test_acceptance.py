"""End-to-end acceptance suite.

Each test exercises one headline guarantee at its stated tolerance and prints
one PASS line; run with `pytest tests/test_acceptance.py -s` to see them all.
"""

import subprocess
import sys

import numpy as np
import pytest

import repdyn as rd
from repdyn.experiments import chain_drift, chain_uniform


def _report(num, description, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} ({detail})"
    print(line)
    assert ok, line


def rk4_oracle_path(rhs, y0, targets, step):
    y = np.array(y0, dtype=float)
    t = 0.0
    out = []
    for target in targets:
        while t < target - 1e-12:
            h = min(step, target - t)
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        out.append(y.copy())
    return out


@pytest.fixture(scope="module")
def limit_bundle():
    return rd.run_limit_checks()


def test_criterion_1_closed_forms_match_rk4():
    chain = chain_uniform()
    P, R, n = chain.transition, chain.reward, 30
    rng = np.random.default_rng(101)
    v0 = rng.standard_normal(n)
    targets = [2.5, 5.0, 7.5, 10.0]
    gp = 0.9 * P

    def series_k(op, k_max, weight):
        total = np.zeros((n, n))
        power = np.eye(n)
        for k in range(k_max + 1):
            total += weight(k) * power
            power = power @ op
        return total

    # the series are constant, so they are built once, outside the right-hand sides
    three_step_forcing = series_k(gp, 2, lambda k: 1.0) @ R
    gp3 = np.linalg.matrix_power(gp, 3)
    # sum_k (lambda gamma P)^k, truncated far past float precision
    lambda_series = series_k(0.5 * gp, 300, lambda k: 1.0)
    cases = {
        "one-step": (
            lambda v: R + gp @ v - v,
            lambda: rd.td_value_flow(chain, v0, targets),
        ),
        "three-step": (
            lambda v: three_step_forcing + gp3 @ v - v,
            lambda: rd.nstep_value_flow(chain, 3, v0, targets),
        ),
        "lambda-return": (
            lambda v: lambda_series @ (R + gp @ v - v),
            lambda: rd.td_lambda_value_flow(chain, 0.5, v0, targets),
        ),
    }
    worst = 0.0
    for name, (rhs, flow) in cases.items():
        oracle = rk4_oracle_path(rhs, v0, targets, 1e-3)
        traj = flow()
        gap = max(np.abs(a[:, 0] - b).max() for a, b in zip(traj.states, oracle))
        worst = max(worst, gap)
        assert gap < 1e-6, f"{name} deviates from its integration oracle by {gap:.2e}"
    _report(1, "closed forms match fixed-step integration to 1e-6", worst < 1e-6,
            f"worst sup-gap {worst:.2e}")


def test_criterion_2_residual_direction_aligns_with_top_mode():
    chain = chain_drift()  # deterministic-left policy: wide top spectral gap
    v_star = rd.exact_value(chain)
    op = -(np.eye(30) - 0.9 * chain.transition)
    propagator = rd.matrix_exponential(op, 200.0)
    # the drift chain's bulk eigenbasis is ill-conditioned, but the top mode
    # is well separated, so its span is unique and ebf does not warn
    top = rd.ebf(chain.transition, 1)
    hits = 0
    for i in range(50):
        v0 = np.random.default_rng([102, i]).standard_normal(30)
        d0 = v0 - v_star
        angle_start = rd.vector_subspace_angle(d0, top)
        angle_end = rd.vector_subspace_angle(propagator @ d0, top)
        if angle_end < 1e-2 and 100.0 * angle_end <= angle_start:
            hits += 1
    _report(2, "single-flow residual aligns with the top eigenvector", hits >= 48,
            f"{hits}/50 initializations")


def test_criterion_3_residual_span_reaches_leading_eigenspace():
    chain = chain_uniform()
    v_star = rd.exact_value(chain)
    op = -(np.eye(30) - 0.9 * chain.transition)
    propagator = rd.matrix_exponential(op, 300.0)
    target = rd.ebf(chain.transition, 4)
    hits = 0
    for i in range(50):
        v0s = np.random.default_rng([103, i]).standard_normal((30, 4))
        span = rd.orthonormalize(propagator @ (v0s - v_star[:, None]))
        if rd.grassmann_distance(span, target).distance < 1e-2:
            hits += 1
    _report(3, "four-flow residual span reaches the leading 4-eigenspace",
            hits >= 45, f"{hits}/50 initializations")


def test_criterion_4_finite_head_trajectories_approach_limit(limit_bundle):
    checks = {c.name: c for c in limit_bundle.checks}
    gate = checks["largest_M_gap_below_tolerance"]
    mono = checks["gap_shrinks_with_M_per_seed"]
    _report(4, "finite-head flow within 0.02 of the infinite-head flow at M=1e4",
            gate.passed and mono.passed,
            f"worst gap {gate.value:.4f}, worst cross-M ratio {mono.value:.3f}")


def test_criterion_5_limit_covariance(limit_bundle):
    check = {c.name: c for c in limit_bundle.checks}["limit_covariance_matches_resolvent_form"]
    _report(5, "limiting feature covariance matches the resolvent form within 10%",
            check.passed, f"relative error {check.value:.4f}")


def test_criterion_6_weight_second_moment(limit_bundle):
    check = {c.name: c for c in limit_bundle.checks}["weight_second_moment_identity"]
    _report(6, "head second moment within 0.05 of identity at M=1e5 (20 seeds)",
            check.passed, f"worst deviation {check.value:.4f}")


def test_criterion_7_resolvent_features_trace_optimal():
    bundle = rd.run_bayes_optimality()
    checks = {c.name: c for c in bundle.checks}
    dom = checks["rsbf_trace_dominates_random_subspaces"]
    ident = checks["mc_error_matches_trace_identity"]
    _report(7, "resolvent features beat 1000 random subspaces on projected trace",
            dom.passed and ident.passed,
            f"violations {int(dom.value)}, mc z-score {ident.value:.2f}")


def test_criterion_8_transfer_heatmaps():
    bundle = rd.run_chain_transfer()
    checks = {c.name: c for c in bundle.checks}
    better = checks["rsbf_transfers_better_than_random"]
    diags = [checks[f"{name}_with_value_diagonal"] for name in ("ebf", "rsbf", "rf")]
    ok = better.passed and all(d.passed for d in diags)
    _report(8, "resolvent features transfer better than random; value-augmented "
            "diagonals vanish", ok,
            f"mean-angle margin {better.value:.3f}, "
            f"worst diagonal {max(d.value for d in diags):.2e}")


def test_criterion_9_multi_task_average_limit():
    bundle = rd.run_multi_task()
    checks = {c.name: c for c in bundle.checks}
    gap = checks["finite_head_flow_matches_averaged_limit"]
    near = checks["limit_span_is_averaged_operator_ebf"]
    far = checks["limit_span_distinct_from_first_task_ebf"]
    _report(9, "two-policy head split follows the averaged-operator flow",
            gap.passed and near.passed and far.passed,
            f"gap {gap.value:.4f}, d(avg)= {near.value:.4f}, d(task1)= {far.value:.3f}")


def test_criterion_10_grassmann_metric_properties():
    rng = np.random.default_rng(110)
    sym_exact = True
    tri_worst = 0.0
    rot_worst = 0.0
    for _ in range(1000):
        a, b, c = (rd.orthonormalize(rng.standard_normal((30, 3))) for _ in range(3))
        dab = rd.grassmann_distance(a, b).distance
        sym_exact &= dab == rd.grassmann_distance(b, a).distance
        tri_worst = max(tri_worst, dab - rd.grassmann_distance(a, c).distance
                        - rd.grassmann_distance(c, b).distance)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rot_worst = max(rot_worst, abs(
            rd.grassmann_distance(rd.Subspace(a.basis @ q), b).distance - dab))
    ok = sym_exact and tri_worst <= 1e-8 and rot_worst <= 1e-10
    _report(10, "subspace distance is a metric over 1000 random triples", ok,
            f"symmetry exact={sym_exact}, triangle slack {tri_worst:.2e}, "
            f"rotation drift {rot_worst:.2e}")


def test_criterion_11_four_rooms_features():
    bundle = rd.run_four_rooms_features()
    checks = {c.name: c for c in bundle.checks}
    span = checks["frozen_head_span_near_ebf"]
    snapshots = [name for name in bundle.figures if name.startswith("feature0_t")]
    has_curves = "projections_feature0" in bundle.figures
    ok = span.passed and len(snapshots) >= 3 and has_curves
    _report(11, "four-rooms run emits heatmaps and projection curves; "
            "frozen-head span lands on the leading eigenspace", ok,
            f"span distance {span.value:.4f}, {len(snapshots)} snapshots")


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path):
    cli = [sys.executable, "-m", "repdyn.cli"]
    fast = ["--set", "n_random_subspaces=20", "--set", "mc_samples=5000"]

    def run(args):
        return subprocess.run(cli + args, capture_output=True, text=True)

    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        result = run(["bayes-opt", "--seed", "11", "--out", str(out)] + fast)
        assert result.returncode == 0
        runs.append(sorted((out / "tables").glob("*.csv")))
    identical = all(x.read_bytes() == y.read_bytes() for x, y in zip(*runs))

    usage = run(["definitely-not-a-command"]).returncode
    fail = run([
        "limit-checks", "--out", str(tmp_path / "f"),
        "--set", "M_list=100", "--set", "n_seeds=1", "--set", "gap_tol=1e-12",
        "--set", "cov_seeds=20", "--set", "weight_M=1000", "--set", "weight_seeds=1",
        "--set", "weight_tol=1.0", "--set", "rewmat_seeds=20",
        "--set", "rewmat_tol=1.0",
    ]).returncode
    ok = identical and usage == 1 and fail == 2
    _report(12, "CLI reruns are byte-identical; exit codes 0/1/2 honored", ok,
            f"identical={identical}, usage exit {usage}, failed-check exit {fail}")
