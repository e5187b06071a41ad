"""Every exported callable either returns or raises a typed ``repdyn`` error, whatever it is given.

Each row calls one export with valid keyword arguments on a 3-state chain.
The sweep swaps each argument in turn for each of ``BAD_VALUES``; the call
must return or raise a member of ``errors.ERRORS``, and it may warn only with
the non-uniqueness ``RuntimeWarning`` that ``ebf`` and ``rsbf`` document.
"""

import re
import warnings

import numpy as np
import pytest

import repdyn as rd
from repdyn.errors import ERRORS

BAD_VALUES = {"string": "x", "none": None, "bool": True, "nan": float("nan"), "minus-one": -1,
              "zero": 0, "fraction": 1.5, "3d-array": np.ones((2, 2, 2)),
              "empty-array": np.empty(0), "empty-list": [], "empty-dict": {}}
DOCUMENTED_WARNING = re.compile("not unique|complex conjugate pair")

MDP = rd.build_chain_mdp(3, 0.1, 1.0, 2.0)
POLICY = rd.Policy.uniform(3, 2)
CHAIN = rd.induce(MDP, POLICY, 0.9)
P = CHAIN.transition
PHI = np.random.default_rng(0).standard_normal((3, 2))
HEADS = np.random.default_rng(1).standard_normal((4, 2)) / 2.0
TIMES = [0.0, 0.5, 1.0]
SUBSPACE = rd.Subspace(np.eye(3)[:, :2])
STATE = rd.EnsembleState(PHI, HEADS)
SPEC = rd.LinearFlowSpec(CHAIN.gamma * P - np.eye(3), np.zeros((3, 2)), PHI)
TRAJECTORY = rd.td_value_flow(CHAIN, np.zeros(3), TIMES)
FLOW = {"chain": CHAIN, "times": TIMES}

# row id: (callable, valid keyword arguments)
ROWS = {
    "Mdp": (rd.Mdp, {"kernel": MDP.kernel, "reward": MDP.reward}),
    "Policy": (rd.Policy, {"probs": POLICY.probs}),
    "Policy.uniform": (rd.Policy.uniform, {"n_states": 3, "n_actions": 2}),
    "Policy.deterministic": (rd.Policy.deterministic, {"actions": [0, 1, 1], "n_actions": 2}),
    "MarkovChain": (rd.MarkovChain, {"transition": P, "reward": CHAIN.reward, "gamma": 0.9}),
    "PolicyIterationTrace": (rd.PolicyIterationTrace,
                             {"policies": [POLICY], "values": [np.zeros(3)], "converged": True}),
    "build_chain_mdp": (rd.build_chain_mdp,
                        {"n": 3, "slip": 0.1, "left_reward": 1.0, "right_reward": 2.0}),
    "build_four_rooms": (rd.build_four_rooms, {}),
    "build_two_state_mdp": (rd.build_two_state_mdp,
                            {"stay_prob_a": 0.9, "stay_prob_b": 0.1, "rewards": (1.0, 0.0)}),
    "exact_value": (rd.exact_value, {"chain": CHAIN}),
    "four_rooms_coords": (rd.four_rooms_coords, {}),
    "four_rooms_map": (rd.four_rooms_map, {}),
    "greedy_policy": (rd.greedy_policy, {"mdp": MDP, "value": np.ones(3), "gamma": 0.9}),
    "gridworld_from_map": (rd.gridworld_from_map, {"text": "..\n.#\n"}),
    "induce": (rd.induce, {"mdp": MDP, "policy": POLICY, "gamma": 0.9}),
    "policy_iteration": (rd.policy_iteration,
                         {"mdp": MDP, "gamma": 0.9, "max_iters": 3, "init": POLICY}),
    "SpectralDecomposition": (rd.SpectralDecomposition,
                              {"eigenvalues": np.ones(3), "right_vectors": np.eye(3)}),
    "PrincipalAngles": (rd.PrincipalAngles, {"angles": np.zeros(2), "distance": 0.0}),
    "Subspace": (rd.Subspace, {"basis": SUBSPACE.basis}),
    "eigen_decompose": (rd.eigen_decompose, {"P": P, "gap_tol": 1e-8}),
    "ebf": (rd.ebf, {"P": P, "K": 2}),
    "resolvent": (rd.resolvent, {"P": P, "gamma": 0.9}),
    "rsbf": (rd.rsbf, {"P": P, "gamma": 0.9, "K": 2}),
    "grassmann_distance": (rd.grassmann_distance, {"S1": SUBSPACE, "S2": rd.ebf(P, 2)}),
    "vector_subspace_angle": (rd.vector_subspace_angle, {"v": np.ones(3), "S": SUBSPACE}),
    "orthonormalize": (rd.orthonormalize, {"M": PHI}),
    "Trajectory": (rd.Trajectory, {"times": TIMES, "states": np.zeros((3, 3, 1)), "meta": {}}),
    "EnsembleState": (rd.EnsembleState, {"phi": PHI, "weights": HEADS,
                                         "cumulants": np.ones((3, 4))}),
    "LinearFlowSpec": (rd.LinearFlowSpec, {"A": SPEC.A, "B": SPEC.B, "phi0": PHI}),
    "matrix_exponential": (rd.matrix_exponential, {"A": SPEC.A, "t": 1.0}),
    "td_value_flow": (rd.td_value_flow, {**FLOW, "v0": np.ones(3)}),
    "mc_value_flow": (rd.mc_value_flow, {**FLOW, "v0": np.ones(3)}),
    "nstep_value_flow": (rd.nstep_value_flow, {**FLOW, "n": 2, "v0": np.ones(3)}),
    "td_lambda_value_flow": (rd.td_lambda_value_flow, {**FLOW, "lam": 0.5, "v0": np.ones(3)}),
    "joint_flow": (rd.joint_flow, {**FLOW, "phi0": PHI, "w0": HEADS[0], "alpha": 1.0,
                                   "beta": 1.0, "step": 0.1}),
    "ensemble_flow-frozen": (rd.ensemble_flow, {**FLOW, "state0": STATE, "alpha": 1.0,
                                                "beta": 0.0, "step": 0.1}),
    "ensemble_flow-trained": (rd.ensemble_flow, {**FLOW, "state0": STATE, "alpha": 1.0,
                                                 "beta": 1.0, "step": 0.1}),
    "sample_weights": (rd.sample_weights, {"M": 4, "K": 2, "variance": 1.0, "seed": 0}),
    "sample_block_orthogonal_weights": (rd.sample_block_orthogonal_weights,
                                        {"M": 4, "K": 2, "n_blocks": 2, "variance": 1.0,
                                         "seed": 0}),
    "sample_cumulants": (rd.sample_cumulants, {"M": 4, "n": 3, "seed": 0}),
    "linear_limit_flow": (rd.linear_limit_flow, {"spec": SPEC, "times": TIMES}),
    "build_multi_task_operator": (rd.build_multi_task_operator, {"chains": [CHAIN, CHAIN]}),
    "split_heads": (rd.split_heads, {"M": 4, "L": 2}),
    "multi_task_flow": (rd.multi_task_flow, {"chains": [CHAIN, CHAIN], "weights": HEADS,
                                             "phi0": PHI, "times": TIMES, "step": 0.1}),
    "trajectory_to_csv": (rd.trajectory_to_csv, {"traj": TRAJECTORY}),
    "Check": (rd.Check, {"name": "c", "value": 1.0, "threshold": 2.0, "comparison": "<",
                         "table": "t"}),
    "Table": (rd.Table, {"columns": ["a", "b"], "rows": np.ones((2, 2))}),
    "ReportBundle": (rd.ReportBundle, {"name": "b", "config": {}, "tables": {}, "figures": {},
                                       "checks": []}),
}
# a runner's only argument is its config; None and {} select the whole default experiment
RUNNERS = ("run_two_state", "run_four_rooms_features", "run_chain_transfer",
           "run_limit_checks", "run_bayes_optimality", "run_multi_task")
ROWS.update({name: (getattr(rd, name), {"config": {"seed": 0}}) for name in RUNNERS})


def test_rows_cover_every_public_callable():
    covered = {fn for fn, _ in ROWS.values()}
    missing = [name for name, value in vars(rd).items()
               if callable(value) and not name.startswith("_") and value not in ERRORS
               and value not in covered]
    assert not missing


@pytest.mark.parametrize("row", [row for row in ROWS if not row.startswith("run_")])
def test_valid_rows_return(row):
    fn, kwargs = ROWS[row]
    fn(**kwargs)


def call_or_typed_error(fn, kwargs) -> str:
    """Call ``fn``; return "" if it returned or raised a typed error, else what went wrong."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn(**kwargs)
        except ERRORS:
            pass
        except Exception as exc:  # the sweep's finding: an untyped error escaped
            return f"{type(exc).__name__}: {exc}"
    stray = [w for w in caught
             if not (w.category is RuntimeWarning and DOCUMENTED_WARNING.search(str(w.message)))]
    return f"{stray[0].category.__name__}: {stray[0].message}" if stray else ""


def test_every_bad_argument_returns_or_raises_a_typed_error():
    failures = []
    for row, (fn, kwargs) in ROWS.items():
        for arg in kwargs:
            for label, bad in BAD_VALUES.items():
                if row.startswith("run_") and label in ("none", "empty-dict"):
                    continue
                problem = call_or_typed_error(fn, {**kwargs, arg: bad})
                if problem:
                    failures.append(f"{row}({arg}={label}): {problem}")
    assert not failures, "\n".join(failures)
