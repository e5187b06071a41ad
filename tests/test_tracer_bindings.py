"""The benchmark tracer binds flow and spectral arguments by name; these calls keep the names.

``perfbench/tracer.py`` reads ``times``, ``step`` and ``beta`` of the traced
flows, ``A`` and ``t`` of ``matrix_exponential`` and ``P`` and ``gap_tol`` of
``eigen_decompose`` from their signatures. A renamed or dropped argument
breaks only a traced benchmark run, so one traced call of each runs here,
leaving defaulted arguments to the tracer's binding.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np

import repdyn as rd
from repdyn.experiments import chain_drift
from repdyn.flows import DEFAULT_STEP

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer, rk4_step_count  # noqa: E402


def test_traced_flows_bind_their_arguments_by_name():
    chain = rd.MarkovChain(np.full((3, 3), 1.0 / 3.0), np.array([1.0, 0.0, -1.0]), 0.9)
    other = rd.MarkovChain(np.eye(3)[[1, 2, 0]], np.zeros(3), 0.5)
    phi0 = np.random.default_rng(0).standard_normal((3, 2))
    heads = rd.sample_weights(4, 2, 0.25, 1)
    times = [0.0, 0.5, 1.0]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = "bindings"
        rd.joint_flow(chain, phi0, heads[0], 1.0, 0.0, times)
        rd.joint_flow(chain, phi0, heads[0], 1.0, 1.0, times, step=0.25)
        rd.ensemble_flow(chain, rd.EnsembleState(phi0, heads), 1.0, 0.0, times)
        rd.ensemble_flow(chain, rd.EnsembleState(phi0, heads), 1.0, 1.0, times, step=0.25)
        rd.multi_task_flow([chain, other], heads, phi0, times)
        rd.eigen_decompose(chain_drift().transition)
        rd.matrix_exponential(-np.eye(3), t=0.5)
        tracer.item = None
    finally:
        tracer.uninstall()
    names = Counter(span.name for span in tracer.spans)
    assert names["flows.joint_flow"] == 2
    assert names["flows.ensemble_flow.frozen"] == names["flows.ensemble_flow.trained"] == 1
    assert names["flows.multi_task_flow"] == 1
    m = tracer.pass_metrics()
    # the intervals 0.5, 0.5 share one propagator: each frozen flow takes one exponential
    # call for the stack of its K = 2 columns, the two-task flow one on its Kronecker
    # generator, and one is called directly
    assert m["flows.matrix_exponential.calls"] == m["linalg.expm.calls"] == 1 + 1 + 1 + 1
    assert m["spectral.eigen_decompose.calls"] == 1
    replayed = [rk4_step_count(times, step) for step in (DEFAULT_STEP, 0.25) * 2 + (DEFAULT_STEP,)]
    assert m["flows.rk4_steps"] == sum(replayed)
    assert m["flows.ensemble_flow.frozen.total_s"] > 0.0
    assert m["flows.ensemble_flow.trained.total_s"] > 0.0
    assert m["flows.multi_task_flow.total_s"] > 0.0
