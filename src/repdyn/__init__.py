"""repdyn: a tabular laboratory for value-learning dynamics and spectral features.

Exact MDP machinery, closed-form and integrated learning flows, spectral
feature decompositions of transition operators, subspace geometry, and
scripted desk-scale experiments with reproducible report bundles.
"""

from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    NumericalError,
    RankDeficiencyError,
)
from .mdp import (
    MarkovChain,
    Mdp,
    Policy,
    PolicyIterationTrace,
    build_chain_mdp,
    build_four_rooms,
    build_two_state_mdp,
    exact_value,
    four_rooms_coords,
    four_rooms_map,
    greedy_policy,
    gridworld_from_map,
    induce,
    policy_iteration,
)
from .spectral import (
    PrincipalAngles,
    SpectralDecomposition,
    Subspace,
    ebf,
    eigen_decompose,
    grassmann_distance,
    orthonormalize,
    resolvent,
    rsbf,
    vector_subspace_angle,
)
from .flows import (
    EnsembleState,
    LinearFlowSpec,
    Trajectory,
    build_multi_task_operator,
    ensemble_flow,
    joint_flow,
    linear_limit_flow,
    matrix_exponential,
    mc_value_flow,
    multi_task_flow,
    nstep_value_flow,
    sample_block_orthogonal_weights,
    sample_cumulants,
    sample_weights,
    split_heads,
    td_lambda_value_flow,
    td_value_flow,
    trajectory_to_csv,
)
from .report import Check, ReportBundle, Table
from .experiments import (
    run_bayes_optimality,
    run_chain_transfer,
    run_four_rooms_features,
    run_limit_checks,
    run_multi_task,
    run_two_state,
)

__version__ = "0.1.0"
