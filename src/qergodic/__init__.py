"""Quasi-ergodic analysis of finite Markov chains absorbed by periodically
moving boundaries.

The library covers the full pipeline: problem definition and validation,
the lifted chain with its static boundary, class decomposition with
periodic Perron theory, conditioned-law evolution and its limit cycles,
mean-ratio (quasi-ergodic) distributions, the chain conditioned to
survive forever, closed-form random-walk oracles, and a reproducible
Monte Carlo engine for cross-checking every spectral prediction.

Importing the package loads numpy only.  scipy is imported on first use
by the lift's survivor matrix, the class decomposition and the
decomposition's extension solve, so the Monte Carlo path never loads it.
"""

from .chain import (
    AbsorbedChainProblem,
    Distribution,
    LiftedChain,
    MovingBoundary,
    StateSpace,
    TransitionKernel,
    lift_chain,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    validate_problem,
)
from .conditioning import (
    CollapsedChain,
    FixedPointSearch,
    QldCycle,
    collapsed_chain,
    conditional_law,
    conditional_law_sequence,
    conditional_step,
    exact_mean_ratio,
    mean_ratio_curve,
    qld_cycle,
    qsd_fixed_point_search,
    state_function,
    write_conditional_laws_csv,
    write_mean_ratio_csv,
)
from .errors import (
    ConvergenceError,
    Hypothesis1Error,
    NoSurvivorsError,
    NullEventError,
    ValidationError,
)
from .qed import ClassSelection, QedResult, qed_fixed, qed_moving, select_dominant
from .qprocess import (
    PhaseSlice,
    QProcessKernel,
    build_qprocess,
    build_qprocess_dominant,
    finite_horizon_qlaw,
)
from .sim import (
    ConditionalEstimates,
    EstimateWithCI,
    SimConfig,
    estimate_conditionals,
    simulate_qprocess,
    survival_curve,
)
from .spectral import (
    ClassDecomposition,
    IrreducibleClass,
    PeripheralSystem,
    decompose_classes,
    peripheral_system,
    perron_data,
    spectral_radius,
    survival_coefficient,
    verify_eigenprojection,
)
from .walks import (
    ChebyshevEigenSystem,
    RandomWalkSpec,
    build_walk,
    closed_form_spectrum,
    fixed_walk,
    moving_walk,
    moving_walk_qed,
    moving_walk_rho,
    qprocess_closed_form,
    survivor_matrix_fixed,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorbedChainProblem",
    "ChebyshevEigenSystem",
    "ClassDecomposition",
    "ClassSelection",
    "CollapsedChain",
    "ConditionalEstimates",
    "ConvergenceError",
    "Distribution",
    "EstimateWithCI",
    "FixedPointSearch",
    "Hypothesis1Error",
    "IrreducibleClass",
    "LiftedChain",
    "MovingBoundary",
    "NoSurvivorsError",
    "NullEventError",
    "PeripheralSystem",
    "PhaseSlice",
    "QProcessKernel",
    "QedResult",
    "QldCycle",
    "RandomWalkSpec",
    "SimConfig",
    "StateSpace",
    "TransitionKernel",
    "ValidationError",
    "build_qprocess",
    "build_qprocess_dominant",
    "build_walk",
    "closed_form_spectrum",
    "collapsed_chain",
    "conditional_law",
    "conditional_law_sequence",
    "conditional_step",
    "decompose_classes",
    "estimate_conditionals",
    "exact_mean_ratio",
    "fixed_walk",
    "finite_horizon_qlaw",
    "lift_chain",
    "load_problem",
    "mean_ratio_curve",
    "moving_walk",
    "moving_walk_qed",
    "moving_walk_rho",
    "peripheral_system",
    "perron_data",
    "problem_from_dict",
    "problem_to_dict",
    "qed_fixed",
    "qed_moving",
    "qld_cycle",
    "qprocess_closed_form",
    "qsd_fixed_point_search",
    "save_problem",
    "select_dominant",
    "simulate_qprocess",
    "spectral_radius",
    "state_function",
    "survival_coefficient",
    "survival_curve",
    "survivor_matrix_fixed",
    "validate_problem",
    "verify_eigenprojection",
    "write_conditional_laws_csv",
    "write_mean_ratio_csv",
]
