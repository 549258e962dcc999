"""Augmented Lagrangian solver for convex QPs with two priority levels of
equality constraints, including exact and weighted infeasibility shifts."""

from .alm import (
    TRACE_FIELDS,
    IterationRecord,
    IterationState,
    Mode,
    SolveReport,
    SolverConfig,
    Status,
    SubproblemUnboundedError,
    iterate,
    kkt_residual,
    solve,
    solve_subproblem,
    update_penalty,
)
from .control import (
    OracleResult,
    SigmaPair,
    SigmaSchedule,
    approximate_shift,
    approximate_shift_sequence,
    hierarchical_shift,
    sigma_at,
)
from .netflow import GridSpec, build_instance, grid_incidence
from .problem import (
    HierarchicalShift,
    ProblemData,
    ProblemFormatError,
    constraint_residuals,
    load_problem,
    objective_value,
    problem_document,
    save_problem,
    validate_problem,
)

__version__ = "0.1.0"

__all__ = [
    "TRACE_FIELDS",
    "GridSpec",
    "HierarchicalShift",
    "IterationRecord",
    "IterationState",
    "Mode",
    "OracleResult",
    "ProblemData",
    "ProblemFormatError",
    "SigmaPair",
    "SigmaSchedule",
    "SolveReport",
    "SolverConfig",
    "Status",
    "SubproblemUnboundedError",
    "approximate_shift",
    "approximate_shift_sequence",
    "build_instance",
    "constraint_residuals",
    "grid_incidence",
    "hierarchical_shift",
    "iterate",
    "kkt_residual",
    "load_problem",
    "objective_value",
    "problem_document",
    "save_problem",
    "sigma_at",
    "solve",
    "solve_subproblem",
    "update_penalty",
    "validate_problem",
]
