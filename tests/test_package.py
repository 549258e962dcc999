"""The package's public names: the union of its library modules' export lists."""

from __future__ import annotations

import hieralm
from hieralm import alm, control, netflow, problem

PUBLIC = [
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
    "TRACE_FIELDS",
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


def test_public_names():
    assert sorted(hieralm.__all__) == PUBLIC


def test_each_name_resolves_to_its_module_object():
    namespace: dict = {}
    exec("from hieralm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for module in (alm, control, netflow, problem):
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name
