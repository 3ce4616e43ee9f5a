"""Accelerated proximal gradient methods for composite multiobjective problems.

Solves ``min_x (F_1(x), ..., F_m(x))`` in the Pareto sense for objectives
``F_i = f_i + g`` with smooth convex ``f_i`` and a shared nonsmooth convex
``g``, using a momentum method with backtracking curvature estimation.
Ships the min-max subproblem solver, runtime verification of the proved
descent/rate relations, a benchmark suite, front metrics, and a CLI.
"""

from .problems import (CustomNonsmooth, EvaluationError, NonsmoothPart,
                       ProblemInstance, WeightedL1, Zero)
from .subproblem import SubproblemConfig
from .solver import (IterationRecord, RunTrace, SolveResult, SolverConfig, Status,
                     Variant, run_solver)
from .suite import (ProblemDescriptor, available_problems, builtin_problem,
                    load_problem_file, sample_initial_points)
from .diagnostics import (ReferenceSet, accepted_L_bound_check, gap_step_bounds_check,
                          level_set_reference, lyapunov_energies,
                          lyapunov_monotone_check, momentum_growth_check)
from .metrics import (Front, PerformanceProfile, nondominated_filter,
                      performance_profile, purity)
from .cli import BenchConfig, BenchReport, ConfigError, run_benchmark

__version__ = "0.1.0"

# The documented surface (see the README's "Public API"); everything else
# is imported from its module, e.g. ``mofista.subproblem.solve_subproblem``.
__all__ = [
    "CustomNonsmooth", "EvaluationError", "NonsmoothPart", "ProblemInstance",
    "WeightedL1", "Zero",
    "SubproblemConfig",
    "IterationRecord", "RunTrace", "SolveResult", "SolverConfig", "Status", "Variant",
    "run_solver",
    "ProblemDescriptor", "available_problems", "builtin_problem",
    "load_problem_file", "sample_initial_points",
    "ReferenceSet", "accepted_L_bound_check", "gap_step_bounds_check",
    "level_set_reference", "lyapunov_energies", "lyapunov_monotone_check",
    "momentum_growth_check",
    "Front", "PerformanceProfile", "nondominated_filter", "performance_profile",
    "purity",
    "BenchConfig", "BenchReport", "ConfigError", "run_benchmark",
    "__version__",
]
