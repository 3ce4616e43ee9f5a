"""Accelerated proximal gradient methods for composite multiobjective problems.

Solves ``min_x (F_1(x), ..., F_m(x))`` in the Pareto sense for objectives
``F_i = f_i + g`` with smooth convex ``f_i`` and a shared nonsmooth convex
``g``, using a momentum method with backtracking curvature estimation.
Ships the min-max subproblem solver, runtime verification of the proved
descent/rate relations, a benchmark suite, front metrics, and a CLI.
"""

from .problems import (Array, CustomNonsmooth, EvaluationError, NonsmoothPart,
                       ProblemInstance, WeightedL1, Zero, evaluate_objectives,
                       pareto_leq, pareto_lt, prox_nonsmooth)
from .subproblem import (SubproblemConfig, SubproblemError, SubproblemSolution,
                         dual_value, inner_primal_step, kkt_residual,
                         project_simplex, solve_subproblem,
                         subproblem_objective, weak_pareto_residual)
from .solver import (Backtracking, BacktrackingError, FixedStep, IterationRecord,
                     PlainProxGrad, RunTrace, SolveResult, SolverConfig,
                     Status, Variant, accepted_L_bound_check,
                     fista_step, run_solver, sufficient_decrease_check)
from .suite import (ProblemDescriptor, available_problems, builtin_problem,
                    load_problem_file, pareto_segment, register_problem,
                    sample_initial_points)
from .diagnostics import (LyapunovSample, ReferenceSet, gap_step_bounds_check,
                          level_set_reference, lyapunov_monotone_check,
                          lyapunov_samples, merit_lower_bound, momentum_offset,
                          objective_gap_min, rate_bound_check)
from .metrics import (Front, PerformanceProfile, nondominated_filter,
                      performance_profile, purity)
from .plots import emit_svg_scatter
from .cli import BenchConfig, BenchReport, ConfigError, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "Array", "CustomNonsmooth", "EvaluationError", "NonsmoothPart",
    "ProblemInstance", "WeightedL1", "Zero", "evaluate_objectives",
    "pareto_leq", "pareto_lt", "prox_nonsmooth",
    "SubproblemConfig", "SubproblemError", "SubproblemSolution", "dual_value",
    "inner_primal_step", "kkt_residual", "project_simplex", "solve_subproblem",
    "subproblem_objective", "weak_pareto_residual",
    "Backtracking", "BacktrackingError", "FixedStep", "IterationRecord",
    "PlainProxGrad", "RunTrace", "SolveResult", "SolverConfig",
    "Status", "Variant", "accepted_L_bound_check", "fista_step", "run_solver",
    "sufficient_decrease_check",
    "ProblemDescriptor", "available_problems", "builtin_problem",
    "load_problem_file", "pareto_segment", "register_problem",
    "sample_initial_points",
    "LyapunovSample", "ReferenceSet", "gap_step_bounds_check",
    "level_set_reference", "lyapunov_monotone_check", "lyapunov_samples",
    "merit_lower_bound", "momentum_offset", "objective_gap_min",
    "rate_bound_check",
    "Front", "PerformanceProfile", "nondominated_filter", "performance_profile",
    "purity",
    "emit_svg_scatter",
    "BenchConfig", "BenchReport", "ConfigError", "run_benchmark",
    "__version__",
]
