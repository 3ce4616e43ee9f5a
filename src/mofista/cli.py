"""Benchmark harness: shared-start multi-solver runs, CSV tables, SVG fronts.

Protocol per (problem, solver) pair: run every solver from the *same*
initial points, record per-run iteration counts / wall time / final
iterates, then aggregate mean iterations, mean wall time, and purity of
each solver's front against the merged one.  All emitted CSV content is
deterministic for a fixed seed except the wall-time columns.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .metrics import Front, nondominated_filter, performance_profile, purity
from .plots import emit_svg_scatter
from .problems import Array, ProblemInstance, _is_number
from .solver import SolverConfig, Status, Variant, _check_real, run_solver
from .suite import ProblemDescriptor, available_problems, builtin_problem, \
    sample_initial_points

__all__ = ["BenchConfig", "BenchReport", "ConfigError", "run_benchmark", "main"]

SOLVER_NAMES = tuple(v.value for v in Variant)


class ConfigError(ValueError):
    """Invalid benchmark configuration; maps to exit code 2."""


@dataclass(frozen=True)
class BenchConfig:
    problems: tuple[str, ...] = ("all",)
    runs: int = 200
    seed: int = 0
    solvers: tuple[str, ...] = ("backtracking",)
    L_init: float = SolverConfig.L_init
    beta: float = SolverConfig.beta
    sigma: float = SolverConfig.sigma
    eps: float = SolverConfig.eps
    max_iter: int = SolverConfig.max_iter
    out_dir: Union[str, Path] = Path("bench_out")
    fixed_L: Optional[float] = None
    fixed_L_scale: float = 1.0

    def __post_init__(self) -> None:
        for key in ("problems", "solvers"):
            given = getattr(self, key)
            names = tuple(given) if isinstance(given, Sequence) and not isinstance(given, str) else ()
            if not names or len(set(names)) < len(names):
                raise ConfigError(f"{key} must be one or more distinct names, got {given!r}")
            object.__setattr__(self, key, names)
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if not _is_number(self.runs) or self.runs < 1:
            raise ConfigError("runs must be an integer of at least 1")
        if not _is_number(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        unknown = [s for s in self.solvers if s not in SOLVER_NAMES]
        if unknown:
            raise ConfigError(f"unknown solver(s) {unknown}; choose from {SOLVER_NAMES}")
        _check_real(self.fixed_L_scale, "fixed_L_scale", error=ConfigError)
        if self.fixed_L is not None:
            _check_real(self.fixed_L, "fixed_L", error=ConfigError)
        _base_solver_config(self)


def _base_solver_config(bc: BenchConfig) -> SolverConfig:
    """Shared run settings, backtracking's; bad ones raise ConfigError."""
    try:
        return SolverConfig(L_init=bc.L_init, beta=bc.beta, sigma=bc.sigma,
                            eps=bc.eps, max_iter=bc.max_iter)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class RunRow:
    problem: str
    solver: str
    run_id: int
    status: str
    iterations: int
    backtracks_total: int
    wall_ms: float
    final_residual: float
    reason: str  # the run's stop reason, empty on rows with status "converged"
    objectives: Array
    x: Array


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[RunRow, ...]
    aggregates: tuple[tuple[str, str, float, float, float], ...]
    out_dir: Path
    failed: int


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _step_constant(name: str, desc: ProblemDescriptor, bc: BenchConfig) -> float:
    """Solver ``name``'s ``L_init`` on ``desc``: backtracking's first trial, else the held step."""
    if name == Variant.BACKTRACKING.value:
        return bc.L_init
    if bc.fixed_L is not None:
        return bc.fixed_L
    if desc.L_true is None:
        raise ConfigError(
            f"solver {name!r} on {desc.name!r} needs --fixed-l: the instance "
            "has no known gradient Lipschitz constant to scale")
    return desc.L_true * bc.fixed_L_scale


def _single_run(p: ProblemInstance, cfg: SolverConfig, x0: Array,
                problem: str, solver: str, run_id: int) -> RunRow:
    tick = time.perf_counter()
    # A diverging run ends as a row whose reason says why; numpy's overflow
    # warnings on the way there would only repeat it on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        res = run_solver(p, x0, cfg)
    wall = (time.perf_counter() - tick) * 1e3
    recs = res.trace.records
    return RunRow(problem=problem, solver=solver, run_id=run_id, status=res.status.value,
                  iterations=len(recs), backtracks_total=sum(r.backtracks for r in recs),
                  wall_ms=wall, final_residual=recs[-1].residual if recs else float("nan"),
                  reason=res.reason, x=res.x,
                  objectives=recs[-1].objectives if recs else res.trace.objectives0)


def _resolve_problems(bc: BenchConfig) -> list[tuple[ProblemInstance, ProblemDescriptor,
                                                        dict[str, SolverConfig]]]:
    """Each problem with the solver settings of every solver on it; raises
    ConfigError for any setting that cannot run, before anything is solved."""
    base = _base_solver_config(bc)
    names = available_problems() if "all" in bc.problems else list(bc.problems)
    out = []
    for name in names:
        try:
            p, desc = builtin_problem(name)
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if p.m < 2:
            raise ConfigError(f"problem {name!r} has {p.m} objective; "
                              "the benchmark's fronts need at least 2")
        steps = {solver: _step_constant(solver, desc, bc) for solver in bc.solvers}
        try:
            out.append((p, desc, {solver: replace(base, variant=solver, L_init=L)
                                  for solver, L in steps.items()}))
        except ValueError as exc:
            raise ConfigError(f"problem {name!r}: {exc}") from None
    return out


def run_benchmark(bc: BenchConfig) -> BenchReport:
    resolved = _resolve_problems(bc)
    bc.out_dir.mkdir(parents=True, exist_ok=True)

    rows, aggregates = [], []
    for p, desc, cfgs in resolved:
        starts = sample_initial_points(desc, bc.runs,
                                       (bc.seed, zlib.crc32(desc.name.encode())))
        groups, fronts = {}, {}
        for solver, cfg in cfgs.items():
            group = groups[solver] = [_single_run(p, cfg, x0, desc.name, solver, run_id)
                                      for run_id, x0 in enumerate(starts)]
            sub = [r for r in group if np.all(np.isfinite(r.objectives))]
            fronts[solver] = nondominated_filter(
                np.vstack([r.objectives for r in sub]), np.vstack([r.x for r in sub])
            ) if sub else Front(objectives=np.empty((0, p.m)))
        merged = nondominated_filter(np.vstack([f.objectives for f in fronts.values()]))
        for solver, group in groups.items():
            rows += group
            aggregates.append((
                desc.name, solver,
                float(np.mean([r.iterations for r in group])),
                float(np.mean([r.wall_ms for r in group])),
                purity(fronts[solver], merged),
            ))
        _write_fronts(bc.out_dir / f"fronts_{desc.name}.csv", fronts, p)
        emit_svg_scatter(merged, bc.out_dir / f"front_{desc.name}.svg")

    _write_results(bc.out_dir / "results.csv", rows)
    _write_aggregates(bc.out_dir / "aggregates.csv", aggregates)
    _write_profiles(bc.out_dir / "profiles.csv", rows, bc.solvers)

    failed = sum(1 for r in rows if r.status != Status.CONVERGED.value)
    return BenchReport(rows=tuple(rows), aggregates=tuple(aggregates),
                       out_dir=bc.out_dir, failed=failed)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _fmts(values, width: int = 0) -> list[str]:
    """Formatted values, padded with empty cells to ``width``."""
    return [_fmt(v) for v in values] + [""] * (width - len(values))


def _write_results(path: Path, rows: Sequence[RunRow]) -> None:
    max_m = max(r.objectives.size for r in rows)
    max_n = max(r.x.size for r in rows)
    header = (["problem", "solver", "run_id", "status", "iterations",
               "backtracks_total", "wall_ms", "final_residual", "reason"]
              + [f"F_{i + 1}" for i in range(max_m)]
              + [f"x_{i + 1}" for i in range(max_n)])
    _write_csv(path, header, (
        [r.problem, r.solver, r.run_id, r.status, r.iterations, r.backtracks_total,
         _fmt(r.wall_ms), _fmt(r.final_residual), r.reason]
        + _fmts(r.objectives, max_m) + _fmts(r.x, max_n) for r in rows))


def _write_fronts(path: Path, fronts: dict[str, Front], p: ProblemInstance) -> None:
    header = (["solver"] + [f"F_{i + 1}" for i in range(p.m)]
              + [f"x_{i + 1}" for i in range(p.n)])
    _write_csv(path, header, (
        [solver] + _fmts(front.objectives[i]) + _fmts(front.decisions[i])
        for solver, front in fronts.items() for i in range(len(front))))


def _write_aggregates(path: Path, aggregates) -> None:
    _write_csv(path, ["problem", "solver", "mean_iter", "mean_ms", "purity"],
               ([problem, solver] + _fmts(values) for problem, solver, *values in aggregates))


def _write_profiles(path: Path, rows: Sequence[RunRow], solvers: Sequence[str]) -> None:
    """Iteration-count profiles; each (problem, run) pair is one column."""
    solvers = list(solvers)
    costs = np.array([[r.iterations if r.status == Status.CONVERGED.value else np.nan
                       for r in rows if r.solver == solver]
                      for solver in solvers], dtype=float)
    # Columns no solver converged on have no ratio, and performance_profile
    # rejects them: this is the one place they are dropped.
    costs = costs[:, np.isfinite(costs).any(axis=0)]
    if not costs.size:
        _write_csv(path, ["tau"], [])
        return
    prof = performance_profile(costs, solvers)
    _write_csv(path, ["tau"] + solvers,
               ([_fmt(tau)] + _fmts(prof.fractions[:, t]) for t, tau in enumerate(prof.taus)))


_CSV_LIST = lambda s: tuple(part.strip() for part in s.split(",") if part.strip())

# The one declaration of every setting: flag -> (BenchConfig field, type,
# help).  Defaults live on BenchConfig alone.
_SETTINGS = {
    "problems": ("problems", _CSV_LIST, "comma-separated problem names, or 'all'"),
    "runs": ("runs", int, "runs per problem"),
    "seed": ("seed", int, "base RNG seed"),
    "solvers": ("solvers", _CSV_LIST, f"comma-separated subset of {','.join(SOLVER_NAMES)}"),
    "l0": ("L_init", float, "initial curvature estimate"),
    "beta": ("beta", float, "backtracking inflation factor"),
    "sigma": ("sigma", float, "largest per-iteration deflation factor"),
    "eps": ("eps", float, "stopping residual"),
    "max_iter": ("max_iter", int, "iteration cap per run"),
    "out": ("out_dir", str, "output directory"),
    "fixed_l": ("fixed_L", float, "step constant for fixed/pgm; overrides --fixed-l-scale"),
    "fixed_l_scale": ("fixed_L_scale", float, "multiple of the known constant used by fixed/pgm"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mofista-bench", argument_default=argparse.SUPPRESS,
        description="Benchmark the accelerated multiobjective proximal solvers.")
    defaults = {f.name: f.default for f in fields(BenchConfig)}
    for key, (name, kind, text) in _SETTINGS.items():
        default = defaults[name]
        shown = ",".join(default) if isinstance(default, tuple) else default
        ap.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                        help=f"{text} (default {shown})")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    try:
        report = run_benchmark(BenchConfig(**{_SETTINGS[k][0]: v for k, v in flags.items()}))
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for problem, solver, mean_iter, mean_ms, pur in report.aggregates:
        print(f"{problem:12s} {solver:12s} mean_iter={mean_iter:9.2f} "
              f"mean_ms={mean_ms:9.2f} purity={pur:6.3f}")
    print(f"wrote {report.out_dir}/results.csv "
          f"({len(report.rows)} runs, {report.failed} not converged)")
    return 0 if report.failed == 0 else 1
