"""Benchmark harness: shared-start multi-solver runs, CSV tables, SVG fronts.

Protocol per (problem, solver) pair: run every solver from the *same*
initial points, record per-run iteration counts / wall time / final
iterates, then aggregate mean iterations, mean wall time, and purity of
each solver's merged nondominated front.  All emitted CSV content is
deterministic for a fixed seed except the wall-time columns.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .metrics import Front, nondominated_filter, performance_profile, purity
from .plots import emit_svg_scatter
from .problems import Array, EvaluationError, ProblemInstance
from .solver import (BacktrackingError, Backtracking, FixedStep, PlainProxGrad,
                     SolverConfig, Status, Variant, run_solver)
from .suite import ProblemDescriptor, available_problems, builtin_problem, \
    sample_initial_points

__all__ = ["BenchConfig", "BenchReport", "ConfigError", "run_benchmark", "main"]

SOLVER_NAMES = ("backtracking", "fixed", "pgm")


class ConfigError(ValueError):
    """Invalid benchmark configuration; maps to exit code 2."""


@dataclass(frozen=True)
class BenchConfig:
    problems: tuple[str, ...] = ("all",)
    runs: int = 200
    seed: int = 0
    solvers: tuple[str, ...] = ("backtracking",)
    L_init: float = 1.0
    beta: float = 2.0
    sigma: float = 2.0
    eps: float = 1e-3
    max_iter: int = 1000
    out_dir: Union[str, Path] = Path("bench_out")
    fixed_L: Optional[float] = None
    fixed_L_scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "problems", tuple(self.problems))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if not self.problems:
            raise ConfigError("at least one problem required")
        if not self.solvers:
            raise ConfigError("at least one solver required")
        for names in (self.problems, self.solvers):
            if len(set(names)) < len(names):
                raise ConfigError(f"repeated name in {list(names)}")
        unknown = [s for s in self.solvers if s not in SOLVER_NAMES]
        if unknown:
            raise ConfigError(f"unknown solver(s) {unknown}; choose from {SOLVER_NAMES}")
        if self.fixed_L is not None and not 0.0 < self.fixed_L < np.inf:
            raise ConfigError("fixed_L must be positive and finite")
        if not 0.0 < self.fixed_L_scale < np.inf:
            raise ConfigError("fixed_L_scale must be positive and finite")
        _base_solver_config(self)


def _base_solver_config(bc: BenchConfig) -> SolverConfig:
    """Solver settings shared by every run; invalid values raise ConfigError."""
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
    reason: str  # the error's message on rows with status "error", else empty
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


def _variant_for(name: str, desc: ProblemDescriptor, bc: BenchConfig) -> Variant:
    if name == "backtracking":
        return Backtracking()
    L = bc.fixed_L
    if L is None:
        if desc.L_true is None:
            raise ConfigError(
                f"solver {name!r} on {desc.name!r} needs --fixed-l: the instance "
                "has no known gradient Lipschitz constant to scale")
        L = desc.L_true * bc.fixed_L_scale
    return FixedStep(L) if name == "fixed" else PlainProxGrad(L)


def _single_run(p: ProblemInstance, cfg: SolverConfig, x0: Array,
                problem: str, solver: str, run_id: int) -> RunRow:
    tick = time.perf_counter()
    try:
        res = run_solver(p, x0, cfg)
    except (BacktrackingError, EvaluationError) as exc:
        wall = (time.perf_counter() - tick) * 1e3
        return RunRow(problem=problem, solver=solver, run_id=run_id,
                      status="error", iterations=0, backtracks_total=0,
                      wall_ms=wall, final_residual=float("nan"), reason=str(exc),
                      objectives=np.full(p.m, np.nan), x=np.asarray(x0, float))
    wall = (time.perf_counter() - tick) * 1e3
    recs = res.trace.records
    return RunRow(
        problem=problem, solver=solver, run_id=run_id, status=res.status.value,
        iterations=len(recs),
        backtracks_total=sum(r.backtracks for r in recs),
        wall_ms=wall,
        final_residual=recs[-1].residual if recs else float("nan"),
        reason="",
        objectives=recs[-1].objectives if recs else res.trace.objectives0,
        x=res.x,
    )


def _resolve_problems(bc: BenchConfig) -> list[tuple[ProblemInstance, ProblemDescriptor]]:
    names = available_problems() if "all" in bc.problems else list(bc.problems)
    out = []
    for name in names:
        try:
            p, desc = builtin_problem(name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
        if desc.m < 2:
            raise ConfigError(f"problem {name!r} has {desc.m} objective; "
                              "the benchmark's fronts need at least 2")
        out.append((p, desc))
    return out


def run_benchmark(bc: BenchConfig) -> BenchReport:
    resolved = _resolve_problems(bc)
    base = _base_solver_config(bc)

    rows = []
    for p, desc in resolved:
        starts = sample_initial_points(desc, bc.runs,
                                       (bc.seed, zlib.crc32(desc.name.encode())))
        for solver in bc.solvers:
            cfg = replace(base, variant=_variant_for(solver, desc, bc))
            for run_id in range(bc.runs):
                rows.append(_single_run(p, cfg, starts[run_id], desc.name, solver, run_id))

    out_dir = Path(bc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_results(out_dir / "results.csv", rows, resolved)

    aggregates = []
    for _, desc in resolved:
        fronts = {}
        for solver in bc.solvers:
            sub = [r for r in rows if r.problem == desc.name and r.solver == solver
                   and np.all(np.isfinite(r.objectives))]
            if sub:
                fronts[solver] = nondominated_filter(
                    np.vstack([r.objectives for r in sub]),
                    np.vstack([r.x for r in sub]))
            else:
                fronts[solver] = Front(objectives=np.empty((0, desc.m)))
        front_list = list(fronts.values())
        for solver in bc.solvers:
            sub = [r for r in rows if r.problem == desc.name and r.solver == solver]
            aggregates.append((
                desc.name, solver,
                float(np.mean([r.iterations for r in sub])),
                float(np.mean([r.wall_ms for r in sub])),
                purity(fronts[solver], front_list),
            ))
        _write_fronts(out_dir / f"fronts_{desc.name}.csv", fronts, desc)
        merged_obj = [f.objectives for f in front_list if len(f) > 0]
        merged = nondominated_filter(np.vstack(merged_obj)) if merged_obj \
            else Front(objectives=np.empty((0, desc.m)))
        axes = (0, 1) if desc.m == 2 else (0, 1, 2)
        emit_svg_scatter(merged, axes, out_dir / f"front_{desc.name}.svg")

    _write_aggregates(out_dir / "aggregates.csv", aggregates)
    _write_profiles(out_dir / "profiles.csv", rows, bc, resolved)

    failed = sum(1 for r in rows if r.status != Status.CONVERGED.value)
    return BenchReport(rows=tuple(rows), aggregates=tuple(aggregates),
                       out_dir=out_dir, failed=failed)


def _write_results(path: Path, rows: Sequence[RunRow],
                   resolved: Sequence[tuple[ProblemInstance, ProblemDescriptor]]) -> None:
    max_m = max(desc.m for _, desc in resolved)
    max_n = max(desc.n for _, desc in resolved)
    header = (["problem", "solver", "run_id", "status", "iterations",
               "backtracks_total", "wall_ms", "final_residual", "reason"]
              + [f"F_{i + 1}" for i in range(max_m)]
              + [f"x_{i + 1}" for i in range(max_n)])
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            pad_f = [""] * (max_m - len(r.objectives))
            pad_x = [""] * (max_n - len(r.x))
            w.writerow([r.problem, r.solver, r.run_id, r.status, r.iterations,
                        r.backtracks_total, _fmt(r.wall_ms), _fmt(r.final_residual),
                        r.reason]
                       + [_fmt(v) for v in r.objectives] + pad_f
                       + [_fmt(v) for v in r.x] + pad_x)


def _write_fronts(path: Path, fronts: dict[str, Front], desc: ProblemDescriptor) -> None:
    header = (["solver"] + [f"F_{i + 1}" for i in range(desc.m)]
              + [f"x_{i + 1}" for i in range(desc.n)])
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for solver, front in fronts.items():
            dec = front.decisions if front.decisions is not None \
                else np.full((len(front), desc.n), np.nan)
            for obj_row, x_row in zip(front.objectives, dec):
                w.writerow([solver] + [_fmt(v) for v in obj_row]
                           + [_fmt(v) for v in x_row])


def _write_aggregates(path: Path, aggregates) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["problem", "solver", "mean_iter", "mean_ms", "purity"])
        for problem, solver, mean_iter, mean_ms, pur in aggregates:
            w.writerow([problem, solver, _fmt(mean_iter), _fmt(mean_ms), _fmt(pur)])


def _write_profiles(path: Path, rows: Sequence[RunRow], bc: BenchConfig,
                    resolved: Sequence[tuple[ProblemInstance, ProblemDescriptor]]) -> None:
    """Iteration-count profiles; each (problem, run) pair is one column."""
    solvers = list(bc.solvers)
    by_key = {(r.problem, r.solver, r.run_id): r for r in rows}
    costs = np.full((len(solvers), len(resolved) * bc.runs), np.nan)
    for s, solver in enumerate(solvers):
        col = 0
        for _, desc in resolved:
            for run_id in range(bc.runs):
                r = by_key[(desc.name, solver, run_id)]
                if r.status == Status.CONVERGED.value:
                    costs[s, col] = float(r.iterations)
                col += 1
    if not np.any(np.isfinite(costs)):
        path.write_text("tau\n")
        return
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        prof = performance_profile(costs, solvers)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["tau"] + solvers)
        for t, tau in enumerate(prof.taus):
            w.writerow([_fmt(tau)] + [_fmt(prof.fractions[s, t])
                                      for s in range(len(solvers))])


_CSV_LIST = lambda s: tuple(part.strip() for part in s.split(",") if part.strip())

_FLAG_TYPES = {
    "problems": _CSV_LIST,
    "solvers": _CSV_LIST,
    "runs": int,
    "seed": int,
    "max_iter": int,
    "l0": float,
    "beta": float,
    "sigma": float,
    "eps": float,
    "fixed_l": float,
    "fixed_l_scale": float,
    "out": str,
}


def _parse_config_file(path: str) -> dict:
    """key=value lines; '#' comments; keys match the CLI flags."""
    defaults = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower().replace("-", "_")
        if key not in _FLAG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            defaults[key] = _FLAG_TYPES[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return defaults


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mofista-bench",
        description="Benchmark the accelerated multiobjective proximal solvers.")
    ap.add_argument("--problems", type=_CSV_LIST, default=("all",),
                    help="comma-separated problem names, or 'all' (default)")
    ap.add_argument("--runs", type=int, default=200, help="runs per problem (default 200)")
    ap.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    ap.add_argument("--solvers", type=_CSV_LIST, default=("backtracking",),
                    help=f"comma-separated subset of {','.join(SOLVER_NAMES)}")
    ap.add_argument("--l0", type=float, default=1.0, help="initial curvature estimate")
    ap.add_argument("--beta", type=float, default=2.0, help="backtracking inflation factor")
    ap.add_argument("--sigma", type=float, default=2.0, help="largest per-iteration deflation factor")
    ap.add_argument("--eps", type=float, default=1e-3, help="stopping residual")
    ap.add_argument("--max-iter", type=int, default=1000, help="iteration cap per run")
    ap.add_argument("--out", type=str, default="bench_out", help="output directory")
    ap.add_argument("--fixed-l", type=float, default=None, dest="fixed_l",
                    help="step constant for the fixed/pgm solvers (overrides scaling)")
    ap.add_argument("--fixed-l-scale", type=float, default=1.0, dest="fixed_l_scale",
                    help="multiple of the known constant used by fixed/pgm (default 1)")
    ap.add_argument("--config", type=str, default=None,
                    help="key=value file supplying defaults for any flag")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", type=str, default=None)
    known, _ = pre.parse_known_args(argv)
    parser = _build_parser()
    try:
        if known.config is not None:
            parser.set_defaults(**_parse_config_file(known.config))
        ns = parser.parse_args(argv)
        bc = BenchConfig(
            problems=ns.problems, runs=ns.runs, seed=ns.seed, solvers=ns.solvers,
            L_init=ns.l0, beta=ns.beta, sigma=ns.sigma, eps=ns.eps,
            max_iter=ns.max_iter, out_dir=ns.out, fixed_L=ns.fixed_l,
            fixed_L_scale=ns.fixed_l_scale)
        report = run_benchmark(bc)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for problem, solver, mean_iter, mean_ms, pur in report.aggregates:
        print(f"{problem:12s} {solver:12s} mean_iter={mean_iter:9.2f} "
              f"mean_ms={mean_ms:9.2f} purity={pur:6.3f}")
    print(f"wrote {report.out_dir}/results.csv "
          f"({len(report.rows)} runs, {report.failed} not converged)")
    return 0 if report.failed == 0 else 1
