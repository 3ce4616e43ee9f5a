"""The four benchmark workloads: inputs, set-up, one pass, and output checks.

Every workload is a closed loop in one process: the caller waits for each
solve before it starts the next, with no threads.  A *pass* is the fixed set
of solves a seed defines; every pass of a run repeats the same solves, so
counts taken over one pass are deterministic and every pass must reproduce
the first one exactly.

The program is reached only through module paths (``mofista.suite``,
``mofista.cli``, ...), never through the package's ``__all__``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

EPS = 1e-6
# A converged solve passes its output check when one more prox-gradient step
# from its final iterate, at its last accepted L, moves at most this multiple
# of eps.  Over about 1000 converged solves of these workloads the largest
# value seen was 3.6 eps and nearly all were below 1.7 eps; a solve that
# stopped away from a weakly Pareto point moves by far more.
RESIDUAL_FACTOR = 10.0

MODULES = ("problems", "subproblem", "solver", "suite", "cli")

# builtin_m2: problem -> starts per pass.  DD1 hits MAX_ITER or a subproblem
# failure on about half its starts, and a MAX_ITER run costs one full
# iteration budget, so it gets few starts and a smaller budget below.
# Passes are sized so that the counts of one seed differ from another's by
# well under a tenth.
BUILTIN_MIX = (("SP1_l1", 40), ("SP1", 40), ("FF1", 40), ("BK1_l1", 16),
               ("JOS1_l1", 16), ("DD1", 2))
# Every converged run of the built-ins measured so far needed at most 220
# iterations; 300 caps the cost of a DD1 run that stalls.
BUILTIN_MAX_ITER = 300

# Generated convex quadratics: (m, n, problems per pass, starts per problem).
# Iteration counts vary more between problems than between starts, so the
# m = 3 pass spreads its solves over many problems.
GENERATED = {
    "generated_m3": (3, 8, 24, 1),
    "generated_large_n": (2, 300, 6, 4),
}
GEN_CONDITION = 10.0
GEN_L1_WEIGHT = 0.1
GEN_BOX = 2.0

# Convex built-ins with a known L.  BK1_l1, JOS1 and the other quadratic
# families converge in two iterations under every solver; with more than one
# of them, half the rows are such runs and the median solve time falls in
# the gap between the two groups.
CLI_PROBLEMS = ("SP1_l1", "SP1", "MHHM2")
CLI_SOLVERS = ("backtracking", "fixed", "pgm")
# One pass is CLI_SUBRUNS calls of run_benchmark, each with its own seed and
# CLI_RUNS starts per problem, so that calibrations fall between calls.
CLI_SUBRUNS = 6
CLI_RUNS = 6

# Untraced passes per run, at least.  Where many solves share one
# calibration chunk (a CLI call is one block), a short slowdown of the host
# escapes the calibration and would set the tail; two passes let each solve
# keep its faster time.  A generated solve is calibrated on its own.
MIN_PASSES = {"builtin_m2": 2, "cli_suite": 2, "generated_m3": 1, "generated_large_n": 1}


def import_program() -> SimpleNamespace:
    """Fresh import of the program's modules (drops any earlier import)."""
    for name in [k for k in sys.modules if k == "mofista" or k.startswith("mofista.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("mofista." + m) for m in MODULES})


def coupled_tol(cfg) -> float:
    """The inner tolerance ``run_solver`` couples to ``cfg.eps``."""
    return min(cfg.subproblem.tol, max((cfg.eps / 100.0) ** 2, 1e-12))


# ---------------------------------------------------------------------------
# inputs


def quadratic_spec(rng: np.random.Generator, name: str, m: int, n: int) -> dict:
    """``f_i(x) = x' Q_i x / 2 - c_i' Q_i x`` in ``load_problem_file``'s
    format, minimised at ``c_i``: each ``Q_i`` has a fixed spectrum from 1 to ``GEN_CONDITION``
    in a random orthonormal basis, each minimiser ``c_i`` is uniform in
    ``[-1, 1]^n``, and a shared l1 term is added."""
    eigs = np.geomspace(1.0, GEN_CONDITION, n)
    objectives = []
    for _ in range(m):
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        quad = (basis * eigs) @ basis.T
        center = rng.uniform(-1.0, 1.0, n)
        objectives.append({"quad": quad.tolist(), "linear": (-quad @ center).tolist()})
    return {"name": name, "n": n, "m": m, "lower": [-GEN_BOX] * n,
            "upper": [GEN_BOX] * n, "l1_weight": GEN_L1_WEIGHT,
            "objectives": objectives}


def write_inputs(workload: str, seed: int, work: Path) -> list[Path]:
    """Problem files of a generated workload, deterministic in ``seed``."""
    if workload not in GENERATED:
        return []
    m, n, count, _ = GENERATED[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    paths = []
    for k in range(count):
        path = work / f"{workload}_{k}.json"
        path.write_text(json.dumps(quadratic_spec(rng, f"{workload}_{k}", m, n)))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# solve workloads


@dataclasses.dataclass(frozen=True)
class Job:
    problem: str
    p: object
    x0: np.ndarray
    cfg: object


@dataclasses.dataclass(frozen=True)
class Outcome:
    status: str
    iterations: int
    backtracks: int
    x: Optional[np.ndarray]
    L: Optional[float]
    records: tuple = ()

    def same_as(self, other: "Outcome") -> bool:
        return (self.status == other.status and self.iterations == other.iterations
                and self.backtracks == other.backtracks
                and (self.x is None) == (other.x is None)
                and (self.x is None or np.array_equal(self.x, other.x)))


def interleave(groups: list[list]) -> list:
    """Round-robin merge, so any prefix of a pass mixes every problem."""
    out = []
    for k in range(max(len(g) for g in groups)):
        out.extend(g[k] for g in groups if k < len(g))
    return out


def setup_solves(mods: SimpleNamespace, workload: str, seed: int,
                 inputs: list[Path]) -> tuple[list[Job], list]:
    """Build or load the problems and draw the starts: ``(jobs, problems)``.

    ``problems`` lists ``(name, instance, starts)`` per distinct problem.
    """
    suite, solver = mods.suite, mods.solver
    problems = []
    if workload == "builtin_m2":
        cfg = solver.SolverConfig(eps=EPS, max_iter=BUILTIN_MAX_ITER)
        for index, (name, count) in enumerate(BUILTIN_MIX):
            p, desc = suite.builtin_problem(name)
            problems.append((name, p, suite.sample_initial_points(desc, count, (seed, index))))
    else:
        cfg = solver.SolverConfig(eps=EPS)
        starts_per = GENERATED[workload][3]
        for index, path in enumerate(inputs):
            p, desc = suite.load_problem_file(path)
            problems.append((desc.name, p,
                             suite.sample_initial_points(desc, starts_per, (seed, index))))
    groups = [[Job(name, p, x0, cfg) for x0 in starts] for name, p, starts in problems]
    return interleave(groups), problems


def solve(mods: SimpleNamespace, job: Job, p=None, keep_records: bool = False) -> Outcome:
    """One closed-loop solve of ``job`` (on ``p`` when given)."""
    try:
        res = mods.solver.run_solver(job.p if p is None else p, job.x0, job.cfg)
    except mods.solver.BacktrackingError:
        return Outcome("backtracking_error", 0, 0, None, None)
    except mods.problems.EvaluationError:
        return Outcome("evaluation_error", 0, 0, None, None)
    recs = res.trace.records
    return Outcome(res.status.value, len(recs), sum(r.backtracks for r in recs),
                   np.array(res.x, dtype=float), recs[-1].L if recs else None,
                   tuple(recs) if keep_records else ())


def residual(mods: SimpleNamespace, p, x: np.ndarray, L: float, cfg) -> float:
    """Output check: the weak-Pareto residual at the final iterate ``x`` with
    step constant ``L`` (infinite when the subproblem cannot be certified)."""
    sub_cfg = mods.subproblem.SubproblemConfig(tol=coupled_tol(cfg))
    try:
        return mods.subproblem.weak_pareto_residual(x, x, L, p, sub_cfg)
    except mods.subproblem.SubproblemError:
        return float("inf")


# ---------------------------------------------------------------------------
# cli_suite


def cli_config(mods: SimpleNamespace, seed: int, out_dir: Path, problems=CLI_PROBLEMS,
               runs: int = CLI_RUNS):
    return mods.cli.BenchConfig(problems=tuple(problems), runs=runs, seed=seed,
                                solvers=CLI_SOLVERS, eps=EPS, out_dir=out_dir)


def cli_pass(mods: SimpleNamespace, seed: int, out_dir: Path, problems=CLI_PROBLEMS) -> list:
    """The configurations of one cli_suite pass."""
    return [cli_config(mods, seed * 100 + j, out_dir / str(j), problems)
            for j in range(CLI_SUBRUNS)]


def register_counted(mods: SimpleNamespace, names, counted) -> tuple[str, ...]:
    """Register a counting copy of each built-in under a new name.

    The builder returns the original descriptor, so ``run_benchmark`` draws
    the same starts and writes the same problem names as for the original.
    ``counted`` maps a problem instance to its counting copy.
    """
    wrapped = []
    for name in names:
        p, desc = mods.suite.builtin_problem(name)
        alias = name + ".counted"
        copy = counted(p)
        mods.suite.register_problem(alias, lambda copy=copy, desc=desc: (copy, desc))
        wrapped.append(alias)
    return tuple(wrapped)


def cli_outputs(out_dir: Path) -> dict[str, str]:
    """Every file ``run_benchmark`` wrote, minus its wall-time columns."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.name in ("results.csv", "aggregates.csv"):
            column = "wall_ms" if path.name == "results.csv" else "mean_ms"
            lines = [line.split(",") for line in text.splitlines()]
            drop = lines[0].index(column)
            text = "\n".join(",".join(c for i, c in enumerate(row) if i != drop)
                             for row in lines)
        files[path.name] = text
    return files


