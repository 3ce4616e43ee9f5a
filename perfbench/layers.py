"""Per-layer measurements taken from outside the program.

Each function here times or counts calls into one layer's public functions:
the subproblem replay (``mofista.subproblem.solve_subproblem``), the oracle
microbenchmark (the callables ``mofista.suite`` builds), and a small
``mofista.cli.run_benchmark`` probe for the workloads that do not run the
CLI themselves.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np

import harness
import workloads as wl

# Subproblem solves replayed per m: whole solves, in order, until the
# corpus holds at least this many.
REPLAY_SOLVES = 150
REPLAY_SECONDS = 0.5
ORACLE_CALLS = 4000
CLI_PROBE = (("SP1_l1", "VFM1"), 2, 3)  # problems, runs, repeats


def companion(mods: SimpleNamespace, seed: int, m: int) -> list:
    """Solves of a small built-in with ``m`` objectives, for a workload that
    has none: SP1_l1 for m = 2, VFM1 for m = 3, eight seeded starts each."""
    name = {2: "SP1_l1", 3: "VFM1"}[m]
    p, desc = mods.suite.builtin_problem(name)
    cfg = mods.solver.SolverConfig(eps=wl.EPS)
    jobs = [wl.Job(name, p, x0, cfg)
            for x0 in mods.suite.sample_initial_points(desc, 8, (seed, 1000 + m))]
    return [(job, wl.solve(mods, job, keep_records=True).records) for job in jobs]


def replay_corpus(runs: list) -> list:
    """Leading whole solves of ``runs`` (pairs of job and accepted records)
    holding at least ``REPLAY_SOLVES`` subproblem solves."""
    corpus, total = [], 0
    for job, records in runs:
        if total >= REPLAY_SOLVES:
            break
        if records:
            corpus.append((job, records))
            total += len(records)
    return corpus


def replay(mods: SimpleNamespace, corpus: list, counters=None) -> tuple[int, int]:
    """Feed each accepted record's ``(x_{k-1}, y_k, L_k)`` to
    ``solve_subproblem`` with the solver's coupled tolerance, chaining the
    warm weights as the solver does.  Returns ``(solves, mismatches)``, a
    mismatch being a replayed step that differs from the recorded iterate."""
    sub = mods.subproblem
    solves = mismatches = 0
    for job, records in corpus:
        p = job.p if counters is None else harness.counted_problem(job.p, counters)
        cfg = sub.SubproblemConfig(tol=wl.coupled_tol(job.cfg))
        x_prev, warm = job.x0, None
        for rec in records:
            solves += 1
            try:
                sol = sub.solve_subproblem(x_prev, rec.y, rec.L, p, cfg, warm_weights=warm)
            except sub.SubproblemError:
                mismatches += 1
            else:
                mismatches += not np.array_equal(sol.z, rec.x)
                warm = sol.weights
            x_prev = rec.x
    return solves, mismatches


def subproblem_metrics(mods: SimpleNamespace, corpus: list, m: int,
                       cal: harness.Calibration) -> tuple[dict, int]:
    counters = harness.Counters()
    solves, mismatches = replay(mods, corpus, counters)
    per_solve = []
    spent = 0.0
    while spent < REPLAY_SECONDS or len(per_solve) < 3:
        _, seconds, raw = harness.normalised(lambda: replay(mods, corpus), cal)
        per_solve.append(seconds / solves)
        spent += raw
    us = harness.median(per_solve) * 1e6
    prox = counters.prox / solves
    key = f"subproblem.m{m}."
    return {key + "prox_calls_per_solve": prox, key + "us_per_solve": us,
            key + "us_per_eval": us / prox}, mismatches


def oracle_metrics(problems: list, cal: harness.Calibration) -> dict:
    """Microseconds per call of the suite-built ``f`` and ``grad f`` at the
    workload's starting points."""
    points = [(p, x) for _, p, starts in problems for x in starts]
    reps = -(-ORACLE_CALLS // len(points))
    out = {}
    for label, attr in (("f", "smooth"), ("jac", "smooth_jac")):
        def loop():
            for _ in range(reps):
                for p, x in points:
                    getattr(p, attr)(x)
        _, seconds, _ = harness.normalised(loop, cal)
        out[f"suite.{label}_us_per_call"] = seconds / (reps * len(points)) * 1e6
    return out


def cli_metrics(mods: SimpleNamespace, passes: list) -> dict:
    """``cli.*`` from ``(report, normalised seconds, raw seconds)`` passes of
    ``run_benchmark``: reporting time is the call's wall time minus the
    summed per-row solve times."""
    report_ms, per_iter = [], {s: [] for s in wl.CLI_SOLVERS}
    for report, seconds, raw in passes:
        scale = seconds / raw
        report_ms.append((seconds - scale * sum(r.wall_ms for r in report.rows) / 1e3) * 1e3)
        for solver in wl.CLI_SOLVERS:
            rows = [r for r in report.rows if r.solver == solver]
            per_iter[solver].append(scale * sum(r.wall_ms for r in rows)
                                    / max(1, sum(r.iterations for r in rows)))
    out = {"cli.report_ms": harness.median(report_ms)}
    for solver in wl.CLI_SOLVERS:
        out[f"cli.{solver}_ms_per_iter"] = harness.median(per_iter[solver])
    return out


def cli_probe(mods: SimpleNamespace, seed: int, out_dir: Path,
              cal: harness.Calibration) -> dict:
    problems, runs, repeats = CLI_PROBE
    bc = wl.cli_config(mods, seed, out_dir, problems=problems, runs=runs)
    return cli_metrics(mods, [harness.normalised(lambda: mods.cli.run_benchmark(bc), cal)
                              for _ in range(repeats)])


def group_by_m(runs: list) -> dict[int, list]:
    out: dict[int, list] = {}
    for job, records in runs:
        out.setdefault(job.p.m, []).append((job, records))
    return out


def replay_all(mods: SimpleNamespace, seed: int, runs: list,
               cal: harness.Calibration) -> tuple[dict, int]:
    """``subproblem.m2.*`` and ``subproblem.m3.*`` from the workload's own
    accepted records, or from companion solves where it has none."""
    by_m = group_by_m(runs)
    metrics, mismatches = {}, 0
    for m in (2, 3):
        source = by_m.get(m) or companion(mods, seed, m)
        values, bad = subproblem_metrics(mods, replay_corpus(source), m, cal)
        metrics.update(values)
        mismatches += bad
    return metrics, mismatches
