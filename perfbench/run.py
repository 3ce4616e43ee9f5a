#!/usr/bin/env python3
"""Closed-loop solve benchmark for mofista.

    python3 perfbench/run.py --workload builtin_m2 --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports the program from its ``src``
directory.  Each run sets the workload up several times, makes one traced
pass (counting wrappers on; it also warms up and gives the reference
outputs), then repeats untraced passes until ``--seconds`` have elapsed.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import harness
import layers
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("builtin_m2", "generated_m3", "generated_large_n", "cli_suite")
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "converged_frac": "fraction",
    "iterations_total": "count",
    "oracle_calls_total": "count",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "problems.f_calls_per_iter": "calls/iter",
    "problems.jac_calls_per_iter": "calls/iter",
    "problems.prox_calls_per_iter": "calls/iter",
    "problems.oracle_share": "fraction",
    "suite.f_us_per_call": "us",
    "suite.jac_us_per_call": "us",
    "suite.load_ms": "ms",
    "subproblem.m2.prox_calls_per_solve": "calls/solve",
    "subproblem.m2.us_per_solve": "us",
    "subproblem.m2.us_per_eval": "us",
    "subproblem.m3.prox_calls_per_solve": "calls/solve",
    "subproblem.m3.us_per_solve": "us",
    "subproblem.m3.us_per_eval": "us",
    "solver.iters_per_solve": "iter/solve",
    "solver.backtracks_per_iter": "1/iter",
    "solver.ms_per_iter": "ms",
    "solver.max_iter_frac": "fraction",
    "solver.subproblem_failure_frac": "fraction",
    "cli.report_ms": "ms",
    "cli.backtracking_ms_per_iter": "ms",
    "cli.fixed_ms_per_iter": "ms",
    "cli.pgm_ms_per_iter": "ms",
    "trace.overhead_frac": "fraction",
}

# ROADMAP baseline, cross-checked by the traced run.
BASELINE = {
    "problems.f_calls_per_iter": 9.5,
    "problems.jac_calls_per_iter": 4.0,
    "solver.backtracks_per_iter": 1.0,
    "subproblem.m2.dual_evals_per_solve": 34.0,
}


def log(msg: str) -> None:
    print(msg, flush=True)


class Run:
    """State and results of one benchmark run."""

    def __init__(self, args, tmp: Path) -> None:
        self.args = args
        self.tmp = tmp
        self.checks_failed = 0
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.cal = harness.LARGE_N if args.workload == "generated_large_n" else harness.SMALL_N

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.checks_failed += 1
            log(f"CHECK FAILED: {what}")
        return ok

    # -- set-up ------------------------------------------------------------

    def setup(self, build) -> tuple:
        """Import the program and ``build`` the inputs ``SETUPS`` times; the
        medians give ``setup_s`` and ``suite.load_ms``."""
        clock = harness.Clock(self.cal)
        timed: list = []
        load_raw: list = []
        for k in range(SETUPS):
            def once():
                mods = wl.import_program()
                tick = time.perf_counter()
                state = build(mods)
                load_raw.append(time.perf_counter() - tick)
                return mods, state
            mods, state = clock.time(once, timed, k)
        clock.flush()
        setups = [seconds for _, seconds, _ in timed]
        loads = [load * seconds / raw for load, (_, seconds, raw) in zip(load_raw, timed)]
        origin = Path(mods.problems.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"mofista was imported from {origin}, not from {SRC}")
        self.e2e["setup_s"] = harness.median(setups)
        self.layer["suite.load_ms"] = harness.median(loads) * 1e3
        return mods, state

    # -- results -----------------------------------------------------------

    def time_metrics(self, samples: list, seconds: float, passes: int) -> None:
        """Each solve's time is the fastest of its untraced repeats;
        ``samples`` holds ``(solve index, normalised seconds, raw seconds)``
        and ``seconds`` is the normalised time of all passes."""
        by_solve: dict = {}
        for index, value, _ in samples:
            by_solve.setdefault(index, []).append(value)
        per_solve = [min(v) for v in by_solve.values()]
        q, tail = harness.tail_percentile(per_solve)
        self.e2e["solves_per_s"] = len(samples) / seconds
        self.e2e["solve_ms_p50"] = harness.median(per_solve) * 1e3
        self.e2e["solve_ms_tail"] = tail * 1e3
        log(f"solve_ms_p50 and solve_ms_tail (p{q}) over {len(per_solve)} solves, "
            f"each the fastest of its {passes} untraced repeats")

    def result(self) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.e2e["peak_rss_mb"] = usage / 1024.0  # ru_maxrss is in KiB on Linux
        names = PER_LAYER if self.args.trace else END_TO_END
        values = self.layer if self.args.trace else self.e2e
        missing = [n for n in names if n not in values]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {"correct": self.checks_failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {n: {"value": float(values[n]), "unit": u}
                            for n, u in names.items()}}

    def record(self, n: int, failures: int, passes: int, samples: list, timed_s: float,
               iterations: int, counters) -> None:
        """End-to-end results of a pass of ``n`` solves repeated ``passes``
        times after the traced pass."""
        self.attempted = n * (passes + 1)
        self.failed = failures * (passes + 1)
        self.time_metrics(samples, timed_s, passes)
        self.e2e["converged_frac"] = (n - failures) / n
        self.e2e["iterations_total"] = iterations
        self.e2e["oracle_calls_total"] = counters.f + counters.jac

    def record_layers(self, counters, statuses: list, iterations: int, backtracks: int,
                      oracle_base_s: float, timed_s: float, passes: int,
                      traced_s: float) -> None:
        """Per-layer results shared by every workload; ``oracle_base_s`` is
        the raw solve time of the traced pass."""
        n = len(statuses)
        per_iter = max(1, iterations)
        self.layer.update({
            "problems.f_calls_per_iter": counters.f / per_iter,
            "problems.jac_calls_per_iter": counters.jac / per_iter,
            "problems.prox_calls_per_iter": counters.prox / per_iter,
            "problems.oracle_share": (counters.f_s + counters.jac_s) / oracle_base_s,
            "solver.iters_per_solve": iterations / n,
            "solver.backtracks_per_iter": backtracks / per_iter,
            "solver.ms_per_iter": timed_s / passes / per_iter * 1e3,
            "solver.max_iter_frac": statuses.count("max_iter") / n,
            "solver.subproblem_failure_frac": statuses.count("subproblem_failure") / n,
            "trace.overhead_frac": traced_s / (timed_s / passes) - 1.0,
        })

    def cross_check(self) -> None:
        m2_evals = self.layer["subproblem.m2.prox_calls_per_solve"] - 1.0
        seen = dict(self.layer, **{"subproblem.m2.dual_evals_per_solve": m2_evals})
        for name, expected in BASELINE.items():
            log(f"baseline {name}: measured {seen[name]:.3f}, ROADMAP about {expected:g}")


def run_solves(run: Run) -> None:
    """builtin_m2, generated_m3 and generated_large_n."""
    args = run.args
    inputs = wl.write_inputs(args.workload, args.seed, run.tmp)
    mods, (jobs, problems) = run.setup(
        lambda mods: wl.setup_solves(mods, args.workload, args.seed, inputs))
    n = len(jobs)

    # Traced pass: counting wrappers on every problem.
    counters = harness.Counters()
    counted = {id(p): harness.counted_problem(p, counters) for _, p, _ in problems}
    clock = harness.Clock(run.cal)
    traced_samples: list = []
    reference = [clock.time(lambda job=job: wl.solve(mods, job, counted[id(job.p)], True),
                            traced_samples, i)
                 for i, job in enumerate(jobs)]
    clock.flush()
    traced_raw = clock.raw_s
    traced_s = sum(s for _, s, _ in traced_samples)

    failures = 0
    worst = 0.0
    for job, out in zip(jobs, reference):
        ok = out.status == "converged"
        if ok:
            r = wl.residual(mods, job.p, out.x, out.L, job.cfg)
            worst = max(worst, r / job.cfg.eps)
            ok = run.check(r <= wl.RESIDUAL_FACTOR * job.cfg.eps,
                           f"{job.problem}: residual {r:.3e} at the final iterate")
        failures += not ok
    log(f"pass of {n} solves: {n - failures} converged and checked; "
        f"largest final residual {worst:.2f} eps")

    # Untraced passes until the time is up.
    clock = harness.Clock(run.cal)
    samples: list = []
    passes = 0
    start = time.perf_counter()
    while passes < wl.MIN_PASSES[args.workload] or time.perf_counter() - start < args.seconds:
        for i, job in enumerate(jobs):
            out = clock.time(lambda job=job: wl.solve(mods, job), samples, i)
            run.check(out.same_as(reference[i]),
                      f"{job.problem} start {i}: untraced pass differs from traced pass")
        passes += 1
    clock.flush()
    timed_s = sum(s for _, s, _ in samples)
    log(f"{passes} untraced passes, {timed_s:.3f} s normalised ({clock.raw_s:.3f} s raw)")

    iterations = sum(o.iterations for o in reference)
    run.record(n, failures, passes, samples, timed_s, iterations, counters)
    if not args.trace:
        return

    run.record_layers(counters, [o.status for o in reference], iterations,
                      sum(o.backtracks for o in reference), traced_raw, timed_s, passes,
                      traced_s)
    run.layer.update(layers.oracle_metrics(problems, run.cal))
    replayed, mismatches = layers.replay_all(
        mods, args.seed, [(job, out.records) for job, out in zip(jobs, reference)], run.cal)
    run.layer.update(replayed)
    log(f"subproblem replay: {mismatches} replayed steps differ from the recorded iterate")
    run.layer.update(layers.cli_probe(mods, args.seed, run.tmp / "cli_probe", run.cal))
    run.cross_check()


def run_cli(run: Run) -> None:
    """cli_suite: ``run_benchmark`` with all three solvers."""
    args = run.args

    def build(mods):
        problems = []
        for index, name in enumerate(wl.CLI_PROBLEMS):
            p, desc = mods.suite.builtin_problem(name)
            problems.append((name, p, mods.suite.sample_initial_points(desc, 4, (args.seed, index))))
        return wl.cli_pass(mods, args.seed, run.tmp / "cli"), problems

    mods, (configs, problems) = run.setup(build)

    def run_pass(configs):
        """``(report, normalised seconds, raw seconds)`` per call."""
        clock = harness.Clock(run.cal)
        timed: list = []
        reports = [clock.time(lambda bc=bc: mods.cli.run_benchmark(bc), timed, j)
                   for j, bc in enumerate(configs)]
        clock.flush()
        return [(report, seconds, raw) for report, (_, seconds, raw) in zip(reports, timed)]

    # Traced pass through counting copies registered under new names.
    counters = harness.Counters()
    aliases = wl.register_counted(mods, wl.CLI_PROBLEMS,
                                  lambda p: harness.counted_problem(p, counters))
    traced_configs = wl.cli_pass(mods, args.seed, run.tmp / "cli_traced", aliases)
    traced = run_pass(traced_configs)
    reference = [wl.cli_outputs(bc.out_dir) for bc in traced_configs]
    rows = [row for report, _, _ in traced for row in report.rows]
    n = len(rows)

    failures = 0
    worst = 0.0
    for row in rows:
        ok = row.status == mods.solver.Status.CONVERGED.value
        if ok:
            # The rows do not carry the last accepted L; the fixed variants
            # use the known constant, and backtracking is checked at it too.
            p, desc = mods.suite.builtin_problem(row.problem)
            r = wl.residual(mods, p, row.x, desc.L_true, mods.solver.SolverConfig(eps=wl.EPS))
            worst = max(worst, r / wl.EPS)
            ok = run.check(r <= wl.RESIDUAL_FACTOR * wl.EPS,
                           f"{row.problem}/{row.solver} run {row.run_id}: residual {r:.3e}")
        failures += not ok
    log(f"pass of {n} CLI runs: {n - failures} converged and checked; "
        f"largest final residual {worst:.2f} eps")

    calls = []
    passes = 0
    start = time.perf_counter()
    while passes < wl.MIN_PASSES[args.workload] or time.perf_counter() - start < args.seconds:
        calls.extend(run_pass(configs))
        passes += 1
        for bc, expected in zip(configs, reference):
            run.check(wl.cli_outputs(bc.out_dir) == expected,
                      f"pass {passes}, seed {bc.seed}: CLI outputs differ from the traced "
                      "pass outside the wall-time columns")
    scaled_rows = [(r, seconds / raw) for report, seconds, raw in calls for r in report.rows]
    samples = [(i % n, r.wall_ms / 1e3 * scale, r.wall_ms / 1e3)
               for i, (r, scale) in enumerate(scaled_rows)]
    timed_s = sum(seconds for _, seconds, _ in calls)
    log(f"{passes} untraced passes, {timed_s:.3f} s normalised "
        f"({sum(raw for _, _, raw in calls):.3f} s raw)")

    iterations = sum(r.iterations for r in rows)
    run.record(n, failures, passes, samples, timed_s, iterations, counters)
    if not args.trace:
        return

    run.record_layers(counters, [r.status for r in rows], iterations,
                      sum(r.backtracks_total for r in rows),
                      sum(r.wall_ms for r in rows) / 1e3,
                      sum(s for _, s, _ in samples), passes,
                      sum(seconds for _, seconds, _ in traced))
    run.layer.update(layers.oracle_metrics(problems, run.cal))
    replayed, mismatches = layers.replay_all(mods, args.seed, [], run.cal)
    run.layer.update(replayed)
    log(f"subproblem replay: {mismatches} replayed steps differ from the recorded iterate")
    run.layer.update(layers.cli_metrics(mods, calls))
    run.cross_check()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mofista" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'mofista'}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args, tmp)
        log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
            f"trace {args.trace}")
        (run_cli if args.workload == "cli_suite" else run_solves)(run)
        result = run.result()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
