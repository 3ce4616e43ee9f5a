#!/usr/bin/env python3
"""Replay the proved descent/rate relations on recorded solver traces.

    PYTHONPATH=src python3 scripts/verify_trace_invariants.py

Runs the backtracking and fixed-step variants on the built-in problems
whose descriptor is ``convex``, from ``STARTS`` (5) random starts each,
with ``eps=1e-6`` and ``max_iter=500``, then checks on every trace:

  * step: the one-step gap inequalities,
  * energy: monotone decay of the momentum energy,
  * growth: the growth of the momentum parameter that, with the energy
    decay and the cap, gives the O(1/k^2) worst-component rate,
  * cap: the accepted-L cap.

The step and energy checks use a reference set in the start's level set
``{z : F(z) <= F(x0)}``; growth and cap need the trace alone.  Each run's
reference holds its start's level-set draws and, where ``F(x_K) <= F(x0)``
at the run's last iterate ``x_K``, the 10 points ``x0 + s (x_K - x0)`` for
``s = 0.1, ..., 1.0``: each ``F_i`` is convex, so they lie in the level set
too.  Each line gives the size of the run's reference (``ref=51`` when all
40 draws were kept after ``x0``; ``ref=11`` when no draw was, as on one VFM1
start) and names the checks that failed (``checks=FAIL:growth,energy``).
Exits 1 if any check fails.  The script takes no arguments: given any, it
exits 2 before the first solve.  The tests read the same runs from
``runs()``, and recompute a run's checks with ``trace_checks``.
"""

import sys

import numpy as np

from mofista import (ReferenceSet, SolverConfig, accepted_L_bound_check, available_problems,
                     builtin_problem, gap_step_bounds_check, level_set_reference,
                     lyapunov_monotone_check, momentum_growth_check, run_solver,
                     sample_initial_points)

STARTS = 5
EPS = 1e-6
MAX_ITER = 500
SEGMENT = np.arange(1, 11)[:, None] / 10.0   # s = 0.1, ..., 1.0


def trace_checks(trace, p, desc, cfg, Z) -> dict:
    """Whether each of the four checks holds on ``trace``, by name."""
    return {"step": gap_step_bounds_check(trace, p, Z),
            "energy": lyapunov_monotone_check(trace, p, Z),
            "growth": momentum_growth_check(trace, desc.L_true, cfg),
            "cap": accepted_L_bound_check(trace, desc.L_true, cfg)}


def runs():
    """Yield ``(name, label, p, desc, cfg, res, Z, checks)`` for every run, in
    the order ``main`` prints them: ``Z`` is the run's reference set and
    ``checks`` maps each check's name to whether it held."""
    for name in available_problems():
        p, desc = builtin_problem(name)
        if not desc.convex:
            continue
        starts = sample_initial_points(desc, STARTS, seed=(7, len(name)))
        level_sets = [level_set_reference(p, desc, x0) for x0 in starts]
        step_constants = {"backtracking": SolverConfig.L_init, "fixed": desc.L_true}
        for label, L_init in step_constants.items():
            cfg = SolverConfig(L_init=L_init, eps=EPS, max_iter=MAX_ITER, variant=label)
            for x0, Z in zip(starts, level_sets):
                res = run_solver(p, x0, cfg)
                F = res.trace.objective_rows()
                if np.all(F[-1] <= F[0]):
                    Z = ReferenceSet(np.vstack([Z.points, x0 + SEGMENT * (res.x - x0)]))
                yield name, label, p, desc, cfg, res, Z, trace_checks(res.trace, p, desc, cfg, Z)


def main(argv=None) -> int:
    if (sys.argv[1:] if argv is None else argv):
        print("verify_trace_invariants.py takes no arguments", file=sys.stderr)
        return 2
    failures = 0
    for name, label, _, _, _, res, Z, checks in runs():
        failed = [check for check, ok in checks.items() if not ok]
        failures += bool(failed)
        flag = "FAIL:" + ",".join(failed) if failed else "ok"
        print(f"{name:8s} {label:12s} ref={len(Z.points):2d} "
              f"iters={len(res.trace.records):4d} "
              f"status={res.status.value:10s} checks={flag}")
    if failures:
        print(f"{failures} trace check(s) failed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
