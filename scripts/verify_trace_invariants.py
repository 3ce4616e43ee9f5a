#!/usr/bin/env python3
"""Replay the proved descent/rate relations on recorded solver traces.

Runs the backtracking and fixed-step variants on the built-in problems
whose descriptor is ``convex``, from random starts, then checks on every
trace:

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
Exits nonzero if any check fails.
"""

import argparse
import sys

import numpy as np

from mofista import (ReferenceSet, SolverConfig, accepted_L_bound_check, available_problems,
                     builtin_problem, gap_step_bounds_check, level_set_reference,
                     lyapunov_monotone_check, momentum_growth_check, run_solver,
                     sample_initial_points)

SEGMENT = np.arange(1, 11)[:, None] / 10.0   # s = 0.1, ..., 1.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--eps", type=float, default=1e-6)
    ap.add_argument("--max-iter", type=int, default=500)
    args = ap.parse_args(argv)

    failures = 0
    for name in available_problems():
        p, desc = builtin_problem(name)
        if not desc.convex:
            continue
        starts = sample_initial_points(desc, args.seeds, seed=(7, len(name)))
        level_sets = [level_set_reference(p, desc, x0) for x0 in starts]
        step_constants = {"backtracking": SolverConfig.L_init, "fixed": desc.L_true}
        for label, L_init in step_constants.items():
            cfg = SolverConfig(L_init=L_init, eps=args.eps, max_iter=args.max_iter,
                               variant=label)
            for x0, Z in zip(starts, level_sets):
                res = run_solver(p, x0, cfg)
                F = res.trace.objective_rows()
                if np.all(F[-1] <= F[0]):
                    Z = ReferenceSet(np.vstack([Z.points, x0 + SEGMENT * (res.x - x0)]))
                checks = {"step": gap_step_bounds_check(res.trace, p, Z),
                          "energy": lyapunov_monotone_check(res.trace, p, Z),
                          "growth": momentum_growth_check(res.trace, desc.L_true, cfg),
                          "cap": accepted_L_bound_check(res.trace, desc.L_true, cfg)}
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
