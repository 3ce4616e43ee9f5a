#!/usr/bin/env python3
"""Replay the proved descent/rate relations on recorded solver traces.

Runs the backtracking and fixed-step variants on the built-in problems
whose descriptor is ``convex``, from random starts, then checks on every
trace:

  * the one-step gap inequalities,
  * monotone decay of the momentum energy (accelerated variants),
  * the O(1/k^2) worst-component rate bound (backtracking runs on the
    problems with a closed-form Pareto segment: BK1, JOS1 and SP1),
  * the accepted-L cap.

Only on SP1 does some iterate's worst-component gap to a point of that
segment turn positive, so SP1 is where the rate check can fail; on BK1
and JOS1 the gap stays nonpositive from these starts (checked up to
--seeds 20).

Exits nonzero if any check fails.
"""

import argparse
import sys

import numpy as np

from mofista import (ReferenceSet, SolverConfig, accepted_L_bound_check,
                     available_problems, builtin_problem, gap_step_bounds_check,
                     level_set_reference, lyapunov_monotone_check, pareto_segment,
                     rate_bound_check, run_solver, sample_initial_points)


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
        try:
            front = ReferenceSet(pareto_segment(name, 20))
        except KeyError:
            front = None
        step_constants = {"backtracking": SolverConfig.L_init, "fixed": desc.L_true}
        for label, L_init in step_constants.items():
            cfg = SolverConfig(L_init=L_init, eps=args.eps, max_iter=args.max_iter,
                               variant=label)
            for x0, Z in zip(starts, level_sets):
                res = run_solver(p, x0, cfg)
                ok = gap_step_bounds_check(res.trace, p, Z)
                ok &= lyapunov_monotone_check(res.trace, p, Z)
                ok &= accepted_L_bound_check(res.trace, desc.L_true, cfg)
                if label == "backtracking" and front is not None:
                    ok &= rate_bound_check(res.trace, p, desc.L_true, cfg, front)
                flag = "ok" if ok else "FAIL"
                failures += not ok
                print(f"{name:8s} {label:12s} iters={len(res.trace.records):4d} "
                      f"status={res.status.value:10s} checks={flag}")
    if failures:
        print(f"{failures} trace check(s) failed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
