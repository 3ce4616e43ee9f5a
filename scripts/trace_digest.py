#!/usr/bin/env python3
"""Print one digest line per solver run on the built-in problems.

Without ``--problems`` the run also covers three quadratics that
``load_problem_file`` reads from a spec written to a temporary file:
``loaded`` and ``loaded_l1``, with m = 3 and n = 4, without and with an l1
term, and ``loaded_m5``, with m = 5 and n = 4, drawn by perfbench's
``quadratic_spec`` at seed 5, whose dual solves pass faces of four and five
weights.  For every
problem, every variant (backtracking, fixed, pgm) and 12 starts from
``sample_initial_points(desc, 12, 0)``, runs the solver with ``eps=1e-6``
and ``max_iter=500``.  Each line holds the status, the iteration
count and the sha256 of every record's ``L``, ``backtracks``, ``residual``,
``t``, ``y``, ``x``, ``objectives`` and ``dual_gap`` (``wall_ms`` is left
out), for every run however it stopped.  The fixed-step variants use the
problem's ``L_true`` and are skipped when it has none.  Two commits produce byte-identical traces exactly when
their outputs are identical:

    PYTHONPATH=src python3 scripts/trace_digest.py > before.txt  # one commit
    PYTHONPATH=src python3 scripts/trace_digest.py > after.txt   # the other
    diff before.txt after.txt
"""

import argparse
import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from mofista import (SolverConfig, available_problems, builtin_problem, load_problem_file,
                     run_solver, sample_initial_points)

STARTS = 12
ROOT = Path(__file__).resolve().parent.parent

# Convex: each quad is positive definite, with largest eigenvalue 4 overall.
LOADED = {"n": 4, "m": 3, "lower": [-2.0] * 4, "upper": [2.0] * 4, "objectives": [
    {"quad": [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
     "linear": [-1, 0, 0, 0]},
    {"quad": [[1, 0, 0, 0], [0, 3, 1, 0], [0, 1, 3, 0], [0, 0, 0, 1]],
     "linear": [0, -2, 0, 1], "constant": 1},
    {"quad": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
     "linear": [0, 0, -1, -1], "constant": -0.5}]}


def loaded_problems():
    """``(instance, descriptor)`` of ``loaded``, ``loaded_l1`` and
    ``loaded_m5``, read back by ``load_problem_file``."""
    sys.path.insert(0, str(ROOT))
    quadratic_spec = importlib.import_module("perfbench.workloads").quadratic_spec
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loaded.json"
        out = []
        for spec in (dict(LOADED, name="loaded"), dict(LOADED, name="loaded_l1", l1_weight=0.5),
                     quadratic_spec(np.random.default_rng(5), "loaded_m5", 5, 4)):
            path.write_text(json.dumps(spec))
            out.append(load_problem_file(path))
    return out


def digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        for value in (r.L, r.backtracks, r.residual, r.t, r.y, r.x, r.objectives,
                      r.dual_gap):
            h.update(np.asarray(value, dtype=float).tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--problems", nargs="+", default=None,
                    help="built-in problems to run (default: all)")
    args = ap.parse_args(argv)

    problems = [builtin_problem(name) for name in args.problems or available_problems()]
    if args.problems is None:
        problems += loaded_problems()
    for p, desc in problems:
        name = desc.name
        step_constants = {"backtracking": SolverConfig.L_init}
        if desc.L_true is not None:
            step_constants |= {"fixed": desc.L_true, "pgm": desc.L_true}
        starts = sample_initial_points(desc, STARTS, 0)
        for label, L_init in step_constants.items():
            cfg = SolverConfig(L_init=L_init, eps=1e-6, max_iter=500, variant=label)
            for i, x0 in enumerate(starts):
                res = run_solver(p, x0, cfg)
                recs = res.trace.records
                print(f"{name} {label} {i} {res.status.value} {len(recs)} {digest(recs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
