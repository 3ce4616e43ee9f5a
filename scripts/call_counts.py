#!/usr/bin/env python3
"""Count the interpreter calls each line-search trial makes.

    python3 scripts/call_counts.py --seed 1 [--solves N] [--workloads NAME ...]

Runs one pass of each of the ``builtin_m2``, ``generated_m3`` and
``generated_large_n`` benchmark workloads (``perfbench/workloads.py``), or
of those named, in this process under ``sys.setprofile``; with ``--solves``
only the first N solves of each pass.

A *trial* is one dual solve (``subproblem._solve_dual``).  For each
workload the JSON printed holds the trials, the Python and C calls per
trial made inside ``solver.run_solver``, and the totals made inside
``run_solver``, ``_solve_dual`` and ``subproblem._simplex_qp``, each
counting the calls nested in it but not its own.  A Python call is a frame
entered, a generator resumed included; a C call is a call of a builtin
function or method.  The counts depend only on the seed, the slice and the
Python and NumPy versions, which are printed beside them, not on the
machine's speed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("builtin_m2", "generated_m3", "generated_large_n")
TRACKED = {"run_solver": "solver", "_solve_dual": "subproblem", "_simplex_qp": "subproblem"}


def count_workload(workload: str, seed: int, solves=None) -> dict:
    """Calls made by one pass of ``workload`` (its first ``solves`` solves)."""
    import workloads as wl

    mods = SimpleNamespace(**{m: importlib.import_module("mofista." + m) for m in wl.MODULES})
    codes = {getattr(getattr(mods, module), name).__code__: name
             for name, module in TRACKED.items()}
    with tempfile.TemporaryDirectory() as work:
        jobs, _ = wl.setup_solves(mods, workload, seed, wl.write_inputs(workload, seed, Path(work)))
    jobs = jobs[:solves]

    depth = dict.fromkeys(TRACKED, 0)
    totals = {name: {"python": 0, "c": 0} for name in TRACKED}
    trials = 0

    def profile(frame, event, arg):
        nonlocal trials
        kind = "python" if event == "call" else "c" if event == "c_call" else None
        if kind is not None:
            for name, active in depth.items():
                if active:
                    totals[name][kind] += 1
        name = codes.get(frame.f_code) if event in ("call", "return") else None
        if name is not None:
            depth[name] += 1 if event == "call" else -1
            trials += event == "call" and name == "_solve_dual"

    sys.setprofile(profile)
    try:
        for job in jobs:
            wl.solve(mods, job)
    finally:
        sys.setprofile(None)
    outer = totals["run_solver"]
    return {"solves": len(jobs), "trials": trials,
            "python_calls_per_trial": outer["python"] / trials,
            "c_calls_per_trial": outer["c"] / trials,
            "totals": totals}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--solves", type=int, default=None,
                    help="count only the first N solves of each pass")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = ap.parse_args(argv)
    if args.solves is not None and args.solves < 1:
        ap.error("--solves must be at least 1")
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    counts = {w: count_workload(w, args.seed, args.solves) for w in args.workloads}
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "seed": args.seed, "solves": args.solves, "workloads": counts},
                     indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
