#!/usr/bin/env python3
"""Rewrite every bit golden from the current code.

    PYTHONPATH=src python3 scripts/goldens.py && git status

A change keeps the goldens exactly when ``git status`` then shows none of
the four files below modified.  A change that alters them on purpose
commits the rewritten files and says why.  Then the script prints
``paper_table.markdown`` of the new table, which the README quotes
verbatim.

- ``tests/trace_digest.txt``: one line per solver run on every built-in and
  on three quadratics that ``load_problem_file`` reads from a spec written
  to a temporary file: ``loaded`` and ``loaded_l1``, with m = 3 and n = 4,
  without and with an l1 term, and ``loaded_m5``, with m = 5 and n = 4,
  drawn by perfbench's ``quadratic_spec`` at seed 5, whose dual solves pass
  faces of four and five weights.  Every variant (backtracking, fixed, pgm)
  runs from 12 starts, ``sample_initial_points(desc, 12, 0)``, with
  ``eps=1e-6`` and ``max_iter=500``; the fixed-step variants use the
  problem's ``L_true`` and are skipped when it has none.  A line holds the
  status, the iteration count and the sha256 of every record's ``L``,
  ``backtracks``, ``residual``, ``t``, ``y``, ``x``, ``objectives`` and
  ``dual_gap`` (``wall_ms`` is left out), however the run stopped.
- ``tests/cli_digest.txt``: ``<config> <file> <sha256>`` for every file
  that ``run_benchmark`` writes on the three configurations of
  ``CONFIGS``, in name order, with the wall-time columns (``wall_ms`` of
  ``results.csv``, ``mean_ms`` of ``aggregates.csv``) dropped before
  hashing.
- ``tests/nan_runs.txt``: one line per run of SP1_l1 and MHHM2 whose
  ``f`` or ``grad f`` returns one NaN, first or last among the objectives,
  at its 1st, 2nd, 3rd, 5th or 10th call: the run, its status, its
  iteration count and a digest of its records.
- ``paper_table.json``: ``paper_table.table`` of every built-in and of
  perfbench's generated groups (see ``scripts/paper_table.py``).
"""

import hashlib
import itertools
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import paper_table
from mofista import (BenchConfig, SolverConfig, Status, available_problems, builtin_problem,
                     load_problem_file, run_benchmark, run_solver, sample_initial_points)
from mofista.cli import SOLVER_NAMES

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

# mixed: fronts, 2- and 3-panel SVGs, purity and profiles; capped: profile
# columns that every solver fails; diverging: non_finite and
# subproblem_failure rows, each with a reason, and a tau-only profiles.csv.
CONFIGS = {
    "mixed": dict(problems=("SP1_l1", "VFM1"), solvers=SOLVER_NAMES, runs=4, seed=3,
                  eps=1e-6),
    "capped": dict(problems=("BK1", "SP1", "MHHM2"), solvers=SOLVER_NAMES, max_iter=3,
                   runs=3),
    "diverging": dict(problems=("VFM1",), solvers=("fixed",), fixed_L=1e-3, runs=2),
}

WALL_COLUMNS = {"results.csv": "wall_ms", "aggregates.csv": "mean_ms"}


def loaded_problems():
    """``(instance, descriptor)`` of ``loaded``, ``loaded_l1`` and
    ``loaded_m5``, read back by ``load_problem_file``."""
    quadratic_spec = paper_table.workloads.quadratic_spec
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


def trace_digest():
    for p, desc in [*map(builtin_problem, available_problems()), *loaded_problems()]:
        step_constants = {"backtracking": SolverConfig.L_init}
        if desc.L_true is not None:
            step_constants |= {"fixed": desc.L_true, "pgm": desc.L_true}
        starts = sample_initial_points(desc, STARTS, 0)
        for label, L_init in step_constants.items():
            cfg = SolverConfig(L_init=L_init, eps=1e-6, max_iter=500, variant=label)
            for i, x0 in enumerate(starts):
                res = run_solver(p, x0, cfg)
                recs = res.trace.records
                yield f"{desc.name} {label} {i} {res.status.value} {len(recs)} {digest(recs)}"


def without_wall_times(path: Path) -> str:
    """The file's text, minus its wall-time column if it has one."""
    text = path.read_text()
    if path.name not in WALL_COLUMNS:
        return text
    lines = [line.split(",") for line in text.splitlines()]
    drop = lines[0].index(WALL_COLUMNS[path.name])
    return "\n".join(",".join(c for i, c in enumerate(row) if i != drop) for row in lines)


def cli_digest():
    for label, settings in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp)
            run_benchmark(BenchConfig(out_dir=out_dir, **settings))
            for path in sorted(out_dir.iterdir()):
                sha = hashlib.sha256(without_wall_times(path).encode()).hexdigest()
                yield f"{label} {path.name} {sha}"


def nan_planted(p, source, pos, call):
    """``p`` whose ``call``-th call (from 0) of ``f`` or ``grad f`` returns
    a NaN in entry or row ``pos``."""
    count = [0]
    oracle = p.smooth if source == "f" else p.smooth_jac

    def planted(x):
        out = np.array(oracle(x), dtype=float)
        if count[0] == call:
            out[pos] = np.nan
        count[0] += 1
        return out

    return replace(p, **{"smooth" if source == "f" else "smooth_jac": planted})


def nan_run_lines():
    for name in ("SP1_l1", "MHHM2"):
        base, desc = builtin_problem(name)
        x0 = sample_initial_points(desc, 1, seed=2)[0]
        for source, pos, call, variant in itertools.product(
                ("f", "jac"), (0, -1), (0, 1, 2, 4, 9), ("backtracking", "pgm")):
            cfg = SolverConfig(L_init=1.0 if variant == "backtracking" else desc.L_true,
                               eps=1e-6, max_iter=200, variant=variant)
            res = run_solver(nan_planted(base, source, pos, call), x0, cfg)
            # Every run that does not converge says why.
            assert bool(res.reason) == (res.status is not Status.CONVERGED)
            recs = res.trace.records
            parts = (np.asarray(v, dtype=float).tobytes() for r in recs
                     for v in (r.L, r.x, r.objectives, r.dual_gap, r.residual))
            sha = hashlib.sha256(b"".join(parts)).hexdigest()[:16]
            yield (f"{name} {source} {pos} {call} {variant}: "
                   f"{res.status.value} {len(recs)} {sha}")


# The goldens under tests/, each with the generator of its lines.
GOLDENS = {"trace_digest.txt": trace_digest, "cli_digest.txt": cli_digest,
           "nan_runs.txt": nan_run_lines}


def main() -> int:
    for name, lines in GOLDENS.items():
        (ROOT / "tests" / name).write_text("".join(line + "\n" for line in lines()))
    groups = {"builtin": [builtin_problem(name) for name in available_problems()],
              **paper_table.generated_problems()}
    doc = paper_table.table(groups)
    (ROOT / "paper_table.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(paper_table.markdown(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
