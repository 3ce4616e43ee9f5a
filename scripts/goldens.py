#!/usr/bin/env python3
"""Rewrite every bit golden from the current code.

    PYTHONPATH=src python3 scripts/goldens.py && git status

A change keeps the goldens exactly when ``git status`` then shows none of
the four files below modified.  A change that alters them on purpose
commits the rewritten files and says why.  Then the script prints
``markdown`` of the new table, which the README quotes verbatim.

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
  ``CONFIGS``, in name order, as perfbench's ``workloads.cli_outputs``
  reads it: with the wall-time columns (``wall_ms`` of ``results.csv``,
  ``mean_ms`` of ``aggregates.csv``) dropped before hashing.
- ``tests/nan_runs.txt``: one line per run of SP1_l1 and MHHM2 whose
  ``f`` or ``grad f`` returns one NaN, first or last among the objectives,
  at its 1st, 2nd, 3rd, 5th or 10th call: the run, its status, its
  iteration count and a digest of its records.
- ``paper_table.json``: adaptive against monotone backtracking, beside the
  fixed-step baselines.  ``table`` runs the four variants of ``configs`` on
  every built-in and on ``generated_problems``, the convex quadratics of
  perfbench's ``generated_m3`` and ``generated_large_n`` workloads at seed
  1 read through ``load_problem_file``, from 20 starts each,
  ``sample_initial_points(desc, 20, 0)``, with ``eps=1e-6`` and
  ``max_iter=1000``: ``backtracking``, the default ``sigma = 2``, which
  lets ``L`` go down between iterations; ``monotone``, ``sigma`` the next
  float above 1, ``1 + 2^-52``, the classical rule under which ``L`` only
  grows (``SolverConfig`` requires ``sigma > 1``; the one-ulp deflation
  stays within the bound test's rounding slack, so a trial at an exact
  curvature passes as under ``sigma = 1``); and ``fixed`` and ``pgm`` with
  ``L_init = L_true``, ``n/a`` for problems without it (DD1, FF1).  Each
  row holds the accepted iterations, the trials (iterations plus
  backtracks), the calls of ``f`` and of ``grad f``, counted by wrappers
  around the problem's oracles, and the count of each final status, over
  every run however it stopped.  ``totals`` sums the rows of each group for
  each variant.  The table holds no wall time, so reruns give
  byte-identical files.
"""

import hashlib
import itertools
import json
import math
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from mofista import (BenchConfig, SolverConfig, Status, available_problems, builtin_problem,
                     load_problem_file, run_benchmark, run_solver, sample_initial_points)
from mofista.cli import SOLVER_NAMES

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402

STARTS = 12   # trace_digest.txt's starts per problem and variant

# paper_table.json's settings.
TABLE_STARTS = 20
EPS = 1e-6
MAX_ITER = 1000
MONOTONE_SIGMA = math.nextafter(1.0, 2.0)
GENERATED_SEED = 1
VARIANTS = ("backtracking", "monotone", "fixed", "pgm")
COUNTS = ("runs", "iterations", "trials", "f_calls", "jac_calls")

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

def loaded_problems():
    """``(instance, descriptor)`` of ``loaded``, ``loaded_l1`` and
    ``loaded_m5``, read back by ``load_problem_file``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loaded.json"
        out = []
        for spec in (dict(LOADED, name="loaded"), dict(LOADED, name="loaded_l1", l1_weight=0.5),
                     workloads.quadratic_spec(np.random.default_rng(5), "loaded_m5", 5, 4)):
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


def cli_digest():
    for label, settings in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp)
            run_benchmark(BenchConfig(out_dir=out_dir, **settings))
            for name, text in workloads.cli_outputs(out_dir).items():
                yield f"{label} {name} {hashlib.sha256(text.encode()).hexdigest()}"


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


def configs(L_true):
    """The ``SolverConfig`` of each variant, ``None`` where it needs ``L_true``."""
    base = dict(eps=EPS, max_iter=MAX_ITER)
    fixed = {label: None if L_true is None else SolverConfig(L_init=L_true, variant=label, **base)
             for label in ("fixed", "pgm")}
    return {"backtracking": SolverConfig(**base),
            "monotone": SolverConfig(sigma=MONOTONE_SIGMA, **base), **fixed}


def counting_copy(p):
    """``p`` with ``f`` and ``grad f`` wrapped in call counters."""
    calls = Counter()

    def counted(key, oracle):
        def call(x):
            calls[key] += 1
            return oracle(x)
        return call

    return replace(p, smooth=counted("f_calls", p.smooth),
                   smooth_jac=counted("jac_calls", p.smooth_jac)), calls


def row(p, starts, cfg) -> dict:
    """Counts and statuses of ``cfg`` from every start."""
    out = dict.fromkeys(COUNTS, 0)
    statuses = Counter()
    p, calls = counting_copy(p)
    for x0 in starts:
        out["runs"] += 1
        calls.clear()
        res = run_solver(p, x0, cfg)
        records = res.trace.records
        out["iterations"] += len(records)
        out["trials"] += len(records) + sum(r.backtracks for r in records)
        out["f_calls"] += calls["f_calls"]
        out["jac_calls"] += calls["jac_calls"]
        statuses[res.status.value] += 1
    out["statuses"] = dict(sorted(statuses.items()))
    return out


def generated_problems() -> dict:
    """``group -> [(instance, descriptor)]`` of perfbench's generated
    workloads, written by its own generator and read back."""
    with tempfile.TemporaryDirectory() as tmp:
        return {name: [load_problem_file(path) for path in
                       workloads.write_inputs(name, GENERATED_SEED, Path(tmp))]
                for name in workloads.GENERATED}


def table(groups: dict) -> dict:
    """Rows of every problem of every group, and each group's totals."""
    rows, totals = {}, {}
    for group, problems in groups.items():
        total = {v: dict.fromkeys(COUNTS, 0) | {"problems": 0, "statuses": Counter()}
                 for v in VARIANTS}
        for p, desc in problems:
            starts = sample_initial_points(desc, TABLE_STARTS, 0)
            cells = {}
            for label, cfg in configs(desc.L_true).items():
                if cfg is None:
                    cells[label] = "n/a"
                    continue
                cells[label] = cell = row(p, starts, cfg)
                total[label]["problems"] += 1
                total[label]["statuses"].update(cell["statuses"])
                for key in COUNTS:
                    total[label][key] += cell[key]
            rows[desc.name] = {"group": group, **cells}
        for t in total.values():
            t["statuses"] = dict(sorted(t["statuses"].items()))
        totals[group] = total
    return {"settings": {"starts": TABLE_STARTS, "eps": EPS, "max_iter": MAX_ITER,
                         "monotone_sigma": MONOTONE_SIGMA, "generated_seed": GENERATED_SEED},
            "rows": rows, "totals": totals}


def markdown(doc: dict) -> str:
    """Iterations / trials per variant, one line per built-in and one per
    group total; then the ``f`` and ``f + grad f`` calls of the adaptive and
    the monotone rule per group."""
    def cell(c):
        return "n/a" if c == "n/a" else f"{c['iterations']} / {c['trials']}"

    lines = ["| Problem | " + " | ".join(VARIANTS) + " |", "|---" * (len(VARIANTS) + 1) + "|"]
    for name, r in doc["rows"].items():
        if r["group"] == "builtin":
            lines.append(f"| {name} | " + " | ".join(cell(r[v]) for v in VARIANTS) + " |")
    for group, total in doc["totals"].items():
        lines.append(f"| **{group} total** | "
                     + " | ".join(cell(total[v]) for v in VARIANTS) + " |")
    lines += ["", "| Group | `f` calls, adaptive | `f` calls, monotone "
              "| `f` + `∇f` calls, adaptive | `f` + `∇f` calls, monotone |", "|---" * 5 + "|"]
    for group, total in doc["totals"].items():
        adaptive, monotone = total["backtracking"], total["monotone"]
        lines.append(f"| {group} | {adaptive['f_calls']} | {monotone['f_calls']} "
                     f"| {adaptive['f_calls'] + adaptive['jac_calls']} "
                     f"| {monotone['f_calls'] + monotone['jac_calls']} |")
    return "\n".join(lines)


# The goldens under tests/, each with the generator of its lines.
GOLDENS = {"trace_digest.txt": trace_digest, "cli_digest.txt": cli_digest,
           "nan_runs.txt": nan_run_lines}


def main() -> int:
    for name, lines in GOLDENS.items():
        (ROOT / "tests" / name).write_text("".join(line + "\n" for line in lines()))
    groups = {"builtin": [builtin_problem(name) for name in available_problems()],
              **generated_problems()}
    doc = table(groups)
    (ROOT / "paper_table.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(markdown(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
