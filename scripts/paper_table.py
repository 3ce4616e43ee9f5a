"""Adaptive against monotone backtracking, beside the fixed-step baselines.

``scripts/goldens.py`` writes ``table`` of every built-in and of
``generated_problems`` to ``paper_table.json`` and prints its ``markdown``.
Each problem runs four variants from 20 starts, ``sample_initial_points(desc,
20, 0)``, with ``eps=1e-6`` and ``max_iter=1000``:

- ``backtracking``: ``Variant.BACKTRACKING`` with the default ``sigma = 2``,
  which lets ``L`` go down between iterations;
- ``monotone``: ``Variant.BACKTRACKING`` with ``sigma`` the next float
  above 1, ``1 + 2^-52``, the classical rule under which ``L`` only grows
  (``SolverConfig`` requires ``sigma > 1``).  Its one-ulp deflation stays
  within the bound test's rounding slack, so a trial at an exact curvature
  passes as it does under ``sigma = 1``;
- ``fixed``: ``Variant.FIXED`` with ``L_init = L_true``;
- ``pgm``: ``Variant.PGM`` with ``L_init = L_true``.

The fixed-step rows are ``n/a`` for problems without ``L_true`` (DD1, FF1).
The generated problems are the convex quadratics of ``perfbench``'s
``generated_m3`` and ``generated_large_n`` workloads at seed 1, read through
``load_problem_file``.  Each row holds the accepted iterations, the trials
(iterations plus backtracks), the calls of ``f`` and of ``grad f``, counted
by wrappers around the problem's oracles, and the count of each final
status, over every run however it stopped.  ``totals`` sums the rows of
each group for each variant.  The table holds no wall time, so reruns give
byte-identical files.
"""

import math
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

from mofista import SolverConfig, load_problem_file, run_solver, sample_initial_points

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402  (the generated problems' own generator)

STARTS = 20
EPS = 1e-6
MAX_ITER = 1000
MONOTONE_SIGMA = math.nextafter(1.0, 2.0)
GENERATED_SEED = 1
VARIANTS = ("backtracking", "monotone", "fixed", "pgm")
COUNTS = ("runs", "iterations", "trials", "f_calls", "jac_calls")


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
            starts = sample_initial_points(desc, STARTS, 0)
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
    return {"settings": {"starts": STARTS, "eps": EPS, "max_iter": MAX_ITER,
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
