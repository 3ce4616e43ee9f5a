#!/usr/bin/env python3
"""Repeat the repository benchmark and summarise every metric.

    python3 scripts/bench.py --label change --runs 5 --seed 1 --out BENCH.json

Runs from the root of a checkout, like ``perfbench/run.py``, which it calls
once per workload, trace mode (``--trace 0`` and ``--trace 1``) and repeat,
with the workloads and run length that ``BENCHMARK.json`` declares.
The repeats are interleaved: every round runs each workload in each mode
once, so a slow phase of the host spreads over all of them.  For each
workload, mode and metric the output holds the median, the quartiles and
the number of runs; ``correct`` is true only if every run was.  The summary
goes under ``--label`` in the ``--out`` JSON file, which keeps the other
labels it already holds.

``--parent DIR`` names a second checkout to compare against.  Each round
then runs every workload in each mode in both checkouts, ``DIR`` first in
odd rounds and this checkout first in even ones, and the first summary goes
under the label ``parent``, so drift of the host over the run and the order
within a round reach both sides alike.  Every workload and mode of this
checkout's summary then also holds ``pairs``: for each metric, the rounds
this checkout won, lost and tied against the parent's run of the same
round, by the direction ``BENCHMARK.json`` declares for it.  Both sides
must run one benchmark: ``BENCHMARK.json`` and every file under
``perfbench/`` (caches aside) must match byte for byte, or nothing runs:

    mkdir ../base && git archive HEAD~1 | tar -x -C ../base
    python3 scripts/bench.py --parent ../base --label change --out BENCH.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNNER = Path("perfbench") / "run.py"
DECLARATION = Path("BENCHMARK.json")


def parse_result(stdout: str) -> dict:
    """The JSON object on the last nonblank line of a run's output."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``, with the quartiles of the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(results: list) -> dict:
    """Median, quartiles and count of every metric over ``results``, the
    parsed outputs of repeated runs of one workload in one mode."""
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                         "unit": entry["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "failed": max(r["failed"] for r in results), "metrics": metrics}


def count_pairs(mine: list, theirs: list, better: dict) -> dict:
    """Rounds in which ``mine`` won, lost and tied against ``theirs``, run
    for run, on each metric that ``better`` maps to ``"higher"`` or ``"lower"``."""
    pairs = {}
    for name in mine[0]["metrics"].keys() & better.keys():
        sign = 1.0 if better[name] == "higher" else -1.0
        gains = [sign * (a["metrics"][name]["value"] - b["metrics"][name]["value"])
                 for a, b in zip(mine, theirs)]
        won, lost = sum(g > 0.0 for g in gains), sum(g < 0.0 for g in gains)
        pairs[name] = {"won": won, "lost": lost, "tied": len(gains) - won - lost}
    return pairs


def benchmark_files(root: Path) -> dict:
    """The bytes of ``BENCHMARK.json`` and of every file under ``perfbench/``
    but ``__pycache__``, by path relative to the checkout ``root``."""
    paths = [DECLARATION] + [p.relative_to(root) for p in (root / RUNNER.parent).rglob("*")
                             if p.is_file() and "__pycache__" not in p.parts]
    return {str(p): (root / p).read_bytes() for p in paths}


def run_once(workload: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """One run of the benchmark of the checkout at ``root``."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return parse_result(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key of this summary in the output")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--parent", type=Path, metavar="DIR",
                    help="checkout to alternate with in every round, summarised under 'parent'")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    roots = {args.label: Path(".")}
    if args.parent is not None:
        if args.label == "parent":
            ap.error("--label must not be 'parent' when --parent is given")
        roots = {"parent": args.parent, **roots}
    for root in roots.values():
        if not ((root / RUNNER).is_file() and (root / DECLARATION).is_file()):
            print(f"bench: no {RUNNER} or {DECLARATION} in {root}; name the root of a checkout",
                  file=sys.stderr)
            return 2
    if args.parent is not None:
        mine, theirs = benchmark_files(Path(".")), benchmark_files(args.parent)
        for name in sorted(mine.keys() | theirs.keys()):
            if mine.get(name) != theirs.get(name):
                print(f"bench: {name} differs between . and {args.parent}; "
                      "both sides must run one benchmark", file=sys.stderr)
                return 2
    declared = json.loads(DECLARATION.read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"]
              for m in declared.get("end_to_end", []) + declared.get("per_layer", [])}

    labels = list(roots)
    raw: dict = {(label, w, t): [] for label in labels for w in workloads for t in (0, 1)}
    for k in range(args.runs):
        for label in labels if k % 2 == 0 else labels[::-1]:
            for workload, trace in ((w, t) for w in workloads for t in (0, 1)):
                raw[label, workload, trace].append(
                    run_once(workload, args.seed, seconds, trace, roots[label]))
                print(f"round {k + 1}/{args.runs}: {label} {workload} trace {trace}", flush=True)

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    for label in roots:
        doc[label] = {"seed": args.seed, "seconds": seconds, "runs": args.runs,
                      "workloads": {w: {f"trace{t}": summarise(raw[label, w, t]) for t in (0, 1)}
                                    for w in workloads}}
    if "parent" in roots:
        for (label, w, t), results in raw.items():
            if label == args.label:
                doc[label]["workloads"][w][f"trace{t}"]["pairs"] = count_pairs(
                    results, raw["parent", w, t], better)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
