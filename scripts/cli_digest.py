#!/usr/bin/env python3
"""Print one digest line per file that the benchmark CLI writes.

Runs ``run_benchmark`` in a temporary directory on three fixed
configurations and prints ``<config> <file> <sha256>`` for every output
file, in name order.  The wall-time columns (``wall_ms`` of
``results.csv``, ``mean_ms`` of ``aggregates.csv``) are dropped before
hashing; everything else the CLI writes is deterministic.  The
configurations:

- ``mixed``: SP1_l1 and VFM1 (two and three objectives), all three
  solvers, 4 runs, seed 3, ``eps=1e-6``: fronts, 2- and 3-panel SVGs,
  purity and profiles;
- ``capped``: BK1, SP1 and MHHM2, all three solvers, ``max_iter=3``,
  3 runs: profile columns that every solver fails;
- ``diverging``: VFM1 with ``fixed`` alone at ``fixed_L=1e-3``, 2 runs:
  ``non_finite`` and ``subproblem_failure`` rows, each with a ``reason``,
  and a ``tau``-only ``profiles.csv``.

Two commits write the same reports exactly when their outputs are
identical:

    PYTHONPATH=src python3 scripts/cli_digest.py > before.txt  # one commit
    PYTHONPATH=src python3 scripts/cli_digest.py > after.txt   # the other
    diff before.txt after.txt
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from mofista import BenchConfig, run_benchmark
from mofista.cli import SOLVER_NAMES

CONFIGS = {
    "mixed": dict(problems=("SP1_l1", "VFM1"), solvers=SOLVER_NAMES, runs=4, seed=3,
                  eps=1e-6),
    "capped": dict(problems=("BK1", "SP1", "MHHM2"), solvers=SOLVER_NAMES, max_iter=3,
                   runs=3),
    "diverging": dict(problems=("VFM1",), solvers=("fixed",), fixed_L=1e-3, runs=2),
}

WALL_COLUMNS = {"results.csv": "wall_ms", "aggregates.csv": "mean_ms"}


def without_wall_times(path: Path) -> str:
    """The file's text, minus its wall-time column if it has one."""
    text = path.read_text()
    if path.name not in WALL_COLUMNS:
        return text
    lines = [line.split(",") for line in text.splitlines()]
    drop = lines[0].index(WALL_COLUMNS[path.name])
    return "\n".join(",".join(c for i, c in enumerate(row) if i != drop) for row in lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.parse_args(argv)
    for label, settings in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp)
            run_benchmark(BenchConfig(out_dir=out_dir, **settings))
            for path in sorted(out_dir.iterdir()):
                sha = hashlib.sha256(without_wall_times(path).encode()).hexdigest()
                print(f"{label} {path.name} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
