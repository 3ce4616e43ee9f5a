#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at minimum size, traced and untraced, and checks that
each run prints a result line naming every metric of ``BENCHMARK.json`` with
its unit, that the input generator is deterministic in its seed, and that
the benchmark refuses to run without the program's sources.  Exits nonzero
on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]


def shrink() -> None:
    """Minimum sizes that still give more than ten solves per pass."""
    run.SETUPS = 2
    wl.BUILTIN_MIX = (("SP1_l1", 3), ("SP1", 3), ("FF1", 2), ("BK1_l1", 2),
                      ("JOS1_l1", 2), ("DD1", 1))
    wl.GENERATED = {"generated_m3": (3, 4, 3, 4), "generated_large_n": (2, 20, 3, 4)}
    wl.CLI_SUBRUNS = 1
    wl.CLI_RUNS = 2


def run_once(workload: str, trace: int) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(spec: dict, workload: str, trace: int, result: dict) -> None:
    where = f"{workload} trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError(f"{where}: {result['correct']=} {result['attempted']=}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        raise AssertionError(f"{where}: metrics {printed} differ from {expected}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], float):
            raise AssertionError(f"{where}: metric {name} is {m}")


def check_generator() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        texts = {}
        for label, seed in (("a", 5), ("b", 5), ("c", 6)):
            (tmp / label).mkdir()
            paths = wl.write_inputs("generated_m3", seed, tmp / label)
            texts[label] = [p.read_text() for p in paths]
        if texts["a"] != texts["b"]:
            raise AssertionError("the generator gave different inputs for one seed")
        if texts["a"] == texts["c"]:
            raise AssertionError("the generator gave the same inputs for two seeds")


def check_refuses_without_sources() -> None:
    """A directory holding only the benchmark must fail without a result."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(Path(__file__).resolve().parent, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "builtin_m2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError(f"ran without sources: {proc.returncode} {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if names != list(run.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {names} != {run.WORKLOADS}")
    check_generator()
    check_refuses_without_sources()
    shrink()
    for workload in names:
        for trace in (0, 1):
            check_result(spec, workload, trace, run_once(workload, trace))
            print(f"ok {workload} trace {trace}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
