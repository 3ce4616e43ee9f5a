"""Smoke tests for the tooling under ``scripts/`` and the documented API."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import mofista
from mofista.problems import evaluate_objectives

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_trace_invariants_passes():
    assert load_script("verify_trace_invariants").main([]) == 0


def test_rate_check_in_verify_script_can_fail_on_sp1():
    # The rate bound only constrains iterates whose worst-component gap to a
    # Pareto point is positive.  On SP1, with the script's starts and
    # settings, a backtracking run has such an iterate.
    p, desc = mofista.builtin_problem("SP1")
    F_z = np.vstack([evaluate_objectives(p, z) for z in mofista.pareto_segment("SP1", 20)])
    cfg = mofista.SolverConfig(eps=1e-6, max_iter=500)
    gaps = [np.min(F[None, :] - F_z, axis=1)
            for x0 in mofista.sample_initial_points(desc, 5, seed=(7, 3))
            for F in mofista.run_solver(p, x0, cfg).trace.objective_rows()[1:]]
    assert np.max(gaps) > 0.0


def test_trace_digest_repeats_with_one_line_per_run(capsys):
    digest = load_script("trace_digest")
    outputs = []
    for _ in range(2):
        assert digest.main(["--problems", "BK1", "DD1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # BK1 runs all three variants; DD1 has no L_true, so backtracking only.
    runs = [f"{name} {variant} {i}" for name, variants in
            (("BK1", ("backtracking", "fixed", "pgm")), ("DD1", ("backtracking",)))
            for variant in variants for i in range(digest.STARTS)]
    lines = outputs[0].splitlines()
    assert [" ".join(line.split()[:3]) for line in lines] == runs
    assert all(re.fullmatch(r"\w+ \d+ [0-9a-f]{64}", line.split(" ", 3)[3])
               for line in lines)


def test_trace_digest_default_run_covers_loaded_problems(capsys):
    digest = load_script("trace_digest")
    outputs = []
    for _ in range(2):
        assert digest.main([]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # Byte-identical traces: a change that alters them on purpose regenerates
    # the file with ``scripts/trace_digest.py`` and says so.
    assert outputs[0] == (ROOT / "tests" / "trace_digest.txt").read_text()
    # Both loaded problems have L_true, so every variant runs on each.
    runs = [f"{name} {variant} {i}" for name in ("loaded", "loaded_l1")
            for variant in ("backtracking", "fixed", "pgm") for i in range(digest.STARTS)]
    lines = outputs[0].splitlines()
    loaded = [line for line in lines if line.startswith("loaded")]
    assert [" ".join(line.split()[:3]) for line in loaded] == runs
    assert lines[-len(runs):] == loaded
    assert all(re.fullmatch(r"\w+ \d+ [0-9a-f]{64}", line.split(" ", 3)[3]) for line in loaded)


def test_cli_digest_matches_the_committed_file(capsys):
    # Byte-identical CLI outputs outside the wall-time columns: a change that
    # alters them on purpose regenerates the file with ``scripts/cli_digest.py``.
    assert load_script("cli_digest").main([]) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "cli_digest.txt").read_text()


def test_readme_public_api_is_all():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n- ", 1)[1]
    names = set(re.findall(r"`(\w+)`", bullets))
    assert names == set(mofista.__all__)
    assert len(mofista.__all__) == len(names)


def test_readme_python_examples_run():
    # The quick start, then the custom problem in the same namespace, so the
    # second block may use the first block's imports as a reader would.
    text = (ROOT / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    p = namespace["p"]
    res = mofista.run_solver(p, np.array([2.0, -1.0]), mofista.SolverConfig(eps=1e-6))
    assert res.status is mofista.Status.CONVERGED


def test_readme_problem_file_example_loads(tmp_path):
    text = (ROOT / "README.md").read_text()
    section = text.split("## Problem files", 1)[1].split("\n## ", 1)[0]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    spec = json.loads(example)
    path = tmp_path / "example.json"
    path.write_text(example)
    p, desc = mofista.load_problem_file(path)
    assert (desc.name, p.n, p.m) == (spec["name"], spec["n"], spec["m"])
    assert p.nonsmooth.weight == spec["l1_weight"]
    # f_i(x) = x'Q_i x/2 + b_i'x + c_i, with b_i and c_i defaulting to zero.
    x = np.asarray(spec["upper"])
    want = [0.5 * x @ np.asarray(o["quad"]) @ x + np.asarray(o.get("linear", [0.0] * p.n)) @ x
            + o.get("constant", 0.0) for o in spec["objectives"]]
    assert np.allclose(p.smooth(x), want, rtol=1e-15, atol=0.0)


def canned_run(p50, correct=True, failed=0):
    """Output of one ``perfbench/run.py`` run: log lines, then the result."""
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {"solve_ms_p50": {"value": p50, "unit": "ms"},
                          "iterations_total": {"value": 2868.0, "unit": "count"}}}
    return "workload builtin_m2, seed 1, 3 s, trace 0\n2 untraced passes\n" \
        + json.dumps(result) + "\n"


def test_bench_summarises_canned_runs():
    bench = load_script("bench")
    runs = [bench.parse_result(canned_run(v)) for v in (2.0, 1.0, 5.0, 3.0, 4.0)]
    summary = bench.summarise(runs)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["metrics"]["solve_ms_p50"] == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5, "unit": "ms"}
    assert summary["metrics"]["iterations_total"]["q1"] == 2868.0
    one = bench.summarise([bench.parse_result(canned_run(1.5, correct=False, failed=2))])
    assert not one["correct"] and one["failed"] == 2
    assert one["metrics"]["solve_ms_p50"] == {
        "median": 1.5, "q1": 1.5, "q3": 1.5, "n": 1, "unit": "ms"}


def test_bench_interleaves_modes_and_keeps_other_labels(tmp_path, monkeypatch):
    bench = load_script("bench")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--label", "change", "--out", str(out)]) == 2
    assert not out.exists()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    assert bench.main(["--label", "change", "--out", str(out)]) == 2
    declared = {"run_seconds": 3, "workloads": [{"name": "builtin_m2"}, {"name": "cli_suite"}],
                "end_to_end": [{"name": "solve_ms_p50", "better": "lower"},
                               {"name": "iterations_total", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    out.write_text(json.dumps({"parent": {"runs": 3}}))
    calls = []

    def fake(workload, seed, seconds, trace, root):
        calls.append((root, workload, trace))
        assert seconds == 3
        return bench.parse_result(canned_run(float(len(calls))))

    monkeypatch.setattr(bench, "run_once", fake)
    assert bench.main(["--label", "change", "--out", str(out), "--runs", "2"]) == 0
    here = Path(".")
    rounds = [(here, "builtin_m2", 0), (here, "builtin_m2", 1),
              (here, "cli_suite", 0), (here, "cli_suite", 1)]
    assert calls == rounds * 2
    doc = json.loads(out.read_text())
    assert doc["parent"] == {"runs": 3}
    p50 = doc["change"]["workloads"]["cli_suite"]["trace1"]["metrics"]["solve_ms_p50"]
    assert (p50["median"], p50["n"]) == (6.0, 2)

    # With --parent the parent checkout's passes come first in odd rounds and
    # this one's first in even rounds.
    parent = tmp_path / "parent"
    argv = ["--parent", str(parent), "--label", "change", "--out", str(out), "--runs", "3"]
    assert bench.main(argv) == 2
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    # A parent that declares another benchmark runs nothing.
    (parent / "BENCHMARK.json").write_text(json.dumps({**declared, "run_seconds": 4}))
    calls.clear()
    assert bench.main(argv) == 2
    assert calls == []
    (parent / "BENCHMARK.json").write_text(json.dumps(declared))
    with pytest.raises(SystemExit):
        bench.main(["--parent", str(parent), "--label", "parent", "--out", str(out)])
    calls.clear()
    assert bench.main(argv) == 0
    first, second = ([(root, w, t) for _, w, t in rounds] for root in (parent, here))
    assert calls == first + second + second + first + first + second
    doc = json.loads(out.read_text())
    assert set(doc) == {"parent", "change"}
    # builtin_m2 trace 0 is each label's first pass: runs 1, 13, 17 of the
    # parent against 5, 9, 21 here, so this checkout wins round 2 only.
    for label, values in (("parent", [1.0, 13.0, 17.0]), ("change", [5.0, 9.0, 21.0])):
        p50 = doc[label]["workloads"]["builtin_m2"]["trace0"]["metrics"]["solve_ms_p50"]
        assert (p50["q1"], p50["median"], p50["q3"], p50["n"]) == (
            (values[0] + values[1]) / 2, values[1], (values[1] + values[2]) / 2, 3)
    assert "pairs" not in doc["parent"]["workloads"]["builtin_m2"]["trace0"]
    for workload in ("builtin_m2", "cli_suite"):
        for trace in ("trace0", "trace1"):
            assert doc["change"]["workloads"][workload][trace]["pairs"] == {
                "solve_ms_p50": {"won": 1, "lost": 2, "tied": 0},
                "iterations_total": {"won": 0, "lost": 0, "tied": 3}}


def test_paper_table_repeats_and_matches_the_committed_rows(tmp_path, capsys):
    table = load_script("paper_table")
    outputs = []
    for k in range(2):
        out = tmp_path / f"table{k}.json"
        assert table.main(["--problems", "BK1", "FF1", "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0][0])
    assert list(doc["rows"]) == ["BK1", "FF1"] and list(doc["totals"]) == ["builtin"]
    # FF1 has no L_true, so only the two backtracking rules run on it.
    assert doc["rows"]["FF1"]["fixed"] == doc["rows"]["FF1"]["pgm"] == "n/a"
    for variant in table.VARIANTS:
        cell = doc["rows"]["BK1"][variant]
        assert cell["runs"] == table.STARTS and cell["statuses"] == {"converged": 20}
        # Counted calls: iteration 1 reuses f(x0), so f stays under 1 + 2T per
        # run of T trials, and grad f takes one call per iteration at least.
        assert cell["trials"] <= cell["f_calls"] < cell["runs"] + 2 * cell["trials"]
        assert cell["iterations"] <= cell["jac_calls"] <= cell["trials"]
    # pgm linearizes at y = x: one grad f call per iteration.
    assert doc["rows"]["BK1"]["pgm"]["jac_calls"] == doc["rows"]["BK1"]["pgm"]["iterations"]
    assert doc["totals"]["builtin"]["pgm"]["problems"] == 1
    committed = json.loads((ROOT / "paper_table.json").read_text())
    assert committed["settings"] == doc["settings"]
    assert all(committed["rows"][name] == doc["rows"][name] for name in ("BK1", "FF1"))


def test_call_counts_repeat_on_a_small_slice(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    counts = load_script("call_counts")
    argv = ["--solves", "3", "--workloads", "builtin_m2", "generated_m3"]
    outputs = []
    for _ in range(2):
        assert counts.main(argv) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    for name in ("builtin_m2", "generated_m3"):
        got = outputs[0]["workloads"][name]
        assert got["solves"] == 3 and got["trials"] >= 3
        outer, inner = got["totals"]["run_solver"], got["totals"]["_solve_dual"]
        assert outer["python"] > inner["python"] > 0 and outer["c"] > inner["c"] > 0
