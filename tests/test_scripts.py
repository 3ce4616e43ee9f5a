"""Smoke tests for the tooling under ``scripts/`` and the documented API."""

import dataclasses
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import bench
import call_counts
import goldens
import mofista
import verify_trace_invariants as verify

ROOT = Path(__file__).resolve().parent.parent


def test_verify_trace_invariants_passes(verify_runs):
    # Every check holds on each run of the script.  Each reference set is x0,
    # up to 40 draws in its level set and the 10 points of the segment
    # [x0, x_K], which every run adds since it ends with F(x_K) <= F(x0).
    assert verify_runs
    for *_, res, Z, checks in verify_runs:
        assert all(checks.values())
        x0 = res.trace.x0
        assert 11 <= len(Z.points) <= 51
        assert np.array_equal(Z.points[0], x0)
        assert np.array_equal(Z.points[-10:], x0 + verify.SEGMENT * (res.x - x0))


def _halve_every_t(trace):
    return dataclasses.replace(trace, records=tuple(
        dataclasses.replace(r, t=0.5 * r.t) for r in trace.records))


def test_growth_check_in_verify_script_binds_on_sp1(verify_runs):
    # On the script's SP1 backtracking runs the growth inequality
    # t^2 * 8 beta L_f >= (k+1)^2 L has less room than the factor 4 that
    # halving every t takes away, so that plant is flagged.
    runs = [(desc, cfg, res.trace) for name, label, _, desc, cfg, res, _, _ in verify_runs
            if (name, label) == ("SP1", "backtracking")]
    assert len(runs) == 5
    ratios = [r.t ** 2 * 8.0 * cfg.beta * desc.L_true / ((r.k + 1) ** 2 * r.L)
              for desc, cfg, trace in runs for r in trace.records]
    assert min(ratios) < 4.0
    assert all(mofista.momentum_growth_check(tr, desc.L_true, cfg) for desc, cfg, tr in runs)
    assert not all(mofista.momentum_growth_check(_halve_every_t(tr), desc.L_true, cfg)
                   for desc, cfg, tr in runs)


def test_verify_trace_invariants_names_the_failed_checks(verify_runs, monkeypatch, capsys):
    # The script's runs with every t halved, each with its checks recomputed.
    def planted():
        for name, label, p, desc, cfg, res, Z, _ in verify_runs:
            res = dataclasses.replace(res, trace=_halve_every_t(res.trace))
            checks = verify.trace_checks(res.trace, p, desc, cfg, Z)
            yield name, label, p, desc, cfg, res, Z, checks

    monkeypatch.setattr(verify, "runs", planted)
    assert verify.main([]) == 1
    captured = capsys.readouterr()
    flags = [line.rsplit("checks=", 1)[1] for line in captured.out.splitlines()]
    assert flags and all(re.fullmatch(r"ok|FAIL:(step|energy|growth|cap)(,(energy|growth|cap))*", f)
                         for f in flags)
    assert any("growth" in f for f in flags)
    assert f"{sum(f != 'ok' for f in flags)} trace check(s) failed" in captured.err


def test_verify_trace_invariants_refuses_arguments(monkeypatch, capsys):
    # A flag of an old recipe, such as --eps, exits 2 before the first solve.
    monkeypatch.setattr(verify, "runs", None)
    monkeypatch.setattr("sys.argv", ["verify_trace_invariants.py", "--eps", "1e-3"])
    assert verify.main() == 2
    assert capsys.readouterr() == ("", "verify_trace_invariants.py takes no arguments\n")


# The line format of each golden under tests/.
GOLDEN_LINES = {
    "trace_digest.txt": r"\w+ (backtracking|fixed|pgm) \d+ \w+ \d+ [0-9a-f]{64}",
    "cli_digest.txt": r"(mixed|capped|diverging) \w+\.\w+ [0-9a-f]{64}",
    "nan_runs.txt": r"\w+ (f|jac) (0|-1) \d+ (backtracking|pgm): \w+ \d+ [0-9a-f]{16}",
}


@pytest.mark.parametrize("name", GOLDEN_LINES)
def test_golden_matches_the_committed_file(name):
    # Byte-identical outputs: a change that alters them on purpose rewrites
    # the goldens with scripts/goldens.py and says why.
    committed = (ROOT / "tests" / name).read_text().splitlines(keepends=True)
    assert all(re.fullmatch(GOLDEN_LINES[name], line.rstrip("\n")) for line in committed)
    assert [line + "\n" for line in goldens.GOLDENS[name]()] == committed


def test_trace_digest_runs_every_variant_that_has_its_step_constant():
    # Read from the committed file: DD1 and FF1 have no L_true, so they run
    # backtracking alone; every other built-in and each loaded problem runs
    # all three variants, each from the same starts.
    names = [*mofista.available_problems(), "loaded", "loaded_l1", "loaded_m5"]
    runs = [f"{name} {variant} {i}" for name in names
            for variant in (("backtracking",) if name in ("DD1", "FF1")
                            else ("backtracking", "fixed", "pgm"))
            for i in range(goldens.STARTS)]
    lines = (ROOT / "tests" / "trace_digest.txt").read_text().splitlines()
    assert [" ".join(line.split()[:3]) for line in lines] == runs


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


def _call_counts_stub(calls_per_trial):
    """A ``scripts/call_counts.py`` that prints fixed counts for ``--seed 1``
    run from the root of its checkout."""
    counts = {"builtin_m2": {"solves": 2, "trials": 8, "python_calls_per_trial": calls_per_trial,
                             "c_calls_per_trial": 70.25, "totals": {}}}
    return ("import json, pathlib, sys\n"
            "assert sys.argv[1:] == ['--seed', '1']\n"
            "assert pathlib.Path('scripts', 'call_counts.py').resolve() == "
            "pathlib.Path(__file__).resolve()\n"
            f"print(json.dumps({{'seed': 1, 'workloads': {counts!r}}}, indent=1))\n")


def test_bench_interleaves_modes_and_keeps_other_labels(tmp_path, monkeypatch):
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
    assert doc["change"]["call_counts"] is None  # this checkout has no call_counts.py

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
    # Each side runs its own call_counts.py once, with the seed, in its own root.
    for root, calls_per_trial in ((parent, 25.5), (here, 24.5)):
        (root / "scripts").mkdir()
        (root / "scripts" / "call_counts.py").write_text(_call_counts_stub(calls_per_trial))
    calls.clear()
    assert bench.main(argv) == 0
    first, second = ([(root, w, t) for _, w, t in rounds] for root in (parent, here))
    assert calls == first + second + second + first + first + second
    doc = json.loads(out.read_text())
    assert set(doc) == {"parent", "change"}
    for label, calls_per_trial in (("parent", 25.5), ("change", 24.5)):
        assert doc[label]["call_counts"] == {"builtin_m2": {
            "python_calls_per_trial": calls_per_trial, "c_calls_per_trial": 70.25,
            "trials": 8, "solves": 2}}
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


FAKE_CLOCK = """import random
now = [0.0]
noise = random.Random(5)


def tick(cost):
    now[0] += cost * (1.0 + 0.05 * noise.random())


def clock():
    return now[0]
"""


def _paired_stub(root, planted):
    """A checkout of 24 solves, each of which advances the shared fake clock
    by its own cost plus ``planted``, with 5% of noise."""
    (root / "perfbench").mkdir(parents=True)
    (root / "src" / "mofista").mkdir(parents=True)
    (root / "src" / "mofista" / "__init__.py").write_text("from . import solver\n")
    (root / "src" / "mofista" / "solver.py").write_text(
        f"import fake_clock\n\n\ndef run_solver(cost):\n    fake_clock.tick(cost + {planted!r})\n")
    (root / "perfbench" / "workloads.py").write_text(
        "MODULES = ('solver',)\n\n\n"
        "def write_inputs(workload, seed, work):\n    return []\n\n\n"
        "def setup_solves(mods, workload, seed, inputs):\n"
        "    return [0.001 * (1 + k % 5) for k in range(24)], []\n\n\n"
        "def solve(mods, job):\n    return mods.solver.run_solver(job)\n")
    return root


def test_bench_paired_phase_resolves_a_planted_cost(tmp_path, monkeypatch):
    (tmp_path / "fake_clock.py").write_text(FAKE_CLOCK)
    monkeypatch.syspath_prepend(str(tmp_path))
    clock = importlib.import_module("fake_clock").clock
    parent = _paired_stub(tmp_path / "parent", 0.0)
    # Each checkout is imported under its own name: the planted 0.2 ms per
    # solve, 7-20% of a solve, shows in every pair.
    slow = bench.paired({"parent": parent, "change": _paired_stub(tmp_path / "slow", 2e-4)},
                        ["generated_m3"], 1, rounds=3, clock=clock)["generated_m3"]
    assert (slow["solves"], slow["rounds"]) == (24, 3)
    assert 1.0 < slow["ci_low"] < slow["ratio"] < slow["ci_high"]
    same = bench.paired({"parent": parent, "change": _paired_stub(tmp_path / "same", 0.0)},
                        ["generated_m3"], 1, rounds=3, clock=clock)["generated_m3"]
    assert same["ci_low"] < 1.0 < same["ci_high"]
    # A checkout without the package or the workloads pairs nothing.
    assert bench.paired({"parent": parent, "change": tmp_path}, ["generated_m3"], 1) is None


def test_paper_table_repeats_and_matches_the_committed_rows():
    groups = {"builtin": [mofista.builtin_problem(name) for name in ("BK1", "FF1")]}
    outputs = [json.dumps(goldens.table(groups), indent=1) for _ in range(2)]
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert list(doc["rows"]) == ["BK1", "FF1"] and list(doc["totals"]) == ["builtin"]
    # FF1 has no L_true, so only the two backtracking rules run on it.
    assert doc["rows"]["FF1"]["fixed"] == doc["rows"]["FF1"]["pgm"] == "n/a"
    for variant in goldens.VARIANTS:
        cell = doc["rows"]["BK1"][variant]
        assert cell["runs"] == goldens.TABLE_STARTS and cell["statuses"] == {"converged": 20}
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


def test_readme_quotes_the_paper_table():
    # The README's tables are the markdown of the committed JSON, as
    # scripts/goldens.py prints it.
    doc = json.loads((ROOT / "paper_table.json").read_text())
    assert goldens.markdown(doc) in (ROOT / "README.md").read_text()


def test_call_counts_repeat_on_a_small_slice():
    for name in ("builtin_m2", "generated_m3"):
        got, again = (call_counts.count_workload(name, 1, solves=3) for _ in range(2))
        assert got == again
        assert got["solves"] == 3 and got["trials"] >= 3
        outer, inner = got["totals"]["run_solver"], got["totals"]["_solve_dual"]
        assert outer["python"] > inner["python"] > 0 and outer["c"] > inner["c"] > 0
