"""Benchmark harness: config handling, CSV layout, SVG output, exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mofista
from mofista import (
    BenchConfig,
    BenchReport,
    ConfigError,
    Front,
    Variant,
    nondominated_filter,
    run_benchmark,
)
from mofista import cli, suite
from mofista.cli import main
from mofista.plots import emit_svg_scatter
from mofista.suite import load_problem_file, register_problem


def _read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# configuration validation


def test_bench_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        BenchConfig(runs=0)
    with pytest.raises(ConfigError):
        BenchConfig(seed=-1)
    with pytest.raises(ConfigError):
        BenchConfig(solvers=())
    with pytest.raises(ConfigError):
        BenchConfig(problems=())
    with pytest.raises(ConfigError):
        BenchConfig(solvers=("newton",))
    with pytest.raises(ConfigError):
        BenchConfig(fixed_L=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            BenchConfig(fixed_L=bad)
    for repeated in ({"problems": ("SP1", "SP1")},
                     {"solvers": ("backtracking", "backtracking")}):
        with pytest.raises(ConfigError):
            BenchConfig(**repeated)
    for bad in ({"beta": 0.5}, {"sigma": 1.0}, {"eps": 0.0}, {"max_iter": 0},
                {"L_init": -1.0}, {"L_init": np.inf}, {"beta": np.inf},
                {"sigma": np.inf}, {"sigma": np.nan},
                # A float runs or seed raised TypeError inside run_benchmark
                # after out_dir existed; a bare string was split into letters.
                {"runs": 1.5}, {"seed": 1.5}, {"runs": True}, {"problems": "BK1"},
                {"solvers": "backtracking"}, {"max_iter": 2.5}, {"eps": np.inf},
                # Strings and non-sequences raised TypeError; True passed as 1.0.
                {"L_init": "1"}, {"eps": "1e-3"}, {"problems": 5}, {"solvers": 5},
                {"problems": None}, {"fixed_L": "2"}, {"fixed_L": True}, {"L_init": True}):
        with pytest.raises(ConfigError):
            BenchConfig(**bad)
    bc = BenchConfig(runs=np.int64(2), seed=np.int64(1), max_iter=np.int64(3))
    assert (bc.runs, bc.seed, bc.max_iter) == (2, 1, 3)
    bc = BenchConfig(problems=["SP1"], L_init=np.float64(2.0), fixed_L=np.float32(3.0))
    assert (bc.problems, bc.L_init, bc.fixed_L) == (("SP1",), 2.0, 3.0)
    with pytest.raises(ConfigError, match="fixed_L must be positive and finite"):
        BenchConfig(fixed_L=-1.0)


def test_solver_names_are_the_variants():
    assert [v.value for v in Variant] == list(cli.SOLVER_NAMES)


# ---------------------------------------------------------------------------
# report structure


def test_row_and_aggregate_accounting(tmp_path):
    bc = BenchConfig(problems=("BK1",), runs=5, seed=1,
                     solvers=("backtracking", "fixed"), out_dir=tmp_path)
    report = run_benchmark(bc)
    assert len(report.rows) == 10
    assert len(report.aggregates) == 2
    assert report.failed == 0

    results = _read_csv(tmp_path / "results.csv")
    assert len(results) == 11
    assert results[0][:9] == ["problem", "solver", "run_id", "status",
                              "iterations", "backtracks_total", "wall_ms",
                              "final_residual", "reason"]
    assert results[0][9:] == ["F_1", "F_2", "x_1", "x_2"]
    assert all(row[8] == "" for row in results[1:])

    aggregates = _read_csv(tmp_path / "aggregates.csv")
    assert aggregates[0] == ["problem", "solver", "mean_iter", "mean_ms", "purity"]
    assert len(aggregates) == 3
    assert (tmp_path / "fronts_BK1.csv").exists()
    assert (tmp_path / "front_BK1.svg").exists()
    assert (tmp_path / "profiles.csv").exists()


def test_solvers_share_initial_points(tmp_path):
    # With max_iter=1 both fixed-step variants take one identical step
    # (t=1, y=x0, same L), so equal finals certify equal starts.
    bc = BenchConfig(problems=("BK1",), runs=4, seed=3, eps=1e-12, max_iter=1,
                     solvers=("fixed", "pgm"), fixed_L=2.0, out_dir=tmp_path)
    report = run_benchmark(bc)
    fixed = [r for r in report.rows if r.solver == "fixed"]
    pgm = [r for r in report.rows if r.solver == "pgm"]
    for a, b in zip(fixed, pgm):
        assert a.run_id == b.run_id
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.objectives, b.objectives)


def test_csv_floats_roundtrip_exactly(tmp_path):
    bc = BenchConfig(problems=("SP1",), runs=3, seed=5, out_dir=tmp_path)
    run_benchmark(bc)
    rows = _read_csv(tmp_path / "results.csv")
    for row in rows[1:]:
        for cell in row[6:]:
            if cell:
                assert f"{float(cell):.17g}" == cell


def test_diverging_fixed_step_gives_error_rows(tmp_path):
    # A step constant far below the curvature drives VFM1's iterates to
    # overflow; the runs must end as rows, not crash the benchmark.
    bc = BenchConfig(problems=("VFM1",), runs=3, solvers=("fixed",), fixed_L=1e-3,
                     out_dir=tmp_path)
    # The rows record the divergence; numpy must not also warn about it.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_benchmark(bc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert report.failed == len(report.rows) == 3
    assert "non_finite" in {r.status for r in report.rows}
    # Every row that did not converge says why, in the report and in
    # results.csv; an overflowed row keeps its last finite iterate.
    for r, row in zip(report.rows, _read_csv(tmp_path / "results.csv")[1:]):
        assert ("non-finite" in r.reason) == (r.status == "non_finite")
        assert r.reason and row[8] == r.reason
        assert r.iterations > 0 and np.isfinite(r.objectives).all()


def test_profiles_tau_only_when_nothing_converges(tmp_path):
    bc = BenchConfig(problems=("JOS1",), runs=2, eps=1e-13, max_iter=1,
                     out_dir=tmp_path)
    report = run_benchmark(bc)
    assert report.failed == len(report.rows) == 2
    assert (tmp_path / "profiles.csv").read_text() == "tau\n"


def test_single_solver_purity_is_one(tmp_path):
    bc = BenchConfig(problems=("MHHM2",), runs=4, seed=9, out_dir=tmp_path)
    report = run_benchmark(bc)
    (_, solver, _, _, pur) = report.aggregates[0]
    assert solver == "backtracking"
    assert pur == 1.0


# ---------------------------------------------------------------------------
# SVG scatter


def test_svg_one_circle_per_point(tmp_path):
    front = Front(objectives=np.array([[0.0, 1.0], [1.0, 0.0]]))
    path = emit_svg_scatter(front, tmp_path / "two.svg")
    text = path.read_text()
    assert text.count("<circle") == 2
    assert text.startswith("<?xml")

    front3 = Front(objectives=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]))
    text3 = emit_svg_scatter(front3, tmp_path / "three.svg").read_text()
    assert text3.count("<circle") == 6  # three pairwise panels


def test_svg_empty_front_annotated(tmp_path):
    empty = nondominated_filter(np.empty((0, 2)))
    text = emit_svg_scatter(empty, tmp_path / "empty.svg").read_text()
    assert "empty front" in text
    assert "<circle" not in text


def test_svg_far_single_value_axis_is_centred(tmp_path):
    # A one-value axis is padded by 0.5, which rounding loses at 1e18.
    front = Front(objectives=np.array([[1e18, 3.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        text = emit_svg_scatter(front, tmp_path / "far.svg").read_text()
    assert "nan" not in text
    assert '<circle cx="196.00" cy="134.00"' in text


def test_svg_rejects_bad_axes(tmp_path):
    front = Front(objectives=np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="at least two objectives"):
        emit_svg_scatter(front, tmp_path / "bad.svg")


# ---------------------------------------------------------------------------
# command line entry point


def test_main_success_exit_code(tmp_path, capsys):
    code = main(["--problems", "BK1", "--runs", "2", "--seed", "4",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "BK1" in out and "purity" in out
    assert "0 not converged" in out


def test_main_unknown_problem(tmp_path, capsys):
    code = main(["--problems", "XYZ9", "--out", str(tmp_path)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_main_bad_solver_parameter(tmp_path, capsys):
    # --fixed-l is checked even when only backtracking runs.
    for flag, value in (("--beta", "0.5"), ("--sigma", "inf"), ("--seed", "-1"),
                        ("--fixed-l", "-1")):
        code = main(["--problems", "BK1", "--runs", "1", flag, value,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


def test_single_objective_problem_rejected_before_solving(tmp_path, capsys):
    # The report's fronts and SVG need two objectives; a registered m = 1
    # problem must be refused before any solve or output file.
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"name": "_tmp_single", "n": 1, "m": 1,
                                "lower": [0.0], "upper": [1.0],
                                "objectives": [{"quad": [[1.0]]}]}))
    p, desc = load_problem_file(path)
    register_problem(desc.name, lambda: (p, desc))
    try:
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="objective"):
            run_benchmark(BenchConfig(problems=("_tmp_single",), runs=1, out_dir=out))
        assert main(["--problems", "_tmp_single", "--runs", "1", "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()
    finally:
        suite._REGISTRY.pop("_tmp_single", None)


def test_main_fixed_needs_constant(tmp_path, capsys):
    code = main(["--problems", "FF1", "--solvers", "fixed", "--runs", "2",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "fixed-l" in capsys.readouterr().err


def test_bad_settings_fail_before_the_first_solve(tmp_path, monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("solved before the configuration was checked")

    monkeypatch.setattr(cli, "run_solver", no_solve)
    # SP1_l1 has a known constant, FF1 does not: the missing
    # --fixed-l must be found before SP1_l1's runs and before any output.
    out = tmp_path / "out"
    assert main(["--problems", "SP1_l1,FF1", "--solvers", "fixed", "--runs", "100",
                 "--out", str(out)]) == 2
    assert "fixed-l" in capsys.readouterr().err
    assert not out.exists()

    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(["--problems", "BK1", "--runs", "2", "--out", str(taken)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_fixed_step_on_flat_problem_fails_before_the_first_solve(tmp_path, monkeypatch,
                                                                capsys):
    # All-zero quads give L_true = 0: a fixed step of 0 cannot run, and
    # must be refused before any solve or output file.
    def no_solve(*args):
        raise AssertionError("solved before the configuration was checked")

    monkeypatch.setattr(cli, "run_solver", no_solve)
    zero = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "flat2.json"
    path.write_text(json.dumps({"name": "_tmp_flat2", "n": 2, "m": 2,
                                "lower": [0.0, 0.0], "upper": [1.0, 1.0],
                                "objectives": [{"quad": zero, "linear": [1.0, 0.0]},
                                               {"quad": zero, "linear": [0.0, 1.0]}]}))
    p, desc = load_problem_file(path)
    assert desc.L_true == 0.0
    register_problem(desc.name, lambda: (p, desc))
    try:
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="positive and finite"):
            run_benchmark(BenchConfig(problems=("_tmp_flat2",), solvers=("fixed",), runs=2,
                                      out_dir=out))
        assert main(["--problems", "_tmp_flat2", "--solvers", "pgm", "--runs", "2",
                     "--out", str(out)]) == 2
        assert "_tmp_flat2" in capsys.readouterr().err
        assert not out.exists()
    finally:
        suite._REGISTRY.pop("_tmp_flat2", None)


def test_box_of_wrong_length_fails_before_the_first_solve(tmp_path, monkeypatch, capsys):
    # DD1's instance (n = 5) with FF1's two-entry box cannot draw a start.
    def no_solve(*args):
        raise AssertionError("solved before the configuration was checked")

    monkeypatch.setattr(cli, "run_solver", no_solve)
    mismatch = (mofista.builtin_problem("DD1")[0], mofista.builtin_problem("FF1")[1])
    monkeypatch.setitem(suite._REGISTRY, "_tmp_mismatch", lambda: mismatch)
    with pytest.raises(ValueError, match="box length 2 but n = 5"):
        mofista.builtin_problem("_tmp_mismatch")
    out = tmp_path / "out"
    assert main(["--problems", "_tmp_mismatch", "--runs", "1", "--out", str(out)]) == 2
    assert "box length 2 but n = 5" in capsys.readouterr().err
    assert not out.exists()


def test_main_reports_nonconverged(tmp_path, capsys):
    code = main(["--problems", "JOS1", "--runs", "2", "--eps", "1e-13",
                 "--max-iter", "1", "--out", str(tmp_path)])
    assert code == 1
    assert "2 not converged" in capsys.readouterr().out


# One non-default value per flag: the text given and the value BenchConfig
# must hold.
_SETTING_SAMPLES = {
    "problems": ("SP1, JOS1", ("SP1", "JOS1")),
    "runs": ("4", 4),
    "seed": ("6", 6),
    "solvers": ("pgm,backtracking", ("pgm", "backtracking")),
    "l0": ("3", 3.0),
    "beta": ("1.5", 1.5),
    "sigma": ("1.25", 1.25),
    "eps": ("1e-5", 1e-5),
    "max_iter": ("7", 7),
    "out": ("from_flag", Path("from_flag")),
    "fixed_l": ("0.3", 0.3),
}


@pytest.mark.parametrize("key", list(cli._SETTINGS))
def test_each_setting_reaches_its_field(key, monkeypatch):
    seen = []

    def capture(bc):
        seen.append(bc)
        return BenchReport(rows=(), aggregates=(), out_dir=bc.out_dir, failed=0)

    monkeypatch.setattr(cli, "run_benchmark", capture)
    text, value = _SETTING_SAMPLES[key]
    assert main(["--" + key.replace("_", "-"), text]) == 0
    assert seen == [BenchConfig(**{cli._SETTINGS[key][0]: value})]


def test_module_entry_point_help_lists_every_flag():
    src = str(Path(mofista.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "mofista", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    for key in cli._SETTINGS:
        assert "--" + key.replace("_", "-") + " " in done.stdout
