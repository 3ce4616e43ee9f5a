"""Acceptance gate: twelve end-to-end checks of the published guarantees.

Each test prints one ``ACCEPTANCE nn <name>: PASS`` line when its criterion
holds at the stated tolerance; a failing criterion fails the test outright.
"""

import csv
import math
import time

import numpy as np
import pytest

from mofista import (
    BenchConfig,
    Front,
    ProblemInstance,
    ReferenceSet,
    SolverConfig,
    Status,
    WeightedL1,
    Zero,
    accepted_L_bound_check,
    builtin_problem,
    gap_step_bounds_check,
    lyapunov_monotone_check,
    momentum_growth_check,
    nondominated_filter,
    purity,
    run_benchmark,
    run_solver,
    sample_initial_points,
)
from mofista.solver import fista_step
from mofista.subproblem import solve_subproblem
from reference import kkt_residual, subproblem_objective

CONVEX_BUILTINS = ("BK1", "BK1_l1", "JOS1", "JOS1_l1", "SP1", "SP1_l1",
                   "VFM1", "MHHM1", "MHHM2")


# ---------------------------------------------------------------------------
# 1 & 2: momentum sequence identity and growth bounds


def _momentum_chains():
    """100000 seeded (t, L) chains advanced a dozen steps with random ratios."""
    rng = np.random.default_rng(11)
    chains, steps = 100_000, 12
    t = rng.uniform(1.0, 5.0, size=chains)
    L = rng.uniform(0.5, 5.0, size=chains)
    zeros = np.zeros(chains)
    transitions = []
    for _ in range(steps):
        omega = rng.uniform(0.1, 10.0, size=chains)
        t_next, _ = fista_step(zeros, zeros, t, omega)
        L_next = omega * L
        transitions.append((t, L, omega, t_next, L_next))
        t, L = t_next, L_next
    return transitions


def test_01_momentum_identity():
    tick = time.perf_counter()
    transitions = _momentum_chains()
    checked = 0
    for t, L, _, t_next, L_next in transitions:
        lhs = t_next * (t_next - 1.0) / L_next
        rhs = t * t / L
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1.0 + rhs))
        checked += len(t)
    elapsed = time.perf_counter() - tick
    assert checked >= 100_000
    assert elapsed < 1.0, f"identity sweep took {elapsed:.2f}s"
    print("ACCEPTANCE 01 momentum-identity: PASS")


def test_02_momentum_bounds():
    for t, _, omega, t_next, _ in _momentum_chains():
        lower = 0.5 + np.sqrt(omega) * t
        upper = (1.0 + np.sqrt(omega)) * t
        # 1e-12 slack, applied relative to scale: the bound values grow to
        # ~1e7 where sqrt rounding alone exceeds any absolute 1e-12 margin.
        assert np.all(t_next >= lower - 1e-12 * (1.0 + lower))
        assert np.all(t_next <= upper + 1e-12 * (1.0 + upper))
    print("ACCEPTANCE 02 momentum-bounds: PASS")


# ---------------------------------------------------------------------------
# 3: subproblem solutions against a brute-force grid


def _random_quadratic_instance(rng):
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 4))
    A = rng.standard_normal((m, n, n))
    quads = np.einsum("mij,mkj->mik", A, A) + 0.3 * np.eye(n)
    lins = rng.uniform(-2.0, 2.0, size=(m, n))
    nonsmooth = WeightedL1(float(rng.uniform(0.2, 1.5))) if rng.random() < 0.5 \
        else Zero()

    def smooth(x, Q=quads, b=lins):
        return 0.5 * np.einsum("i,mij,j->m", x, Q, x) + b @ x

    def smooth_jac(x, Q=quads, b=lins):
        return Q @ x + b

    return ProblemInstance(n=n, m=m, smooth=smooth, smooth_jac=smooth_jac,
                           nonsmooth=nonsmooth)


def _grid_argmin_near(center, x, y, L, p, radius, pitch):
    offsets = np.arange(-radius, radius + pitch / 2.0, pitch)
    axes = [center[i] + offsets for i in range(p.n)]
    if p.n == 1:
        pts = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([g0.ravel(), g1.ravel()])
    vals = np.array([subproblem_objective(z, x, y, L, p) for z in pts])
    return pts[int(np.argmin(vals))]


def test_03_subproblem_matches_grid_argmin():
    tick = time.perf_counter()
    rng = np.random.default_rng(23)
    pitch = 1e-3
    for _ in range(200):
        p = _random_quadratic_instance(rng)
        y = rng.uniform(-1.0, 1.0, size=p.n)
        x = y + rng.uniform(-0.5, 0.5, size=p.n)
        L = float(rng.uniform(0.5, 5.0))
        sol = solve_subproblem(x, y, L, p)
        z_grid = _grid_argmin_near(sol.z, x, y, L, p, radius=0.02, pitch=pitch)
        assert float(np.linalg.norm(sol.z - z_grid)) <= 2.0 * pitch
        assert kkt_residual(sol, x, y, L, p) <= 1e-8
    elapsed = time.perf_counter() - tick
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    print("ACCEPTANCE 03 subproblem-oracle: PASS")


# ---------------------------------------------------------------------------
# 4: single-objective reduction to classical FISTA


def _classical_fista_iterates(x0, L_init, beta, sigma, steps):
    """Scalar-ratio FISTA with backtracking on f = ||x||^2 / 2, g = 0."""
    x_curr = np.asarray(x0, dtype=float)
    x_old = x_curr
    t_prev = 0.0
    L_prev = L_init
    eps = np.finfo(float).eps
    out = []
    for _ in range(steps):
        omega = 1.0 / sigma
        while True:
            L = omega * L_prev
            t = (1.0 + np.sqrt(1.0 + 4.0 * omega * t_prev * t_prev)) / 2.0
            theta = (t_prev - 1.0) / t
            y = x_curr + theta * (x_curr - x_old)
            z = y - y / L
            d = z - y
            fy = 0.5 * float(y @ y)
            fz = 0.5 * float(z @ z)
            gd, c = float(y @ d), 0.5 * L * float(d @ d)
            # The solver's bound test, with its slack for the rounding of the terms.
            if fz <= fy + gd + c + 16.0 * eps * (abs(fz) + abs(fy) + abs(gd) + c):
                break
            omega *= beta
        x_old, x_curr = x_curr, z
        t_prev, L_prev = t, L
        out.append(z)
    return np.vstack(out)


def test_04_single_objective_reduction():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-3.0, 3.0, size=4)
    p = ProblemInstance(
        n=4, m=1,
        smooth=lambda x: np.array([0.5 * float(x @ x)]),
        smooth_jac=lambda x: x[None, :].copy(),
        nonsmooth=WeightedL1(0.0),
    )
    cfg = SolverConfig(L_init=4.0, beta=2.0, sigma=2.0, eps=1e-300, max_iter=50)
    res = run_solver(p, x0, cfg)
    reference = _classical_fista_iterates(x0, L_init=4.0, beta=2.0, sigma=2.0,
                                          steps=50)
    # The line search settles on the representable curvature L = 1, so the
    # prox step maps y to the exact minimizer and the run stops early with a
    # zero residual; the reference keeps iterating but no longer moves.
    solver_path = res.trace.iterates()[1:]
    k = solver_path.shape[0]
    assert np.max(np.abs(solver_path - reference[:k])) <= 1e-10
    if k < 50:
        assert res.status is Status.CONVERGED
        assert np.max(np.abs(reference[k:] - solver_path[-1])) <= 1e-10
    print("ACCEPTANCE 04 single-objective-fista: PASS")


# ---------------------------------------------------------------------------
# 5: objectives never exceed their start values


def test_05_monotone_cap_all_variants():
    for name in CONVEX_BUILTINS:
        p, desc = builtin_problem(name)
        cfgs = [SolverConfig(eps=1e-6),
                SolverConfig(eps=1e-6, L_init=desc.L_true, variant="fixed"),
                SolverConfig(eps=1e-6, L_init=desc.L_true, variant="pgm")]
        for cfg in cfgs:
            for seed in range(10):
                x0 = sample_initial_points(desc, 1, seed)[0]
                res = run_solver(p, x0, cfg)
                rows = res.trace.objective_rows()
                assert np.all(rows <= rows[0] + 1e-8), (name, cfg.variant, seed)
    print("ACCEPTANCE 05 monotone-cap: PASS")


# ---------------------------------------------------------------------------
# 6 & 7: the worst-component rate bound's three premises on the same traces:
# momentum growth and the L cap (6), energy decay at the segment's points (7)


@pytest.fixture(scope="module")
def segment_traces():
    tick = time.perf_counter()
    out = []
    for name in ("JOS1", "BK1"):
        p, desc = builtin_problem(name)
        cfg = SolverConfig(L_init=1.0, beta=2.0, sigma=2.0, eps=1e-6,
                           max_iter=1000)
        # the Pareto set: s * (2, 2) for JOS1 and s * (5, 5) for BK1, s in [0, 1]
        corner = [2.0, 2.0] if name == "JOS1" else [5.0, 5.0]
        segment = np.outer(np.linspace(0.0, 1.0, 20), corner)
        for seed in range(10):
            x0 = sample_initial_points(desc, 1, seed)[0]
            res = run_solver(p, x0, cfg)
            assert res.status is Status.CONVERGED
            out.append((name, p, desc.L_true, cfg, res.trace, segment, x0))
    return time.perf_counter() - tick, out


def test_06_rate_bound(segment_traces):
    build_seconds, traces = segment_traces
    tick = time.perf_counter()
    for name, p, L_true, cfg, trace, segment, x0 in traces:
        assert len(trace.records) <= 1000
        assert momentum_growth_check(trace, L_true, cfg), name
        assert accepted_L_bound_check(trace, L_true, cfg), name
    elapsed = build_seconds + (time.perf_counter() - tick)
    assert elapsed < 120.0, f"rate sweep took {elapsed:.1f}s"
    print("ACCEPTANCE 06 rate-bound: PASS")


def test_07_energy_replay(segment_traces):
    _, traces = segment_traces
    for name, p, _, _, trace, segment, _ in traces:
        ref = ReferenceSet(segment)
        assert gap_step_bounds_check(trace, p, ref), name
        assert lyapunov_monotone_check(trace, p, ref), name
    print("ACCEPTANCE 07 energy-replay: PASS")


# ---------------------------------------------------------------------------
# 8: backtracking keeps the curvature estimate controlled


def test_08_curvature_control():
    for name in CONVEX_BUILTINS:
        p, desc = builtin_problem(name)
        cfg = SolverConfig(eps=1e-6)
        for seed in range(10):
            x0 = sample_initial_points(desc, 1, seed)[0]
            trace = run_solver(p, x0, cfg).trace
            cap = max(cfg.beta * desc.L_true, cfg.L_init)
            assert all(r.L <= cap * (1.0 + 1e-12) for r in trace.records)
            assert accepted_L_bound_check(trace, desc.L_true, cfg)

    # Overestimated start: L_init = 100 L_true must deflate below
    # 2 beta L_true within ceil(log_sigma 100) + 2 accepted iterations.
    budget = math.ceil(math.log(100.0, 2.0)) + 2
    for name in ("BK1", "SP1", "JOS1_l1"):
        p, desc = builtin_problem(name)
        cfg = SolverConfig(L_init=100.0 * desc.L_true, eps=1e-10, max_iter=40)
        for seed in range(3):
            x0 = sample_initial_points(desc, 1, seed)[0]
            trace = run_solver(p, x0, cfg).trace
            assert accepted_L_bound_check(trace, desc.L_true, cfg)
            first = next(j for j, r in enumerate(trace.records, start=1)
                         if r.L < 2.0 * cfg.beta * desc.L_true)
            assert first <= budget, (name, seed, first)
    print("ACCEPTANCE 08 curvature-control: PASS")


# ---------------------------------------------------------------------------
# 9: immediate stop at weakly Pareto starts


def test_09_stationarity_detection():
    # Every start satisfies 0 in sum_i w_i grad f_i(x) + partial g(x) for
    # some simplex weights w, so each variant's first proximal step maps the
    # anchor to itself and the residual check fires on the spot.  For SP1_l1
    # take x = (1/4, 0): with all weight on the first objective,
    # grad f_1 = (-1, -1/2) cancels against the l1 subgradient (1, 1/2).
    starts = {
        "BK1": np.array([2.0, 2.0]),
        "JOS1": np.array([1.0, 1.0]),
        "SP1": np.array([1.8, 2.2]),  # w = (1/2, 1/2): [[3, -2], [-2, 3]] x = [1, 3]
        "VFM1": np.array([1.0 / 3.0, 0.0]),
        "MHHM1": np.array([0.85]),
        "MHHM2": np.array([0.85, (0.6 + 0.7 + 0.6) / 3.0]),
        "BK1_l1": np.zeros(2),
        "JOS1_l1": np.zeros(2),
        "SP1_l1": np.array([0.25, 0.0]),
    }
    eps = 1e-5
    for name, x0 in starts.items():
        p, desc = builtin_problem(name)
        for cfg in [SolverConfig(eps=eps),
                    SolverConfig(eps=eps, L_init=desc.L_true, variant="fixed"),
                    SolverConfig(eps=eps, L_init=desc.L_true, variant="pgm")]:
            res = run_solver(p, x0, cfg)
            assert res.status is Status.CONVERGED, (name, cfg.variant)
            assert len(res.trace.records) == 1, (name, cfg.variant)
            assert res.trace.records[0].residual < eps
    print("ACCEPTANCE 09 stationarity-detection: PASS")


# ---------------------------------------------------------------------------
# 10: purity worked example


def test_10_purity_oracle():
    a = Front(objectives=np.array([[0.0, 0.0], [1.0, 1.0]]))
    b = Front(objectives=np.array([[0.5, 0.5]]))
    merged = nondominated_filter(np.vstack([a.objectives, b.objectives]))
    assert purity(a, merged) == 0.5
    assert purity(b, merged) == 0.0
    single = nondominated_filter(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert purity(single, single) == 1.0
    print("ACCEPTANCE 10 purity-oracle: PASS")


# ---------------------------------------------------------------------------
# 11: backtracking beats a 10x-overestimated fixed step


def test_11_backtracking_beats_overestimated_fixed_step():
    for name in ("BK1_l1", "JOS1_l1", "SP1_l1"):
        p, desc = builtin_problem(name)
        starts = sample_initial_points(desc, 50, 2024)
        iter_counts = {}
        for label, L_init in [("backtracking", SolverConfig.L_init),
                              ("fixed", 10.0 * desc.L_true)]:
            cfg = SolverConfig(eps=1e-5, max_iter=2000, L_init=L_init, variant=label)
            counts = []
            for x0 in starts:
                res = run_solver(p, x0, cfg)
                assert res.status is Status.CONVERGED
                counts.append(len(res.trace.records))
            iter_counts[label] = float(np.mean(counts))
        assert iter_counts["backtracking"] < iter_counts["fixed"], \
            (name, iter_counts)
    print("ACCEPTANCE 11 backtracking-advantage: PASS")


# ---------------------------------------------------------------------------
# 12: byte-identical benchmark output apart from wall time


def _csv_rows_masked(path, masked_columns):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        for c in masked_columns:
            row[c] = "*"
    return rows


def test_12_deterministic_benchmark_output(tmp_path):
    outs = []
    for sub in ("first", "second"):
        bc = BenchConfig(problems=("BK1",), runs=3, seed=7,
                         solvers=("backtracking", "fixed"),
                         out_dir=tmp_path / sub)
        run_benchmark(bc)
        outs.append(tmp_path / sub)
    a, b = outs
    wall_col = 6   # results.csv "wall_ms"
    mean_ms_col = 3  # aggregates.csv "mean_ms"
    assert _csv_rows_masked(a / "results.csv", [wall_col]) == \
           _csv_rows_masked(b / "results.csv", [wall_col])
    assert _csv_rows_masked(a / "aggregates.csv", [mean_ms_col]) == \
           _csv_rows_masked(b / "aggregates.csv", [mean_ms_col])
    for name in ("fronts_BK1.csv", "profiles.csv", "front_BK1.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    print("ACCEPTANCE 12 deterministic-output: PASS")
