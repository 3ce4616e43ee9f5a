import hashlib
import itertools
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mofista import (BacktrackingError, CustomNonsmooth, EvaluationError,
                     ProblemInstance, SolverConfig, Status, SubproblemConfig, Variant,
                     Zero, accepted_L_bound_check, available_problems, builtin_problem,
                     run_solver, sample_initial_points)
from mofista import solver as solver_module
from mofista.problems import evaluate_objectives
from mofista.solver import _upper_bound_holds, fista_step
from mofista.subproblem import (_linearize, _solve_dual, project_simplex, solve_subproblem,
                                weak_pareto_residual)
from reference import sufficient_decrease_check

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def single_quadratic():
    return ProblemInstance(n=1, m=1, smooth=lambda x: np.array([0.5 * x[0] ** 2]),
                           smooth_jac=lambda x: np.array([[x[0]]]))


# ------------------------------------------------------------- momentum step


def test_fista_step_stationary_momentum():
    x, x2 = np.array([3.0, 1.0]), np.array([0.0, 0.0])
    t, y = fista_step(x, x2, 1.0, 1.0)
    assert t == pytest.approx(GOLDEN, abs=1e-12)
    np.testing.assert_array_equal(y, x)


def test_fista_step_seeding():
    x, x2 = np.array([3.0]), np.array([7.0])
    t, y = fista_step(x, x2, 0.0, 1.0)
    assert t == 1.0
    np.testing.assert_array_equal(y, x2)


def test_fista_step_quarter_ratio():
    t, _ = fista_step(np.zeros(1), np.zeros(1), 2.0, 0.25)
    assert t == pytest.approx(GOLDEN, abs=1e-12)
    assert 0.5 + np.sqrt(0.25) * 2.0 <= t <= (1.0 + np.sqrt(0.25)) * 2.0


@given(st.floats(1.0, 1e4), st.floats(0.1, 10.0))
def test_fista_step_bracket(t_prev, omega):
    # The upper half of the bracket needs t_prev >= 1, which the recursion
    # maintains from its seed t = 1.
    t, _ = fista_step(np.zeros(1), np.zeros(1), t_prev, omega)
    root = np.sqrt(omega)
    assert 0.5 + root * t_prev <= t * (1.0 + 1e-12)
    assert t <= (1.0 + root) * t_prev * (1.0 + 1e-12) + 1e-12


# ------------------------------------------------------------ descent check


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2).map(np.array),
       st.lists(st.floats(-10, 10), min_size=2, max_size=2).map(np.array))
def test_descent_check_exact_constant_quadratic(y, z):
    p = ProblemInstance(n=2, m=1, smooth=lambda v: np.array([0.5 * float(v @ v)]),
                        smooth_jac=lambda v: v[None, :])
    assert sufficient_decrease_check(p, y, z, 1.0)


def test_descent_check_rejects_understated_curvature():
    p = ProblemInstance(n=1, m=1, smooth=lambda v: np.array([5.0 * v[0] ** 2]),
                        smooth_jac=lambda v: np.array([[10.0 * v[0]]]))
    y = np.array([1.0])
    assert not sufficient_decrease_check(p, y, y - 1.0, 1.0)


def test_descent_check_trivial_at_same_point():
    p, _ = builtin_problem("SP1")
    y = np.array([2.5, 0.0])
    assert sufficient_decrease_check(p, y, y, 1e-9)


def test_line_search_bound_test_matches_reference():
    # The line search's test, on Python floats from the trial's own ∇f·d and
    # ||d||², decides as the numpy reference does: L well off the curvature
    # of f, and within a few ulp of the L at which the slackened bound is met.
    rng = np.random.default_rng(61)
    verdicts = set()
    for _ in range(200):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        centers = rng.uniform(-1.0, 1.0, (m, n))
        curv = float(rng.uniform(0.5, 4.0))
        shift = float(rng.choice([0.0, 1e4]))
        p = ProblemInstance(
            n=n, m=m,
            smooth=lambda x, c=centers, a=curv, b=shift: 0.5 * a * ((x - c) ** 2).sum(axis=1) + b,
            smooth_jac=lambda x, c=centers, a=curv: a * (x - c))
        y = rng.uniform(-1.0, 1.0, n)
        z = y + rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 1)
        d = z - y
        fy, fz = p.smooth(y), p.smooth(z)
        gd = p.smooth_jac(y) @ d
        dd = float(d @ d)
        # The slack grows with L: (L/2) dd enters it with weight 16 eps.
        tiny = 16.0 * np.finfo(float).eps
        edge = float((2.0 * (fz - fy - gd - tiny * (np.abs(fz) + np.abs(fy) + np.abs(gd)))
                      / (dd * (1.0 + tiny))).max())
        ulps = 1.0 + np.arange(-4, 5) * 2.0 ** -52
        for L in np.concatenate([curv * np.array([0.5, 1.0, 2.0]), edge * ulps]):
            if not L > 0.0:
                continue
            want = sufficient_decrease_check(p, y, z, L)
            assert _upper_bound_holds(fy, gd, dd, fz, L) == want
            verdicts.add(want)
    assert verdicts == {True, False}


# ------------------------------------------------------------------ the loop


def test_single_objective_one_step_convergence():
    res = run_solver(single_quadratic(), np.array([1.0]),
                     SolverConfig(L_init=1.0, variant="fixed"))
    assert res.status is Status.CONVERGED
    assert len(res.trace.records) <= 2
    np.testing.assert_allclose(res.x, [0.0], atol=1e-12)


def test_wrong_shape_start_raises():
    with pytest.raises(ValueError, match=r"shape \(2,\), expected \(1,\)"):
        run_solver(single_quadratic(), np.array([1.0, 2.0]))


def test_start_on_pareto_point_stops_immediately():
    p = ProblemInstance(
        n=1, m=2,
        smooth=lambda x: np.array([x[0] ** 2, (x[0] - 2.0) ** 2]),
        smooth_jac=lambda x: np.array([[2.0 * x[0]], [2.0 * (x[0] - 2.0)]]))
    res = run_solver(p, np.array([1.0]), SolverConfig(eps=1e-3))
    assert res.status is Status.CONVERGED
    assert len(res.trace.records) == 1
    np.testing.assert_allclose(res.x, [1.0], atol=1e-6)


def test_bk1_random_starts_converge():
    p, desc = builtin_problem("BK1")
    for x0 in sample_initial_points(desc, 5, seed=99):
        res = run_solver(p, x0, SolverConfig(eps=1e-3))
        assert res.status is Status.CONVERGED


@pytest.mark.parametrize("name", ["SP1", "SP1_l1", "JOS1_l1", "DD1"])
def test_t_identity_and_bracket_across_trace(name):
    p, desc = builtin_problem(name)
    cfg = SolverConfig(eps=1e-6)
    for x0 in sample_initial_points(desc, 3, seed=4):
        recs = run_solver(p, x0, cfg).trace.records
        for prev, curr in zip(recs, recs[1:]):
            lhs = curr.t * (curr.t - 1.0) / curr.L
            rhs = prev.t ** 2 / prev.L
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)
            root = np.sqrt(curr.L / prev.L)
            assert 0.5 + root * prev.t <= curr.t * (1.0 + 1e-12)
            assert curr.t <= (1.0 + root) * prev.t * (1.0 + 1e-12)


@pytest.mark.parametrize("kind", ["backtracking", "fixed"])
def test_momentum_growth_lower_bound(kind):
    p, desc = builtin_problem("SP1")
    L_f = desc.L_true
    cfg = (SolverConfig(eps=1e-6) if kind == "backtracking"
           else SolverConfig(eps=1e-6, L_init=L_f, variant="fixed"))
    for x0 in sample_initial_points(desc, 3, seed=6):
        recs = run_solver(p, x0, cfg).trace.records
        for j, rec in enumerate(recs, start=1):
            assert rec.t ** 2 / rec.L >= (j - 1) ** 2 / (4.0 * cfg.beta * L_f) - 1e-8


def test_trace_is_deterministic():
    p, desc = builtin_problem("SP1_l1")
    x0 = sample_initial_points(desc, 1, seed=12)[0]
    cfg = SolverConfig(eps=1e-6)
    a = run_solver(p, x0, cfg).trace
    b = run_solver(p, x0, cfg).trace
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.L == rb.L and ra.t == rb.t and ra.backtracks == rb.backtracks
        assert ra.residual == rb.residual and ra.dual_gap == rb.dual_gap
        np.testing.assert_array_equal(ra.x, rb.x)
        np.testing.assert_array_equal(ra.y, rb.y)
        np.testing.assert_array_equal(ra.objectives, rb.objectives)


def record_bytes(trace) -> bytes:
    """Every record's fields but the wall time, as raw float64 bytes."""
    return b"".join(np.asarray(value, dtype=float).tobytes() for r in trace.records
                    for value in (r.L, r.backtracks, r.residual, r.t, r.y, r.x,
                                  r.objectives, r.dual_gap))


@pytest.mark.parametrize("name", ["SP1_l1", "DD1", "VFM1"])
def test_trace_does_not_depend_on_inner_tol(name):
    # Every solve here certifies at its gap's rounding floor, so the
    # tolerance that would accept a solve ending above it changes nothing.
    p, desc = builtin_problem(name)
    for x0 in sample_initial_points(desc, 6, seed=0):
        a, b = (run_solver(p, x0, SolverConfig(subproblem=SubproblemConfig(tol=tol))).trace
                for tol in (1e-14, 1e-8))
        assert record_bytes(a) == record_bytes(b)


def test_objectives_never_rise_above_start():
    cfgs = [SolverConfig(eps=1e-6),
            SolverConfig(eps=1e-6, L_init=2.0, variant="fixed"),
            SolverConfig(eps=1e-6, L_init=2.0, variant="pgm")]
    p, desc = builtin_problem("BK1_l1")
    for cfg in cfgs:
        for x0 in sample_initial_points(desc, 3, seed=8):
            trace = run_solver(p, x0, cfg).trace
            cap = trace.objectives0 + 1e-8
            assert np.all(trace.objective_rows() <= cap[None, :])


def test_plain_prox_grad_descends_every_component():
    p, desc = builtin_problem("JOS1_l1")
    cfg = SolverConfig(eps=1e-6, L_init=desc.L_true, variant="pgm")
    for x0 in sample_initial_points(desc, 5, seed=10):
        rows = run_solver(p, x0, cfg).trace.objective_rows()
        assert np.all(rows[1:] <= rows[:-1] + 1e-8)


def test_accepted_L_stays_capped():
    # L_init = 1 lies under beta * L_true on all three, so that is the cap.
    cfg = SolverConfig(eps=1e-6)
    for name in ["BK1", "SP1", "SP1_l1"]:
        p, desc = builtin_problem(name)
        for x0 in sample_initial_points(desc, 5, seed=14):
            trace = run_solver(p, x0, cfg).trace
            assert accepted_L_bound_check(trace, desc.L_true, cfg)
            assert max(r.L for r in trace.records) <= cfg.beta * desc.L_true * (1.0 + 1e-12)


@pytest.mark.parametrize("name", ["DD1", "FF1"])
def test_nonconvex_builtins_converge(name):
    p, desc = builtin_problem(name)
    cfg = SolverConfig(eps=1e-6)
    for x0 in sample_initial_points(desc, 20, 0):
        assert run_solver(p, x0, cfg).status is Status.CONVERGED


def test_deflation_stops_at_the_curvature_seen():
    # Deflating by the full 1/sigma every iteration is rejected about once
    # per iteration (about 1.08 backtracks per iteration on SP1); deflating
    # no further than the curvature the last six steps saw avoids most of
    # those (0.31 per iteration; 0.45 with the last step's alone).
    p, desc = builtin_problem("SP1")
    cfg = SolverConfig(eps=1e-6)
    iterations = backtracks = 0
    for x0 in sample_initial_points(desc, 20, 0):
        recs = run_solver(p, x0, cfg).trace.records
        iterations += len(recs)
        backtracks += sum(r.backtracks for r in recs)
    assert backtracks <= 0.7 * iterations


def test_first_trial_never_deflates_below_window_curvature():
    # Each iteration's first trial, L / beta^backtracks, deflates L_prev by at
    # most 1/sigma and not below the largest curvature the last six records
    # saw, L_seen = max_i 2 (f_i(x) - f_i(y) - grad f_i(y) (x - y)) / ||x - y||^2,
    # but for the 1e-6 that keeps a ratio on a quarter-power grid point.
    cfg = INVARIANCE_CFG
    for name in available_problems():
        p, _ = builtin_problem(name)
        for run in plain_runs(name):
            seen, L_prev = [], cfg.L_init
            for rec in run.trace.records:
                first = rec.L / cfg.beta ** rec.backtracks
                window = max(seen[-6:], default=0.0)
                floor = max(L_prev / cfg.sigma, min(L_prev, window) * (1.0 - 1e-6))
                assert first >= floor, (name, rec.k)
                d = rec.x - rec.y
                dd = float(d @ d)
                gap = p.smooth(rec.x) - p.smooth(rec.y) - p.smooth_jac(rec.y) @ d
                seen.append(2.0 * float(gap.max()) / dd if dd > 0.0 else 0.0)
                L_prev = rec.L


def test_accepted_L_check_vacuous_for_fixed_step():
    p, desc = builtin_problem("BK1")
    cfg = SolverConfig(L_init=1000.0, variant="fixed")
    trace = run_solver(p, np.array([4.0, 4.0]), cfg).trace
    assert accepted_L_bound_check(trace, desc.L_true, cfg)


def test_inflation_cap_raises_on_inconsistent_model():
    # The declared slope is absurdly steep, so the predicted decrease of the
    # quadratic model never materializes and the line search must give up.
    p = ProblemInstance(n=1, m=1,
                        smooth=lambda x: np.array([x[0] ** 2]),
                        smooth_jac=lambda x: np.array([[1e40]]))
    with pytest.raises(BacktrackingError):
        run_solver(p, np.array([0.5]), SolverConfig())


def test_max_iter_status():
    p, desc = builtin_problem("JOS1")
    res = run_solver(p, np.array([4.0, -3.0]), SolverConfig(eps=1e-12, max_iter=1))
    assert res.status is Status.MAX_ITER
    assert len(res.trace.records) == 1


def test_subproblem_failure_status(monkeypatch):
    monkeypatch.setattr("mofista.subproblem._MAX_EVALS", 1)
    p, desc = builtin_problem("VFM1")
    cfg = SolverConfig(eps=1e-10, subproblem=SubproblemConfig(tol=1e-10))
    res = run_solver(p, np.array([1.9, -1.7]), cfg)
    assert res.status is Status.SUBPROBLEM_FAILURE


def test_config_validation():
    for bad in (dict(L_init=0.0), dict(beta=1.0), dict(sigma=0.5),
                dict(eps=0.0), dict(max_iter=0), dict(L_init=np.inf),
                dict(L_init=np.nan), dict(beta=np.inf), dict(sigma=np.inf),
                dict(sigma=np.nan), dict(L_init=0.0, variant="fixed"),
                dict(L_init=np.nan, variant="pgm"),
                # A float cap raised TypeError inside run_solver, True ran one
                # iteration, and eps = inf called SP1 converged at residual 1.23.
                dict(max_iter=2.5), dict(max_iter=True), dict(eps=np.inf),
                # A string raised TypeError from the bound test; True passed as 1.0.
                dict(L_init="1"), dict(eps="1e-3"), dict(beta="3"), dict(sigma=None),
                dict(L_init=True), dict(eps=True), dict(L_init=True, variant="fixed")):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(max_iter=np.int64(5)).max_iter == 5
    cfg = SolverConfig(L_init=np.float32(2.0), beta=np.float64(3.0), sigma=3, eps=np.float64(1e-4))
    assert (cfg.L_init, cfg.beta, cfg.sigma, cfg.eps) == (2.0, 3.0, 3, 1e-4)


def test_variant_is_a_name():
    for variant in Variant:
        assert SolverConfig(variant=variant.value) == SolverConfig(variant=variant)
        assert SolverConfig(variant=variant.value).variant is variant
    assert SolverConfig().variant is Variant.BACKTRACKING
    with pytest.raises(ValueError):
        SolverConfig(variant="newton")


def test_x0_shape_checked():
    p, _ = builtin_problem("BK1")
    with pytest.raises(ValueError):
        run_solver(p, np.zeros(3), SolverConfig())


def test_converged_means_small_final_residual():
    p, desc = builtin_problem("MHHM2")
    for x0 in sample_initial_points(desc, 3, seed=16):
        res = run_solver(p, x0, SolverConfig(eps=1e-5))
        assert res.status is Status.CONVERGED
        assert res.trace.records[-1].residual < 1e-5


# ------------------------------------------------------------ invariances
#
# Over 20 starts per built-in with eps=1e-6; the floors are the measured
# counts.  A first trial exactly at a curvature a step saw puts f(z) on the
# bound, where rounding that grows with |f| decides the test.  The quarter-
# power grid, the 1e-6 that keeps a ratio on its grid point and a slack that
# bounds the rounding of the terms compared keep every built-in at 20 of 20
# under +100, and under +1e4 all but SP1, which keeps 18.

INVARIANCE_CFG = SolverConfig(eps=1e-6)


def invariance_runs(p, desc, cfg=INVARIANCE_CFG):
    return [run_solver(p, x0, cfg) for x0 in sample_initial_points(desc, 20, 0)]


@lru_cache(maxsize=None)
def plain_runs(name):
    return invariance_runs(*builtin_problem(name))


def same_status_and_count(name, runs):
    return sum(a.status is b.status and len(a.trace.records) == len(b.trace.records)
               for a, b in zip(plain_runs(name), runs))


@lru_cache(maxsize=None)
def shifted_count(name, shift):
    p, desc = builtin_problem(name)
    shifted = replace(p, smooth=lambda x: p.smooth(x) + shift)
    return same_status_and_count(name, invariance_runs(shifted, desc))


@pytest.mark.parametrize("name", available_problems())
# The first two pairs are the floors of the last-step rule, kept so that
# their test ids stay; the last two are the floors the window keeps.
@pytest.mark.parametrize("shift, floor", [(100.0, 19), (1e4, 15), (100.0, 20), (1e4, 18)])
def test_added_constant_keeps_status_and_count(name, shift, floor):
    assert shifted_count(name, shift) >= floor


@pytest.mark.parametrize("name", available_problems())
def test_reversed_objectives_keep_status_and_count(name):
    p, desc = builtin_problem(name)
    flipped = replace(p, smooth=lambda x: p.smooth(x)[::-1],
                      smooth_jac=lambda x: p.smooth_jac(x)[::-1])
    assert same_status_and_count(name, invariance_runs(flipped, desc)) == 20


@pytest.mark.parametrize("name", [n for n in available_problems()
                                  if builtin_problem(n)[0].nonsmooth == Zero()])
def test_scaling_f_and_L_init_by_four_keeps_iterates(name):
    # The quarter-power grid of beta = 2 scales exactly under powers of 2.
    p, desc = builtin_problem(name)
    scaled = replace(p, smooth=lambda x: 4.0 * p.smooth(x),
                     smooth_jac=lambda x: 4.0 * p.smooth_jac(x))
    runs = invariance_runs(scaled, desc, replace(INVARIANCE_CFG, L_init=4.0))
    assert sum(len(a.trace.records) == len(b.trace.records) and np.array_equal(a.x, b.x)
               for a, b in zip(plain_runs(name), runs)) == 20


@pytest.mark.parametrize("name", available_problems())
def test_momentum_identity_holds_to_rounding_on_every_record_pair(name):
    # t (t - 1) / L = t_prev^2 / L_prev on accepted iterations, whatever the
    # first trial; the largest deviation measured is 3 ulp of the larger side.
    for run in plain_runs(name):
        recs = run.trace.records
        for prev, curr in zip(recs, recs[1:]):
            lhs = curr.t * (curr.t - 1.0) / curr.L
            rhs = prev.t ** 2 / prev.L
            assert abs(lhs - rhs) <= 8.0 * np.spacing(max(abs(lhs), abs(rhs)))


# ----------------------------------------------------------- oracle budget


def counting_copy(p):
    """``p`` with its smooth oracles wrapped in call counters."""
    calls = {"f": 0, "jac": 0}

    def smooth(x):
        calls["f"] += 1
        return p.smooth(x)

    def smooth_jac(x):
        calls["jac"] += 1
        return p.smooth_jac(x)

    return replace(p, smooth=smooth, smooth_jac=smooth_jac), calls


def config_of(kind: str, L_true) -> SolverConfig:
    """``eps=1e-6`` settings of solver ``kind``; the fixed variants hold ``L_true``."""
    L_init = SolverConfig.L_init if kind == "backtracking" else L_true
    return SolverConfig(eps=1e-6, L_init=L_init, variant=kind)


@pytest.mark.parametrize("name", ["SP1_l1", "VFM1"])
@pytest.mark.parametrize("kind", ["backtracking", "fixed", "pgm"])
def test_one_oracle_call_per_point(name, kind):
    # An iteration is anchored when y is x: every pgm iteration and the first
    # two of the others.  Its trials share one grad f(y) and take f(y) = f(x);
    # every other trial calls both.  f(z) is called unless the step is zero,
    # which only an accepted record with residual 0 can have.  F(x) carries
    # over, so the only extra call is f(x0).
    p, desc = builtin_problem(name)
    counted, calls = counting_copy(p)
    x0 = sample_initial_points(desc, 1, seed=18)[0]
    res = run_solver(counted, x0, config_of(kind, desc.L_true))
    assert res.status is Status.CONVERGED
    records = res.trace.records
    trials = len(records) + sum(r.backtracks for r in records)
    anchored = sum(kind == "pgm" or r.k <= 2 for r in records)
    unanchored_trials = sum(1 + r.backtracks for r in records if kind != "pgm" and r.k > 2)
    zero_steps = sum(r.residual == 0.0 for r in records)
    assert calls["jac"] == anchored + unanchored_trials
    assert calls["f"] == 1 + trials - zero_steps + unanchored_trials
    if kind == "backtracking":
        assert trials > len(records)


@pytest.mark.parametrize("name", available_problems())
def test_no_oracle_called_twice_at_one_point(name):
    p, desc = builtin_problem(name)
    seen = {"smooth": [], "smooth_jac": []}

    def logged(attr):
        def oracle(x):
            seen[attr].append(np.asarray(x, dtype=float).tobytes())
            return getattr(p, attr)(x)
        return oracle

    watched = replace(p, smooth=logged("smooth"), smooth_jac=logged("smooth_jac"))
    kinds = ["backtracking"] if desc.L_true is None else [v.value for v in Variant]
    for kind in kinds:
        for x0 in sample_initial_points(desc, 5, seed=2):
            for points in seen.values():
                points.clear()
            run_solver(watched, x0, config_of(kind, desc.L_true))
            for attr, points in seen.items():
                assert len(set(points)) == len(points), (kind, attr)


def test_residual_at_x_calls_f_once():
    # With y equal to x in value, F(x) and f(y) share one f call, also when
    # y is a copy of x.
    p, desc = builtin_problem("SP1_l1")
    counted, calls = counting_copy(p)
    x = sample_initial_points(desc, 1, seed=3)[0]
    at_x = weak_pareto_residual(x, x, desc.L_true, counted)
    assert calls == {"f": 1, "jac": 1}
    assert weak_pareto_residual(x, x.copy(), desc.L_true, counted) == at_x
    assert calls == {"f": 2, "jac": 2}


def test_replaying_anchored_records_calls_f_once():
    # The first two iterations have y = x in value; replaying each through
    # solve_subproblem from a copy of the previous iterate takes one f call
    # and gives the recorded iterate bit for bit.
    p, desc = builtin_problem("SP1_l1")
    counted, calls = counting_copy(p)
    x0 = sample_initial_points(desc, 1, seed=3)[0]
    records = run_solver(p, x0, SolverConfig(eps=1e-6)).trace.records
    x_prev, warm = x0, None
    for rec in records[:2]:
        assert np.array_equal(rec.y, x_prev)
        before = calls["f"]
        sol = solve_subproblem(x_prev.copy(), rec.y, rec.L, counted, warm_weights=warm)
        assert calls["f"] - before == 1
        assert sol.z.tobytes() == rec.x.tobytes()
        x_prev, warm = rec.x, sol.weights


def count_solves(monkeypatch, per_solve):
    """Start a new entry of ``per_solve`` at each subproblem solve of the
    solver; trials that share a linearization still solve one each."""
    solve = solver_module._solve_dual

    def counted(*args):
        per_solve.append(0)
        return solve(*args)

    monkeypatch.setattr(solver_module, "_solve_dual", counted)


@pytest.mark.parametrize("name", ["SP1_l1", "VFM1"])
def test_prox_calls_per_subproblem_solve(name, monkeypatch):
    # Each trial makes one dual solve, so the prox calls after one solve
    # starts and before the next are that solve's.
    p, desc = builtin_problem(name)
    per_solve = []
    count_solves(monkeypatch, per_solve)

    def prox(t, v):
        per_solve[-1] += 1
        return p.nonsmooth.prox(t, v)

    counted = replace(p, nonsmooth=CustomNonsmooth(p.nonsmooth.value, prox))
    for x0 in sample_initial_points(desc, 10, seed=1):
        assert run_solver(counted, x0, SolverConfig(eps=1e-6)).status is Status.CONVERGED
    assert max(per_solve) <= 20


def prox_calls_per_solve(name, monkeypatch):
    # As above, but the prox is counted through a subclass of the problem's
    # own part class, so the solve takes the part's exact curvature path.
    p, desc = builtin_problem(name)
    per_solve = []
    count_solves(monkeypatch, per_solve)
    base = type(p.nonsmooth)

    def prox(self, t, v):
        per_solve[-1] += 1
        return base.prox(self, t, v)

    part = type("Counted" + base.__name__, (base,), {"prox": prox})(
        **{f.name: getattr(p.nonsmooth, f.name) for f in fields(p.nonsmooth)})
    counted = replace(p, nonsmooth=part)
    for x0 in sample_initial_points(desc, 10, seed=1):
        run_solver(counted, x0, SolverConfig(eps=1e-6))
    return per_solve


@pytest.mark.parametrize("name", ["SP1", "FF1", "VFM1", "MHHM2", "DD1"])
def test_exact_curvature_solves_smooth_subproblem_in_one_round(name, monkeypatch):
    # With g = 0 the dual is one concave quadratic: the start and the Newton
    # point are the only evaluations.
    assert max(prox_calls_per_solve(name, monkeypatch)) <= 2


@pytest.mark.parametrize("name", ["SP1_l1", "JOS1_l1", "BK1_l1"])
def test_exact_curvature_solves_l1_subproblem_in_few_rounds(name, monkeypatch):
    per_solve = prox_calls_per_solve(name, monkeypatch)
    assert np.median(per_solve) <= 2
    assert max(per_solve) <= 6


@pytest.mark.parametrize("name", ["SP1_l1", "JOS1_l1"])
def test_exact_and_difference_curvature_agree(name):
    # CustomNonsmooth keeps the default prox_jvp, so its curvature comes from
    # forward differences of the same prox; both paths must take the same steps.
    p, desc = builtin_problem(name)
    part = p.nonsmooth
    by_differences = replace(p, nonsmooth=CustomNonsmooth(part.value, part.prox))
    for x0 in sample_initial_points(desc, 10, seed=1):
        exact = run_solver(p, x0, SolverConfig(eps=1e-6))
        approx = run_solver(by_differences, x0, SolverConfig(eps=1e-6))
        assert exact.status is approx.status
        assert len(exact.trace.records) == len(approx.trace.records)
        np.testing.assert_allclose(exact.x, approx.x, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("variant", ["fixed", "pgm"])
def test_divergent_step_raises_at_overflowed_iterate(variant):
    # A step constant far below the curvature makes SP1 diverge until f
    # overflows; the error must carry the iterate whose objectives did.
    p, desc = builtin_problem("SP1")
    x0 = sample_initial_points(desc, 1, seed=0)[0]
    cfg = SolverConfig(L_init=1e-3, variant=variant)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError) as info:
            run_solver(p, x0, cfg)
        bad = info.value.x
        assert np.all(np.isfinite(bad))
        assert not np.all(np.isfinite(p.smooth(bad)))
        # Replaying the iterations before the failing one must lead to
        # exactly that point.
        k = 1
        while True:
            try:
                recs = run_solver(p, x0, replace(cfg, max_iter=k)).trace.records
            except EvaluationError:
                break
            k += 1
        assert len(recs) == k - 1
        x = recs[-1].x
        if variant == "fixed":
            _, y = fista_step(x, recs[-2].x, recs[-1].t, 1.0)
        else:
            y = x
        # The solver hands its subproblem config to every solve unchanged, so
        # default-configured solves repeat its steps once they chain the warm
        # weights over the records as the solver does.
        x_prev, warm = x0, None
        for rec in recs:
            sol = solve_subproblem(x_prev, rec.y, cfg.L_init, p, warm_weights=warm)
            np.testing.assert_array_equal(sol.z, rec.x)
            x_prev, warm = rec.x, sol.weights
        np.testing.assert_array_equal(
            solve_subproblem(x, y, cfg.L_init, p, warm_weights=warm).z, bad)


def replayed_steps():
    """``(name, p, x_prev, rec, warm, sol)`` for every accepted record of the
    adaptive solver from 4 starts on every built-in: the previous iterate,
    the weights the solver warm-starts that record's solve from, and what
    solve_subproblem returns there, chained over the records as the solver
    chains its weights."""
    cfg = SolverConfig(eps=1e-6, max_iter=300)
    for name in available_problems():
        p, desc = builtin_problem(name)
        for x0 in sample_initial_points(desc, 4, seed=5):
            x_prev, warm = np.asarray(x0, dtype=float), None
            for rec in run_solver(p, x0, cfg).trace.records:
                sol = solve_subproblem(x_prev, rec.y, rec.L, p, warm_weights=warm)
                yield name, p, x_prev, rec, warm, sol
                x_prev, warm = rec.x, sol.weights


def test_public_solve_replays_every_accepted_step_bit_for_bit():
    # The adaptive solver's accepted trial at (x_{k-1}, y_k, L_k), warm-started
    # from the previous accepted weights, is what solve_subproblem returns there.
    for name, p, x_prev, rec, warm, sol in replayed_steps():
        assert sol.z.tobytes() == rec.x.tobytes(), (name, rec.k)


def test_dual_solve_hands_back_its_step_bit_for_bit():
    # The step the line search takes from the dual solve is z - y, ||z - y||^2,
    # grad f(y) (z - y) and g(z), recomputed here from the record; its weights
    # are those solve_subproblem returns.
    for name, p, x_prev, rec, warm, sol in replayed_steps():
        model = _linearize(rec.y, rec.L, p, evaluate_objectives(p, x_prev))
        weights, z, _, _, (d, dd, gd, gz) = _solve_dual(
            model, SubproblemConfig(), None if warm is None else project_simplex(warm))
        assert z.tobytes() == rec.x.tobytes(), (name, rec.k)
        assert weights.tobytes() == sol.weights.tobytes(), (name, rec.k)
        want = rec.x - rec.y
        assert d.tobytes() == want.tobytes(), (name, rec.k)
        assert np.float64(dd).tobytes() == np.float64(want @ want).tobytes(), (name, rec.k)
        grads = np.asarray(p.smooth_jac(rec.y), dtype=float)
        assert gd.tobytes() == (grads @ want).tobytes(), (name, rec.k)
        assert np.float64(gz).tobytes() == np.float64(p.nonsmooth.value(rec.x)).tobytes(), name


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


def test_planted_nan_runs_end_as_before_wherever_it_sits():
    # One NaN, first or last among the objectives, in f(x0), f(y), f(z) or
    # grad f at one of the first points: each run ends as it did when every
    # maximum over the objectives was taken by NumPy.  Each line names the
    # run and its outcome: the exception with its message and point, or the
    # status, the iteration count and a digest of the records.  The exception
    # and pgm lines are those that code gave; the first trial's window moved
    # only the 14 converging SP1_l1 backtracking lines.
    lines = []
    for name in ("SP1_l1", "MHHM2"):
        base, desc = builtin_problem(name)
        x0 = sample_initial_points(desc, 1, seed=2)[0]
        for source, pos, call, variant in itertools.product(
                ("f", "jac"), (0, -1), (0, 1, 2, 4, 9), ("backtracking", "pgm")):
            cfg = SolverConfig(L_init=1.0 if variant == "backtracking" else desc.L_true,
                               eps=1e-6, max_iter=200, variant=variant)
            try:
                res = run_solver(nan_planted(base, source, pos, call), x0, cfg)
            except (BacktrackingError, EvaluationError) as exc:
                point = getattr(exc, "x", np.empty(0)).tobytes().hex()
                out = f"{type(exc).__name__}: {exc} {point}"
            else:
                recs = res.trace.records
                parts = (np.asarray(v, dtype=float).tobytes() for r in recs
                           for v in (r.L, r.x, r.objectives, r.dual_gap, r.residual))
                digest = hashlib.sha256(b"".join(parts)).hexdigest()[:16]
                out = f"{res.status.value} {len(recs)} {digest}"
            lines.append(f"{name} {source} {pos} {call} {variant}: {out}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == NAN_RUNS_DIGEST, text


NAN_RUNS_DIGEST = "df3bbd778931dbb1d4ce0f22bd3386ba2ca161b3b72ef9d492176811d6c1f5dd"
