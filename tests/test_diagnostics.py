"""Trace diagnostics: energies, one-step bounds, momentum growth, references."""

import dataclasses

import numpy as np
import pytest

from mofista import (
    IterationRecord,
    ProblemInstance,
    ReferenceSet,
    RunTrace,
    SolverConfig,
    Status,
    accepted_L_bound_check,
    builtin_problem,
    gap_step_bounds_check,
    level_set_reference,
    lyapunov_energies,
    lyapunov_monotone_check,
    momentum_growth_check,
    run_solver,
    sample_initial_points,
)
from mofista.solver import fista_step


# ---------------------------------------------------------------------------
# reference sets


def test_reference_set_validation():
    with pytest.raises(ValueError):
        ReferenceSet(points=np.empty((0, 2)))
    with pytest.raises(ValueError):
        ReferenceSet(points=np.array([[np.inf, 0.0]]))


def test_checks_reject_reference_set_of_wrong_width():
    # MHHM1 has n = 1; a 3-wide set is not a set of points of the problem.
    p, _ = builtin_problem("MHHM1")
    cfg = SolverConfig(eps=1e-6)
    trace = run_solver(p, np.array([0.5]), cfg).trace
    wide = ReferenceSet(np.array([[0.8, 0.85, 0.9]]))
    for check in (lyapunov_monotone_check, gap_step_bounds_check):
        with pytest.raises(ValueError, match="shape"):
            check(trace, p, wide)
    with pytest.raises(ValueError, match="shape"):
        lyapunov_energies(trace, p, wide)


# ---------------------------------------------------------------------------
# energy sequence on a hand-built trace


def _half_square() -> ProblemInstance:
    return ProblemInstance(
        n=1, m=1,
        smooth=lambda x: np.array([0.5 * float(x @ x)]),
        smooth_jac=lambda x: x[None, :].copy(),
    )


def _two_squares() -> ProblemInstance:
    return ProblemInstance(
        n=1, m=2,
        smooth=lambda x: np.array([0.5 * float(x @ x),
                                   0.5 * float((x - 2.0) @ (x - 2.0))]),
        smooth_jac=lambda x: np.vstack([x, x - 2.0]),
    )


def _trace_through(p, xs, t=1.0, L=1.0) -> RunTrace:
    """Hand-built trace through the 1-D iterates ``xs``: every step has the
    same ``t`` and ``L`` and extrapolates to ``y_k = x_{k-1}``."""
    pts = [np.array([v]) for v in xs]
    records = tuple(
        IterationRecord(k=k, L=L, backtracks=0, residual=0.0, t=t, y=pts[k - 1],
                        x=pts[k], objectives=p.smooth(pts[k]), dual_gap=0.0,
                        wall_ms=0.0)
        for k in range(1, len(pts)))
    return RunTrace(x0=pts[0], objectives0=p.smooth(pts[0]), records=records)


def test_lyapunov_samples_match_hand_computation():
    p = _half_square()
    rec = IterationRecord(k=1, L=2.0, backtracks=0, residual=2.0, t=1.5,
                          y=np.array([3.0]), x=np.array([1.0]),
                          objectives=np.array([0.5]), dual_gap=0.0, wall_ms=0.0)
    trace = RunTrace(x0=np.array([3.0]), objectives0=np.array([4.5]),
                     records=(rec,))
    energies = lyapunov_energies(trace, p, ReferenceSet([[0.0], [1.0]]))
    # z = 0: sigma = 0.5 - 0; rho = 1.5 * 1 - 0.5 * 3 - 0 = 0; E = 2 * 1.5^2 * 0.5 / 2
    # z = 1: sigma = 0.5 - 0.5 = 0; rho = 1.5 * 1 - 0.5 * 3 - 1 = -1; E = 1
    assert energies.shape == (1, 2)
    assert energies[0, 0] == pytest.approx(1.125, abs=1e-15)
    assert energies[0, 1] == pytest.approx(1.0, abs=1e-15)


def test_sample_count_matches_records():
    p, desc = builtin_problem("JOS1")
    x0 = sample_initial_points(desc, 1, 3)[0]
    res = run_solver(p, x0, SolverConfig(eps=1e-6))
    Z = ReferenceSet([[0.0, 0.0], [1.0, 1.0]])
    energies = lyapunov_energies(res.trace, p, Z)
    assert energies.shape == (len(res.trace.records), 2)
    # each column is the energy sequence of that point alone
    alone = lyapunov_energies(res.trace, p, ReferenceSet([1.0, 1.0]))
    np.testing.assert_array_equal(energies[:, 1:], alone)
    # and matches the formula evaluated one record and one point at a time,
    # up to rounding in the sums (64 ulps of the terms' magnitude)
    xs = res.trace.iterates()
    for j, rec in enumerate(res.trace.records, start=1):
        for col, z in enumerate(Z.points):
            sigma = float(np.min(rec.objectives - p.smooth(z)))
            scaled_gap = 2.0 * rec.t ** 2 * sigma / rec.L
            rho = rec.t * xs[j] - (rec.t - 1.0) * xs[j - 1] - z
            tol = 64 * np.finfo(float).eps * (abs(scaled_gap) + float(rho @ rho))
            assert abs(energies[j - 1, col] - (scaled_gap + float(rho @ rho))) <= tol


# ---------------------------------------------------------------------------
# monotone energy and one-step bounds on real runs


# name: (check, problem, iterates, trace settings, points where every
# inequality holds, the one point where the trace breaks an inequality by far
# more than its slack)
_BROKEN = {
    # E_1(0) = 32 > ||x0 - 0||^2 = 9
    "energy_start": (lyapunov_monotone_check, _half_square, [3.0, 4.0], {},
                     [5.0, -7.0, 6.0], 0.0),
    # E_1(0) = 0 < E_2(0) = 18
    "energy_decay": (lyapunov_monotone_check, _half_square, [0.0, 0.0, 3.0], {},
                     [4.0, 5.0, 6.0], 0.0),
    # sigma_1(0) = 0.5 > L/2 [2<u, y - 0> - |u|^2] = 0.15
    "step_gap": (gap_step_bounds_check, _half_square, [2.0, 1.0], {"L": 0.1},
                 [-2.0, 2.0, 3.0], 0.0),
    # sigma_0(2) - sigma_1(2) = -2 < -L/2 [2<u, y - x0> + |u|^2] = -1
    "step_decay": (gap_step_bounds_check, _two_squares, [0.0, 2.0], {"L": 0.5},
                   [0.0, 1.0, -2.0], 2.0),
}


@pytest.mark.parametrize("case", list(_BROKEN))
def test_check_fails_at_the_one_point_that_breaks_it(case):
    check, problem, xs, settings, good, bad = _BROKEN[case]
    p = problem()
    trace = _trace_through(p, xs, **settings)
    assert check(trace, p, ReferenceSet([[z] for z in good]))
    mixed = good[:2] + [bad] + good[2:]
    assert not check(trace, p, ReferenceSet([[z] for z in mixed]))
    assert not check(trace, p, ReferenceSet([bad]))


def _planted(trace, field, change):
    """The trace with ``change`` applied to ``field`` of its middle record."""
    mid = len(trace.records) // 2
    rec = trace.records[mid]
    bad = dataclasses.replace(rec, **{field: change(getattr(rec, field))})
    return dataclasses.replace(trace, records=trace.records[:mid] + (bad,)
                               + trace.records[mid + 1:])


def test_gap_step_check_flags_planted_objective_error():
    p, desc = builtin_problem("JOS1")
    x0 = sample_initial_points(desc, 1, 0)[0]
    trace = run_solver(p, x0, SolverConfig(eps=1e-6)).trace
    refs = level_set_reference(p, desc, x0)
    assert gap_step_bounds_check(trace, p, refs)
    planted = _planted(trace, "objectives", lambda F: F + 1e-3)
    assert not gap_step_bounds_check(planted, p, refs)


def test_checks_flag_planted_defects_on_verify_script_runs(verify_runs):
    # The runs of scripts/verify_trace_invariants.py: both variants on every
    # convex built-in from its 5 starts.  A defect planted on the middle
    # record of each trace of >= 3 records must be caught by the one-step and
    # energy checks together, against the run's own reference set.
    changes = {"L": lambda L: 0.5 * L, "t": lambda t: 1.3 * t,
               "objectives": lambda F: F + 1e-3}
    flagged = dict.fromkeys(changes, 0)
    planted = 0
    for _, _, p, _, _, res, Z, checks in verify_runs:
        assert checks["step"] and checks["energy"]
        if len(res.trace.records) < 3:
            continue
        planted += 1
        for field, change in changes.items():
            trace = _planted(res.trace, field, change)
            flagged[field] += not (gap_step_bounds_check(trace, p, Z)
                                   and lyapunov_monotone_check(trace, p, Z))
    assert planted == 20
    assert flagged == {"L": 20, "t": 20, "objectives": 20}


def test_checks_hold_with_start_as_reference():
    p, desc = builtin_problem("JOS1")
    x0 = np.array([4.0, -3.0])
    res = run_solver(p, x0, SolverConfig(eps=1e-6))
    assert lyapunov_monotone_check(res.trace, p, ReferenceSet(x0))
    assert gap_step_bounds_check(res.trace, p, ReferenceSet(x0))


def test_stationary_start_keeps_energy_at_zero():
    p, desc = builtin_problem("BK1")
    x0 = np.array([2.0, 2.0])  # on the Pareto segment
    res = run_solver(p, x0, SolverConfig(eps=1e-6, L_init=desc.L_true, variant="fixed"))
    assert res.status is Status.CONVERGED
    energies = lyapunov_energies(res.trace, p, ReferenceSet(x0))
    # steps are certified-gap-sized, so energies sit at ~1e-6, not at zero
    assert np.all(np.abs(energies) <= 1e-5)
    assert lyapunov_monotone_check(res.trace, p, ReferenceSet(x0))


def test_lyapunov_single_objective_run():
    p = _half_square()
    res = run_solver(p, np.array([3.0]), SolverConfig(eps=1e-10, L_init=1.0, variant="fixed"))
    z = ReferenceSet([0.0])
    assert lyapunov_monotone_check(res.trace, p, z)
    energies = lyapunov_energies(res.trace, p, z)
    assert energies[0, 0] <= 9.0 + 1e-8


# ---------------------------------------------------------------------------
# momentum growth and the rate it certifies


def test_growth_check_fails_where_t_stops_growing():
    # Stuck at 3 with t = L = 1 on f = x^2/2 (L_f = 1, beta = 2): the record
    # of x_k needs 1 * 8 * 2 * 1 >= (k+1)^2, which holds up to k = 3 only.
    p = _half_square()
    cfg = SolverConfig()
    trace = _trace_through(p, [3.0] * 6)
    assert momentum_growth_check(dataclasses.replace(trace, records=trace.records[:3]), 1.0, cfg)
    assert not momentum_growth_check(dataclasses.replace(trace, records=trace.records[:4]), 1.0, cfg)
    assert not momentum_growth_check(trace, 1.0, cfg)


def test_growth_check_holds_along_the_momentum_recursion():
    # t follows fista_step's recursion with omega = L_k / L_{k-1} while L
    # falls and rises below beta * L_f = 2, as backtracking may move it.
    Ls = [2.0, 0.5, 1.0, 0.01, 2.0, 2.0, 0.3, 1.9, 0.05, 2.0]
    t, L_prev, records = 0.0, Ls[0], []
    for k, L in enumerate(Ls, start=1):
        t, _ = fista_step(np.zeros(1), np.zeros(1), t, L / L_prev)
        records.append(IterationRecord(k=k, L=L, backtracks=0, residual=0.0, t=t,
                                       y=np.zeros(1), x=np.zeros(1), objectives=np.zeros(1),
                                       dual_gap=0.0, wall_ms=0.0))
        L_prev = L
    trace = RunTrace(x0=np.zeros(1), objectives0=np.zeros(1), records=tuple(records))
    assert momentum_growth_check(trace, 1.0, SolverConfig())
    # The proof leaves a factor of at least 2 (L <= beta * L_f, not 2 beta L_f),
    # and exactly 2 at the first record: L = 2, t = 1.  A fourfold L there fails.
    ratios = [r.t ** 2 * 16.0 / ((r.k + 1) ** 2 * r.L) for r in records]
    assert min(ratios) == ratios[0] == 2.0
    quadrupled = (dataclasses.replace(records[0], L=8.0),) + trace.records[1:]
    assert not momentum_growth_check(dataclasses.replace(trace, records=quadrupled),
                                     1.0, SolverConfig())


def test_growth_check_passes_pgm_and_flags_halved_t_on_fixed():
    # PGM keeps t = 1, so (k+1)^2 outgrows t^2 * 8 beta L_f / L after a few
    # iterations; the check is vacuous there, as the cap is for fixed steps.
    # A fixed step at the cap beta * L_f leaves the growth a factor near 2,
    # which halving every t takes away.
    p, desc = builtin_problem("SP1")
    x0 = sample_initial_points(desc, 1, 0)[0]
    for variant, L in (("pgm", desc.L_true), ("fixed", 2.0 * desc.L_true)):
        cfg = SolverConfig(variant=variant, L_init=L, eps=1e-9)
        res = run_solver(p, x0, cfg)
        assert res.status is Status.CONVERGED and len(res.trace.records) > 4
        assert momentum_growth_check(res.trace, desc.L_true, cfg), variant
    halved = tuple(dataclasses.replace(r, t=0.5 * r.t) for r in res.trace.records)
    assert not momentum_growth_check(dataclasses.replace(res.trace, records=halved),
                                     desc.L_true, cfg)


def test_rate_bound_requires_lipschitz_constant():
    # so does the accepted-L cap, here on a backtracking run
    p, desc = builtin_problem("FF1")
    assert desc.L_true is None
    cfg = SolverConfig(eps=1e-6, max_iter=3)
    res = run_solver(p, np.array([0.5, 0.5]), cfg)
    with pytest.raises(ValueError, match="Lipschitz constant L_true"):
        momentum_growth_check(res.trace, desc.L_true, cfg)
    with pytest.raises(ValueError, match="Lipschitz constant L_true"):
        momentum_growth_check(res.trace, desc.L_true, dataclasses.replace(cfg, variant="pgm"))
    with pytest.raises(ValueError, match="Lipschitz constant L_true"):
        accepted_L_bound_check(res.trace, desc.L_true, cfg)


def test_rate_bound_holds_on_accelerated_run():
    # Energy decay at z, momentum growth and the L cap give
    # sigma_k(z) <= 4 beta L_f ||x0 - z||^2 / (k+1)^2; check the premises
    # and the bound they imply at points of BK1's Pareto set s * (5, 5).
    p, desc = builtin_problem("BK1")
    cfg = SolverConfig(eps=1e-6)
    ref = ReferenceSet(np.outer(np.linspace(0.0, 1.0, 10), [5.0, 5.0]))
    F_z = np.vstack([p.smooth(z) for z in ref.points])
    for seed in range(2):
        x0 = sample_initial_points(desc, 1, seed)[0]
        trace = run_solver(p, x0, cfg).trace
        assert lyapunov_monotone_check(trace, p, ref)
        assert momentum_growth_check(trace, desc.L_true, cfg)
        assert accepted_L_bound_check(trace, desc.L_true, cfg)
        scale = 4.0 * cfg.beta * desc.L_true * np.sum((ref.points - x0) ** 2, axis=1)
        for rec in trace.records:
            sigma = np.min(rec.objectives - F_z, axis=1)
            assert np.all(sigma <= scale / (rec.k + 1) ** 2 + 1e-8)


# ---------------------------------------------------------------------------
# level-set reference construction


@pytest.mark.parametrize("name, x0", [("JOS1", [3.0, 3.0]), ("DD1", [10.0] * 5)],
                         ids=["JOS1", "DD1"])
def test_level_set_reference(name, x0):
    p, desc = builtin_problem(name)
    x0 = np.array(x0)
    evaluated = []

    def counted_smooth(x):
        evaluated.append(x)
        return p.smooth(x)

    counted = dataclasses.replace(p, smooth=counted_smooth)
    refs = level_set_reference(counted, desc, x0)
    assert np.allclose(refs.points[0], x0)
    assert refs.points.shape == (41, p.n)  # x0 and the 40 kept draws
    # drawing stopped at the draw that filled the set, long before the budget
    assert np.array_equal(evaluated[-1], refs.points[-1])
    assert len(evaluated) < 1_000
    F_x0 = p.smooth(x0)
    # every kept candidate (all rows except x0) is in the level set
    for z in refs.points[1:]:
        assert np.all(p.smooth(z) <= F_x0 + 1e-9)
