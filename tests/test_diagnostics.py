"""Trace diagnostics: energies, one-step bounds, merit bounds, references."""

import numpy as np
import pytest

from mofista import (
    Backtracking,
    FixedStep,
    IterationRecord,
    ProblemInstance,
    ReferenceSet,
    RunTrace,
    SolverConfig,
    Status,
    builtin_problem,
    gap_step_bounds_check,
    level_set_reference,
    lyapunov_monotone_check,
    lyapunov_samples,
    merit_lower_bound,
    pareto_segment,
    rate_bound_check,
    run_solver,
    sample_initial_points,
)
from mofista.diagnostics import momentum_offset, objective_gap_min


# ---------------------------------------------------------------------------
# scalar building blocks


def test_objective_gap_min_examples():
    assert objective_gap_min([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert objective_gap_min([3.0, 5.0], [1.0, 9.0]) == -4.0
    assert objective_gap_min([7.0], [7.5]) == -0.5
    with pytest.raises(ValueError):
        objective_gap_min([1.0, 2.0], [1.0])


def test_momentum_offset_examples():
    x, x_prev, z = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2)
    assert np.allclose(momentum_offset(x, x_prev, 1.0, z), x - z)
    assert np.allclose(momentum_offset(x, x_prev, 0.0, z), x_prev - z)
    assert np.allclose(momentum_offset(x, x_prev, 2.0, z), [2.0, -1.0])


def test_reference_set_validation():
    with pytest.raises(ValueError):
        ReferenceSet(points=np.empty((0, 2)))
    with pytest.raises(ValueError):
        ReferenceSet(points=np.array([[np.inf, 0.0]]))


# ---------------------------------------------------------------------------
# energy sequence on a hand-built trace


def _half_square() -> ProblemInstance:
    return ProblemInstance(
        n=1, m=1,
        smooth=lambda x: np.array([0.5 * float(x @ x)]),
        smooth_jac=lambda x: x[None, :].copy(),
        grad_lipschitz=1.0,
    )


def test_lyapunov_samples_match_hand_computation():
    p = _half_square()
    rec = IterationRecord(k=1, L=2.0, backtracks=0, residual=2.0, t=1.5,
                          y=np.array([3.0]), x=np.array([1.0]),
                          objectives=np.array([0.5]), dual_gap=0.0, wall_ms=0.0)
    trace = RunTrace(x0=np.array([3.0]), objectives0=np.array([4.5]),
                     records=(rec,))
    (sample,) = lyapunov_samples(trace, p, np.array([0.0]))
    # sigma = 0.5 - 0; rho = 1.5 * 1 - 0.5 * 3 - 0 = 0; E = 2 * 1.5^2 * 0.5 / 2
    assert sample.k == 1
    assert sample.sigma_k == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(sample.rho_k, [0.0])
    assert sample.energy == pytest.approx(1.125, abs=1e-15)


def test_sample_count_matches_records():
    p, desc = builtin_problem("JOS1")
    x0 = sample_initial_points(desc, 1, 3)[0]
    res = run_solver(p, x0, SolverConfig(eps=1e-6))
    samples = lyapunov_samples(res.trace, p, np.zeros(2))
    assert len(samples) == len(res.trace.records)
    assert [s.k for s in samples] == list(range(1, len(samples) + 1))


# ---------------------------------------------------------------------------
# monotone energy and one-step bounds on real runs


@pytest.mark.parametrize("variant", ["backtracking", "fixed"])
def test_checks_hold_on_convex_runs(variant):
    for name in ["JOS1", "BK1_l1", "MHHM2"]:
        p, desc = builtin_problem(name)
        v = Backtracking() if variant == "backtracking" else FixedStep(desc.L_true)
        cfg = SolverConfig(eps=1e-6, variant=v)
        for seed in range(2):
            x0 = sample_initial_points(desc, 1, seed)[0]
            res = run_solver(p, x0, cfg)
            refs = level_set_reference(p, desc, x0, seed=seed)
            thin = refs.points[:: max(1, len(refs.points) // 25)]
            for z in thin:
                assert lyapunov_monotone_check(res.trace, p, z), (name, seed)
                assert gap_step_bounds_check(res.trace, p, z), (name, seed)


def test_checks_hold_with_start_as_reference():
    p, desc = builtin_problem("JOS1")
    x0 = np.array([4.0, -3.0])
    res = run_solver(p, x0, SolverConfig(eps=1e-6))
    assert lyapunov_monotone_check(res.trace, p, x0)
    assert gap_step_bounds_check(res.trace, p, x0)


def test_stationary_start_keeps_energy_at_zero():
    p, desc = builtin_problem("BK1")
    x0 = np.array([2.0, 2.0])  # on the Pareto segment
    res = run_solver(p, x0, SolverConfig(eps=1e-6, variant=FixedStep(desc.L_true)))
    assert res.status is Status.CONVERGED
    samples = lyapunov_samples(res.trace, p, x0)
    # steps are certified-gap-sized, so energies sit at ~1e-6, not at zero
    assert all(abs(s.energy) <= 1e-5 for s in samples)
    assert lyapunov_monotone_check(res.trace, p, x0)


def test_lyapunov_single_objective_run():
    p = _half_square()
    res = run_solver(p, np.array([3.0]), SolverConfig(eps=1e-10, variant=FixedStep(1.0)))
    z = np.array([0.0])
    assert lyapunov_monotone_check(res.trace, p, z)
    energies = [s.energy for s in lyapunov_samples(res.trace, p, z)]
    assert energies[0] <= 9.0 + 1e-8


# ---------------------------------------------------------------------------
# merit lower bound


def test_merit_lower_bound_zero_on_self():
    p, _ = builtin_problem("VFM1")
    x = np.array([0.3, -0.2])
    assert merit_lower_bound(p, x, ReferenceSet(x[None, :])) == 0.0


def test_merit_lower_bound_monotone_in_reference_set():
    p, desc = builtin_problem("BK1")
    x = np.array([1.0, -1.0])
    seg = pareto_segment("BK1", 30)
    small = ReferenceSet(seg[:5])
    big = ReferenceSet(seg)
    assert merit_lower_bound(p, x, small) <= merit_lower_bound(p, x, big) + 1e-15


def test_merit_lower_bound_matches_grid_oracle():
    p, _ = builtin_problem("BK1")
    x = np.array([2.0, 2.0])
    seg = pareto_segment("BK1", 101)
    got = merit_lower_bound(p, x, ReferenceSet(seg))
    F_x = p.smooth(x)
    oracle = max(float(np.min(F_x - p.smooth(z))) for z in seg)
    assert got == oracle
    # x sits on the segment, so no reference point dominates it: the max is 0.
    assert abs(oracle) <= 1e-12


# ---------------------------------------------------------------------------
# rate certificate


def test_rate_bound_requires_lipschitz_constant():
    p = ProblemInstance(n=1, m=1,
                        smooth=lambda x: np.array([float(x @ x)]),
                        smooth_jac=lambda x: 2.0 * x[None, :])
    res = run_solver(p, np.array([1.0]), SolverConfig(eps=1e-6, max_iter=5))
    ref = ReferenceSet(np.array([[0.0]]))
    with pytest.raises(ValueError, match="Lipschitz"):
        rate_bound_check(res.trace, p, SolverConfig(), ref)


def test_rate_bound_holds_on_accelerated_run():
    p, desc = builtin_problem("BK1")
    cfg = SolverConfig(eps=1e-6)
    for seed in range(2):
        x0 = sample_initial_points(desc, 1, seed)[0]
        res = run_solver(p, x0, cfg)
        ref = ReferenceSet(pareto_segment("BK1", 10))
        assert rate_bound_check(res.trace, p, cfg, ref)


# ---------------------------------------------------------------------------
# level-set reference construction


def test_level_set_reference_grid_path():
    p, desc = builtin_problem("JOS1")
    x0 = np.array([3.0, 3.0])
    extra = np.array([[1.0, 1.0]])
    refs = level_set_reference(p, desc, x0, extra=extra)
    assert np.allclose(refs.points[0], x0)
    assert any(np.allclose(z, extra[0]) for z in refs.points)
    F_x0 = p.smooth(x0)
    # every kept candidate (all rows except x0 and extra) is in the level set
    for z in refs.points[1:-1]:
        assert np.all(p.smooth(z) <= F_x0 + 1e-9)


def test_level_set_reference_sampling_path():
    p, desc = builtin_problem("DD1")
    x0 = np.full(5, 10.0)
    refs = level_set_reference(p, desc, x0, seed=1, samples=40)
    assert refs.points.shape[1] == 5
    assert len(refs.points) <= 41
    F_x0 = p.smooth(x0)
    for z in refs.points[1:]:
        assert np.all(p.smooth(z) <= F_x0 + 1e-9)
