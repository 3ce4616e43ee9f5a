import re

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from mofista import (CustomNonsmooth, ProblemInstance, SolverConfig, SubproblemConfig,
                     WeightedL1, Zero, available_problems, builtin_problem, run_solver,
                     sample_initial_points)
from mofista.problems import evaluate_objectives
from mofista.subproblem import (_QP_CUTOFF, SubproblemError, _Model, _linearize,
                                _simplex_qp, project_simplex, solve_subproblem,
                                weak_pareto_residual)
from reference import (dual_value, inner_primal_step, kkt_residual, model_evaluation,
                       subproblem_objective)


def quad_instance(centers, scales, weight=0.0):
    """f_i(x) = scale_i ||x - center_i||^2 with an optional shared l1 term,
    and the Lipschitz constant 2 max(scale_i) of its gradients."""
    centers = np.asarray(centers, dtype=float)
    scales = np.asarray(scales, dtype=float)
    m, n = centers.shape

    def smooth(x):
        d = x[None, :] - centers
        return scales * np.sum(d * d, axis=1)

    def smooth_jac(x):
        return 2.0 * scales[:, None] * (x[None, :] - centers)

    part = WeightedL1(weight) if weight > 0.0 else Zero()
    return (ProblemInstance(n=n, m=m, smooth=smooth, smooth_jac=smooth_jac, nonsmooth=part),
            2.0 * float(np.max(scales)))


# f1 = x^2, f2 = (x - 2)^2 on the line: saddle examples work out by hand.
TWO_PARABOLAS = quad_instance([[0.0], [2.0]], [1.0, 1.0])[0]


def random_instance(rng):
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 4))
    centers = rng.uniform(-1.0, 1.0, (m, n))
    scales = rng.uniform(0.25, 1.5, m)
    weight = float(rng.choice([0.0, rng.uniform(0.05, 0.6)]))
    p, L_f = quad_instance(centers, scales, weight)
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.uniform(-1.0, 1.0, n)
    L = float(rng.uniform(1.0, 4.0) * L_f)
    return p, x, y, L


def grid_argmin(x, y, L, p, radius, pitch):
    """Brute-force minimizer of the model over a box around y (n <= 2)."""
    grads = np.asarray(p.smooth_jac(y), dtype=float)
    offsets = np.asarray(p.smooth(y), dtype=float) - evaluate_objectives(p, x)
    axes = [np.arange(y[i] - radius, y[i] + radius + pitch, pitch)
            for i in range(p.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    Z = np.column_stack([m.ravel() for m in mesh])
    best_val, best_z = np.inf, None
    for chunk in np.array_split(Z, max(1, Z.shape[0] // 500_000)):
        d = chunk - y[None, :]
        vals = np.max(d @ grads.T + offsets[None, :], axis=1)
        vals += 0.5 * L * np.sum(d * d, axis=1)
        if isinstance(p.nonsmooth, WeightedL1):
            vals += p.nonsmooth.weight * np.sum(np.abs(chunk), axis=1)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best_z = float(vals[j]), chunk[j]
    return best_z, best_val


# ---------------------------------------------------------------- model value


def test_phi_at_y_is_worst_objective_gap():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, x, y, L = random_instance(rng)
        want = float(np.max(evaluate_objectives(p, y) - evaluate_objectives(p, x)))
        assert subproblem_objective(y, x, y, L, p) == pytest.approx(want, abs=1e-12)


def test_phi_hand_example():
    p = ProblemInstance(n=1, m=1, smooth=lambda x: np.array([0.5 * x[0] ** 2]),
                        smooth_jac=lambda x: np.array([[x[0]]]))
    one = np.array([1.0])
    assert subproblem_objective(np.array([0.0]), one, one, 1.0, p) == pytest.approx(-0.5)
    assert subproblem_objective(one, one, one, 1.0, p) == pytest.approx(0.0)


def test_phi_rejects_nonpositive_L():
    with pytest.raises(ValueError):
        subproblem_objective(np.zeros(1), np.zeros(1), np.zeros(1), 0.0, TWO_PARABOLAS)


# ---------------------------------------------------------------- inner step


def test_inner_step_single_objective_is_prox_gradient():
    p, _ = quad_instance([[0.0, 0.0]], [1.0], weight=0.5)
    y = np.array([1.0, -0.2])
    L = 4.0
    got = inner_primal_step(np.array([1.0]), y, L, p)
    want = p.nonsmooth.prox(1.0 / L, y - p.smooth_jac(y)[0] / L)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_inner_step_balanced_gradients_cancel():
    got = inner_primal_step(np.array([0.5, 0.5]), np.array([1.0]), 2.0, TWO_PARABOLAS)
    np.testing.assert_allclose(got, [1.0], atol=1e-15)


def test_inner_step_zero_nonsmooth_closed_form():
    rng = np.random.default_rng(5)
    p, _ = quad_instance(rng.uniform(-1, 1, (3, 2)), [1.0, 0.5, 2.0])
    lam = project_simplex(rng.uniform(0, 1, 3))
    y = rng.uniform(-1, 1, 2)
    want = y - (p.smooth_jac(y).T @ lam) / 3.0
    np.testing.assert_allclose(inner_primal_step(lam, y, 3.0, p), want, atol=1e-15)


# ----------------------------------------------------------------- dual value


def test_dual_closed_form_interior_saddle():
    one = np.array([1.0])
    for lam in np.linspace(0.0, 1.0, 21):
        got = dual_value(np.array([lam, 1.0 - lam]), one, one, 2.0, TWO_PARABOLAS)
        assert got == pytest.approx(-(2.0 * lam - 1.0) ** 2, abs=1e-12)


def test_dual_closed_form_boundary_saddle():
    neg = np.array([-1.0])
    for lam in np.linspace(0.0, 1.0, 21):
        got = dual_value(np.array([lam, 1.0 - lam]), neg, neg, 2.0, TWO_PARABOLAS)
        assert got == pytest.approx(-(2.0 * lam - 3.0) ** 2, abs=1e-12)


def test_dual_single_objective_equals_phi_at_step():
    p, _ = quad_instance([[0.3, -0.7]], [1.2], weight=0.2)
    x = np.array([0.5, 0.5])
    y = np.array([-0.25, 1.0])
    z = inner_primal_step(np.array([1.0]), y, 3.0, p)
    assert dual_value(np.array([1.0]), x, y, 3.0, p) == pytest.approx(
        subproblem_objective(z, x, y, 3.0, p), abs=1e-12)


@pytest.mark.parametrize("l1", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_model_evaluation_matches_reference_bit_for_bit(m, l1):
    # The solver's one evaluation hook against the model built from its
    # definition: same operations in the same order, so the same bits, at
    # vertices and inside the simplex, with l1 thresholds active or not.
    rng = np.random.default_rng(59 + 10 * m + l1)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        weight = float(rng.uniform(0.05, 2.0)) if l1 else 0.0
        p, L_f = quad_instance(rng.uniform(-1, 1, (m, n)), rng.uniform(0.25, 1.5, m), weight)
        x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        L = float(rng.uniform(0.2, 4.0) * L_f)
        model = _linearize(y, L, p, evaluate_objectives(p, x))
        cases = list(np.eye(m)) + [rng.dirichlet(np.ones(m)) for _ in range(5)]
        for w in cases:
            got = model.evaluate(w)[:5]
            want = model_evaluation(w, x, y, L, p)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (w, x, y, L)


def nan_at_y(p, y, source, pos):
    """``p`` with a NaN at ``y`` only: in entry ``pos`` of ``f(y)``, or in row
    ``pos`` of ``grad f(y)``."""
    def smooth(x):
        out = np.array(p.smooth(x), dtype=float)
        if source == "f" and np.array_equal(x, y):
            out[pos] = np.nan
        return out

    def smooth_jac(x):
        out = np.array(p.smooth_jac(x), dtype=float)
        if source == "jac" and np.array_equal(x, y):
            out[pos, 0] = np.nan
        return out

    return replace(p, smooth=smooth, smooth_jac=smooth_jac)


@pytest.mark.parametrize("pos", [0, -1])
@pytest.mark.parametrize("source", ["f", "jac"])
@pytest.mark.parametrize("m", [2, 3])
def test_nan_at_y_gives_numpys_bits_wherever_it_sits(m, source, pos):
    # A NaN in f(y) or a row of grad f(y) makes the first gap NaN, which ends
    # the solve there: value, gap and z are that evaluation's, with NumPy's
    # max of the inner terms, first NaN or last.
    rng = np.random.default_rng(71 + m)
    base, L_f = quad_instance(rng.uniform(-1, 1, (m, 2)), rng.uniform(0.25, 1.5, m), 0.3)
    x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    p = nan_at_y(base, y, source, pos)
    sol = solve_subproblem(x, y, 2.0 * L_f, p)
    _, primal, gap, z, _ = model_evaluation(np.full(m, 1.0 / m), x, y, 2.0 * L_f, p)
    assert np.isnan(sol.value) and np.isnan(sol.dual_gap)
    for got, want in ((sol.value, primal), (sol.dual_gap, gap), (sol.z, z)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ----------------------------------------------------------------- the solver


def test_solve_interior_saddle():
    one = np.array([1.0])
    sol = solve_subproblem(one, one, 2.0, TWO_PARABOLAS)
    np.testing.assert_allclose(sol.z, [1.0], atol=1e-9)
    assert abs(sol.value) <= 1e-9
    np.testing.assert_allclose(sol.weights, [0.5, 0.5], atol=1e-6)


def test_solve_boundary_saddle():
    neg = np.array([-1.0])
    sol = solve_subproblem(neg, neg, 2.0, TWO_PARABOLAS)
    np.testing.assert_allclose(sol.z, [0.0], atol=1e-10)
    assert sol.value == pytest.approx(-1.0, abs=1e-10)
    np.testing.assert_allclose(sol.weights, [1.0, 0.0], atol=1e-8)


def test_single_objective_exact_gradient_step():
    p, _ = quad_instance([[0.4, -0.9]], [1.0])
    y = np.array([1.0, 2.0])
    sol = solve_subproblem(np.zeros(2), y, 5.0, p)
    np.testing.assert_allclose(sol.z, y - p.smooth_jac(y)[0] / 5.0, atol=1e-10)
    assert sol.dual_gap == 0.0


def test_weights_live_on_simplex():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p, x, y, L = random_instance(rng)
        sol = solve_subproblem(x, y, L, p)
        assert np.all(sol.weights >= -1e-12)
        assert abs(float(np.sum(sol.weights)) - 1.0) <= 1e-10


def test_duality_sandwich():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p, x, y, L = random_instance(rng)
        sol = solve_subproblem(x, y, L, p)
        lam = project_simplex(rng.uniform(0.0, 1.0, p.m))
        z = y + rng.uniform(-0.5, 0.5, p.n)
        assert dual_value(lam, x, y, L, p) <= sol.value + 1e-9
        assert sol.value <= subproblem_objective(z, x, y, L, p) + 1e-9


def test_complementarity_of_reported_weights():
    rng = np.random.default_rng(13)
    for _ in range(25):
        p, x, y, L = random_instance(rng)
        sol = solve_subproblem(x, y, L, p)
        grads = p.smooth_jac(y)
        linear = grads @ (sol.z - y) + p.smooth(y) - evaluate_objectives(p, x)
        slack = float(np.max(linear)) - linear
        assert np.all(sol.weights[slack > 1e-6] <= 1e-6)


def test_scaling_consistency_smooth_case():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n, m = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        p, L_f = quad_instance(rng.uniform(-1, 1, (m, n)), rng.uniform(0.25, 1.5, m))
        x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        L = float(rng.uniform(1.0, 4.0) * L_f)
        c = float(rng.uniform(0.5, 8.0))
        scaled = ProblemInstance(
            n=p.n, m=p.m,
            smooth=lambda v, p=p, c=c: c * p.smooth(v),
            smooth_jac=lambda v, p=p, c=c: c * p.smooth_jac(v))
        a = solve_subproblem(x, y, L, p)
        b = solve_subproblem(x, y, c * L, scaled)
        np.testing.assert_allclose(a.z, b.z, atol=1e-9 * (1.0 + np.max(np.abs(a.z))))


def test_matches_brute_force_grid():
    rng = np.random.default_rng(23)
    for _ in range(12):
        p, x, y, L = random_instance(rng)
        sol = solve_subproblem(x, y, L, p)
        z_grid, phi_grid = grid_argmin(x, y, L, p, radius=1.5, pitch=1e-3)
        phi_sol = subproblem_objective(sol.z, x, y, L, p)
        # The reported point must beat the whole grid; strong convexity
        # (modulus L) then caps how far the grid argmin can wander from it
        # along flat valleys of the piecewise model.
        assert phi_sol <= phi_grid + 1e-9 * (1.0 + abs(phi_grid))
        slack = max(phi_grid - phi_sol, 0.0)
        limit = np.sqrt(2.0 * slack / L) + 2e-3
        assert float(np.linalg.norm(sol.z - z_grid)) <= limit


def test_certified_gap_respects_tolerance():
    rng = np.random.default_rng(29)
    cfg = SubproblemConfig(tol=1e-10)
    for _ in range(20):
        p, x, y, L = random_instance(rng)
        sol = solve_subproblem(x, y, L, p, cfg)
        assert sol.dual_gap <= cfg.tol * (1.0 + abs(sol.value))


def test_warm_start_agrees_with_cold():
    rng = np.random.default_rng(31)
    for m in (2, 3):
        p, x, y, L = random_instance(rng)
        while p.m != m:
            p, x, y, L = random_instance(rng)
        cold = solve_subproblem(x, y, L, p)
        warm = solve_subproblem(x, y, L, p,
                                warm_weights=project_simplex(cold.weights + 0.05))
        np.testing.assert_allclose(cold.z, warm.z, atol=1e-8)


@pytest.mark.parametrize("l1", [False, True])
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("m", [4, 8, 12])
def test_many_objectives_certify_tight_gap(m, n, l1):
    # With m > n + 1 the dual Hessian is singular: the solve has to follow
    # ridges of the dual to the face that holds its maximizer.
    rng = np.random.default_rng(100 * m + 10 * n + l1)
    cfg = SubproblemConfig(tol=1e-12)
    for _ in range(5):
        weight = float(rng.uniform(0.05, 0.6)) if l1 else 0.0
        p, L_f = quad_instance(rng.uniform(-1, 1, (m, n)), rng.uniform(0.25, 1.5, m), weight)
        x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        L = float(rng.uniform(1.0, 4.0) * L_f)
        sol = solve_subproblem(x, y, L, p, cfg)
        assert sol.dual_gap <= cfg.tol * (1.0 + abs(sol.value))


def test_inner_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr("mofista.subproblem._MAX_EVALS", 1)
    cfg = SubproblemConfig(tol=1e-14)
    p, _ = quad_instance([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]], [1.0, 1.0, 1.0])
    with pytest.raises(SubproblemError, match=r"dual gap .* above tolerance"):
        solve_subproblem(np.array([0.9, 1.7]), np.array([0.9, 1.7]), 2.0, p, cfg)


def test_rejected_newton_point_steps_on_with_its_own_curvature():
    # A trial subproblem that SP1_l1 meets from start 9 of
    # sample_initial_points(desc, 10, seed=1): the first Newton point lands
    # on another piece of the l1 dual.  Stepping on from it with the
    # curvature there ends the solve; halving toward it took 5 prox calls.
    p, _ = builtin_problem("SP1_l1")
    calls = []

    class CountedL1(WeightedL1):
        def prox(self, t, v):
            calls.append(t)
            return super().prox(t, v)

    counted = replace(p, nonsmooth=CountedL1(p.nonsmooth.weight))
    x = np.array([0.34383075719831835, 0.09888865209706166])
    y = np.array([0.21789602439484868, 0.08265434116046126])
    cfg = SubproblemConfig(tol=1e-12)
    sol = solve_subproblem(x, y, 2.0, counted, cfg, warm_weights=np.array([1.0, 0.0]))
    assert sol.dual_gap <= cfg.tol * (1.0 + abs(sol.value))
    assert len(calls) <= 4


def test_gap_at_its_rounding_floor_ends_the_solve(monkeypatch):
    # A trial subproblem that DD1 meets from start 0 of
    # sample_initial_points(desc, 10, seed=1), at iteration 100.  One Newton
    # round takes the gap from 7.7e-6 to 2.7e-14, under its rounding floor of
    # about 4e-12 (the gradients' norm is about 40 and |y| about 20), so the
    # solve ends there, without idle rounds.
    p, _ = builtin_problem("DD1")
    seen = []
    evaluate = _Model.evaluate

    def logged(self, weights):
        out = evaluate(self, weights)
        seen.append(out[:3])
        return out

    monkeypatch.setattr(_Model, "evaluate", logged)
    x = np.array([-16.386950480765964, -10.91719046747421, 1.8148099772734438,
                  0.0021300854668714966, 0.0022505834078974706])
    y = np.array([-16.386036923229383, -10.918344167612306, 1.8161204969044689,
                  0.0015126235857114822, 0.0018305899198982679])
    cfg = SubproblemConfig(tol=1e-12)
    sol = solve_subproblem(x, y, 1.9999997488325207, p, cfg,
                           warm_weights=np.array([0.08387811315368088, 0.9161218868463191]))
    assert sol.dual_gap <= cfg.tol * (1.0 + abs(sol.value))
    assert len(seen) <= 2


def test_idle_rounds_short_of_tolerance_halve_the_step(monkeypatch):
    # A random convex l1 subproblem with L about 0.007 times the largest
    # curvature.  The Newton rounds from the second evaluation land on other
    # pieces of the dual: the third and fourth evaluations improve nothing
    # while the relative gap is still about 0.9.  Stopping there would raise;
    # the half step of the last improving round raises the dual, and the
    # solve certifies in 15 evaluations.
    quad = np.array([
        [[2.623806413733313, -0.9801444422663029], [-0.9801444422663029, 0.4187039506943042]],
        [[0.7442182623824191, -0.1569241004050676], [-0.1569241004050676, 0.12287956224200122]],
        [[0.08843940778682824, -0.14582405524845687],
         [-0.14582405524845687, 0.25896169075250974]],
        [[0.6156074820299112, 0.38511848415206695], [0.38511848415206695, 1.0370996239092876]]])
    lin = np.array([[3.781223083436907, -6.318669928607232],
                    [-5.344960663367744, 3.5610815509728213],
                    [2.5996309447758055, -2.0030174863846644],
                    [4.723104012890872, -6.881973977408883]])
    p = ProblemInstance(n=2, m=4,
                        smooth=lambda x: 0.5 * np.einsum("i,kij,j->k", x, quad, x) + lin @ x,
                        smooth_jac=lambda x: quad @ x + lin,
                        nonsmooth=WeightedL1(0.1532645911943332))
    seen = []
    evaluate = _Model.evaluate

    def logged(self, weights):
        out = evaluate(self, weights)
        seen.append(out[:3])
        return out

    monkeypatch.setattr(_Model, "evaluate", logged)
    cfg = SubproblemConfig(tol=1e-12)
    sol = solve_subproblem(np.array([1.6613223861920106, 0.9147088101614703]),
                           np.array([1.7583524207705628, 0.32386589841381885]),
                           0.020646397744232457, p, cfg)
    assert sol.dual_gap <= cfg.tol * (1.0 + abs(sol.value))
    duals = [dual for dual, _, _ in seen]
    rels = [gap / (1.0 + abs(primal)) for _, primal, gap in seen]
    assert max(duals[2:4]) <= duals[1] and min(rels[2:4]) >= rels[1] > 0.5
    assert duals[4] > duals[1]
    assert len(seen) <= 15


def test_idle_solve_makes_two_newton_and_ten_halving_rounds(monkeypatch):
    # Every evaluation after the first keeps its real point and step but
    # reports a lower dual and a larger gap than the first, so no round
    # improves anything: 1 evaluation, 2 Newton rounds and 10 halving rounds
    # (2**-1 down to 2**-10), then the first evaluation's gap raises.
    seen = []
    evaluate = _Model.evaluate

    def idle(self, weights):
        out = evaluate(self, weights)
        seen.append(out)
        dual, primal, gap = seen[0][:3]
        return out if len(seen) == 1 else (dual - 1.0, out[1], gap + 1.0) + out[3:]

    monkeypatch.setattr(_Model, "evaluate", idle)
    with pytest.raises(SubproblemError):
        solve_subproblem(np.zeros(1), np.array([0.5]), 2.0, TWO_PARABOLAS)
    assert len(seen) == 13


def test_small_L_subproblems_certify_with_the_halving_rounds():
    # Convex quadratics with L far below the curvature: the Newton rounds
    # overshoot and the halving rounds recover.  Without them 10 of the 400
    # fail for each kind of part; with them, 1 each (seed 0 as drawn).
    rng = np.random.default_rng(0)
    failures = {"part": 0, "custom": 0}
    for _ in range(400):
        m, n = int(rng.integers(3, 13)), int(rng.choice([1, 2, 5, 20]))
        A = rng.standard_normal((m, n, n))
        Q = A @ A.transpose(0, 2, 1) / n + 0.01 * np.eye(n)
        b = 2.0 * rng.standard_normal((m, n))
        part = WeightedL1(float(rng.uniform(0.05, 0.6))) if rng.random() < 0.5 else Zero()
        x, y = rng.uniform(-1.0, 1.0, (2, n))
        L = float(rng.uniform(0.0002, 0.002) * np.linalg.eigvalsh(Q).max())
        for kind, g in (("part", part), ("custom", CustomNonsmooth(part.value, part.prox))):
            p = ProblemInstance(n=n, m=m, nonsmooth=g,
                                smooth=lambda z: 0.5 * np.einsum("i,kij,j->k", z, Q, z) + b @ z,
                                smooth_jac=lambda z: Q @ z + b)
            try:
                solve_subproblem(x, y, L, p)
            except SubproblemError:
                failures[kind] += 1
    assert failures["part"] <= 1 and failures["custom"] <= 1, failures


def test_solve_rejects_nonpositive_L():
    p, _ = builtin_problem("SP1_l1")
    x, y = np.array([2.5, 0.5]), np.array([2.4, 0.7])
    for L in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            solve_subproblem(x, y, L, p)


def test_solve_rejects_jacobian_of_wrong_shape():
    p, _ = builtin_problem("SP1")
    tall = replace(p, smooth_jac=lambda x: np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"\(3, 2\).*\(2, 2\)"):
        solve_subproblem(np.array([2.5, 0.5]), np.array([2.4, 0.7]), 3.0, tall)


def test_solve_rejects_warm_weights_of_wrong_length():
    p, _ = builtin_problem("SP1_l1")
    x, y = np.array([2.5, 0.5]), np.array([2.4, 0.7])
    for warm in (np.ones(3) / 3, np.ones((2, 1)) / 2, np.array([])):
        with pytest.raises(ValueError, match=re.escape(f"{warm.shape}, expected (2,)")):
            solve_subproblem(x, y, 3.0, p, warm_weights=warm)


def test_non_finite_curvature_ends_the_solve():
    # SP1_l1's own prox derivative certifies this subproblem in 2 evaluations;
    # a nan one leaves no Newton round, so the solve ends after the first.
    p, _ = builtin_problem("SP1_l1")
    calls = []

    class CountedL1(WeightedL1):
        def prox(self, t, v):
            calls.append(t)
            return super().prox(t, v)

    class NanCurvatureL1(CountedL1):
        def prox_jvp(self, t, v, z, dirs):
            return np.full_like(dirs, np.nan)

    x, y = np.array([2.5, 0.5]), np.array([2.4, 0.7])
    cfg = SubproblemConfig(tol=1e-12)
    sol = solve_subproblem(x, y, 3.0, replace(p, nonsmooth=CountedL1(1.0)), cfg)
    assert sol.dual_gap <= cfg.tol * (1.0 + abs(sol.value))
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(SubproblemError):
        solve_subproblem(x, y, 3.0, replace(p, nonsmooth=NanCurvatureL1(1.0)), cfg)
    assert len(calls) == 1


@pytest.mark.parametrize("pos", [0, -1])
def test_one_nan_in_the_curvature_ends_the_solve(pos):
    # One NaN entry of the prox derivative, first or last, spoils one column
    # of the curvature: as with an all-NaN one above, the solve ends after
    # its first evaluation and raises with that evaluation's gap.
    p, _ = builtin_problem("SP1_l1")
    calls = []

    class OneNanL1(WeightedL1):
        def prox(self, t, v):
            calls.append(t)
            return super().prox(t, v)

        def prox_jvp(self, t, v, z, dirs):
            out = np.array(super().prox_jvp(t, v, z, dirs))
            out.flat[pos] = np.nan
            return out

    x, y = np.array([2.5, 0.5]), np.array([2.4, 0.7])
    q = replace(p, nonsmooth=OneNanL1(1.0))
    gap = model_evaluation(np.full(2, 0.5), x, y, 3.0, q)[2]
    calls.clear()
    with pytest.raises(SubproblemError, match=re.escape(f"dual gap {gap:.3e} above")):
        solve_subproblem(x, y, 3.0, q, SubproblemConfig(tol=1e-12))
    assert len(calls) == 1


def simplex_qp_lstsq(c, Q, w):
    """Reference for ``_simplex_qp``: the same active-set method with the
    least-squares cutoff solve on every face, one-dimensional ones too."""
    w = w.copy()
    free = w > 0.0
    for _ in range(4 * w.size):
        face = np.flatnonzero(free)
        i0 = face[np.argmax(w[face])]
        rest = face[face != i0]
        grad = c - Q @ w
        if rest.size:
            g = grad[rest] - grad[i0]
            q = (Q[np.ix_(rest, rest)] - Q[rest, i0][:, None] - Q[i0, rest][None, :]
                 + Q[i0, i0])
            step = np.linalg.lstsq(q, g, rcond=_QP_CUTOFF)[0]
            flat = g - q @ step
            ridge = float(np.linalg.norm(flat)) > _QP_CUTOFF * float(np.linalg.norm(g))
            d = np.zeros(w.size)
            d[rest] = flat if ridge else step
            d[i0] = -float(np.sum(d[rest]))
            shrink = np.flatnonzero(d < 0.0)
            limits = -w[shrink] / d[shrink]
            if ridge or (shrink.size and limits.min() < 1.0):
                k = int(np.argmin(limits))
                w = np.maximum(w + limits[k] * d, 0.0)
                w[shrink[k]] = 0.0
                free[shrink[k]] = False
                continue
            w = np.maximum(w + d, 0.0)
            grad = c - Q @ w
        out = np.flatnonzero(~free)
        if not out.size or float(np.max(grad[out])) <= float(w @ grad):
            break
        free[out[np.argmax(grad[out])]] = True
    return w


def qp_cases(rng):
    """Random ``(c, Q, w)`` for m = 2, 3 and 5 over magnitudes 1e-8 to 1e8,
    with flat (``q == 0``) and nearly flat one-dimensional faces; larger
    faces reach the two-weight ones after drops."""
    for m in (2, 3, 5):
        for scale in 10.0 ** np.arange(-8, 9, 2):
            for _ in range(30):
                A = rng.standard_normal((m, int(rng.integers(1, m + 1))))
                w = rng.dirichlet(np.ones(m))
                w[rng.random(m) < 0.2] = 0.0
                w = w / w.sum() if w.sum() > 0.0 else np.eye(m)[0]
                c = scale * rng.standard_normal(m)
                yield c, scale * (A @ A.T), w
                # Equal rows: every face is flat.
                yield c, scale * np.full((m, m), rng.uniform(0.5, 2.0)), w
                # Rows equal up to rounding: curvature a few ulp from 0.
                B = rng.standard_normal((m, m))
                yield c, scale * (np.full((m, m), 1.0) + 1e-15 * (B @ B.T)), w
            yield scale * rng.standard_normal(m), np.zeros((m, m)), np.full(m, 1.0 / m)


def test_simplex_qp_matches_lstsq_bit_for_bit():
    faces = 0
    for c, Q, w in qp_cases(np.random.default_rng(41)):
        got, want = _simplex_qp(c, Q, w), simplex_qp_lstsq(c, Q, w)
        assert got.tobytes() == want.tobytes(), (c, Q, w)
        faces += int(np.count_nonzero(w) == 2)
    assert faces > 500


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("pos", [0, -1])
def test_simplex_qp_prices_a_nan_as_numpy_does(m, pos):
    # A NaN in c reaches the pricing from a vertex (a face of one weight) and
    # the faces of two and of three or more weights from the other starts;
    # the reference prices with NumPy's max and argmax.
    c = np.linspace(0.3, 0.1, m)
    c[pos] = np.nan
    Q = np.eye(m) + 0.1
    for w in (np.eye(m)[1], np.full(m, 1.0 / m), np.r_[0.5, 0.5, np.zeros(m - 2)]):
        np.testing.assert_array_equal(_simplex_qp(c, Q, w), simplex_qp_lstsq(c, Q, w))


# -------------------------------------------------------- value-bound checks


def test_value_bounded_by_stationarity_gap():
    # The model minimum never exceeds the value at z = y.
    rng = np.random.default_rng(37)
    for _ in range(20):
        p, x, y, L = random_instance(rng)
        sol = solve_subproblem(x, y, L, p)
        ceiling = float(np.max(evaluate_objectives(p, y) - evaluate_objectives(p, x)))
        assert sol.value <= ceiling + 1e-9


def test_value_dominates_accepted_descent():
    # With L at least the true constant, max_i [F_i(z) - F_i(x)] <= value.
    rng = np.random.default_rng(41)
    for _ in range(20):
        p, x, y, L = random_instance(rng)
        sol = solve_subproblem(x, y, L, p)
        drop = float(np.max(evaluate_objectives(p, sol.z) - evaluate_objectives(p, x)))
        assert sol.value >= drop - 1e-9


# -------------------------------------------------------------- kkt residual


def test_kkt_zero_at_reported_solution():
    rng = np.random.default_rng(43)
    for _ in range(15):
        p, x, y, L = random_instance(rng)
        sol = solve_subproblem(x, y, L, p)
        assert kkt_residual(sol, x, y, L, p) <= 1e-12 * (1.0 + L)


def test_reported_solution_is_exact_inner_step():
    # The solution comes from the solve's own evaluation of its weights: an
    # m=1 solve evaluates once, and z equals z(weights) to the last bit.
    calls = []

    def prox(t, v):
        calls.append(t)
        return WeightedL1(0.3).prox(t, v)

    part = CustomNonsmooth(value_fn=WeightedL1(0.3).value, prox_fn=prox)
    p = replace(quad_instance([[0.4, -0.9]], [1.0])[0], nonsmooth=part)
    solve_subproblem(np.zeros(2), np.array([1.0, 2.0]), 3.0, p)
    assert len(calls) == 1
    rng = np.random.default_rng(53)
    for name in ("SP1_l1", "VFM1", "JOS1_l1"):
        p, desc = builtin_problem(name)
        for _ in range(50):
            x, y = sample_initial_points(desc, 2, int(rng.integers(1 << 30)))
            L = float(rng.uniform(0.5, 4.0) * desc.L_true)
            sol = solve_subproblem(x, y, L, p)
            assert kkt_residual(sol, x, y, L, p) == 0.0


def test_kkt_grows_linearly_in_perturbation():
    p, x, y, L = random_instance(np.random.default_rng(47))
    sol = solve_subproblem(x, y, L, p)
    d = np.random.default_rng(1).normal(size=p.n)
    d /= np.linalg.norm(d)
    for delta in (1e-4, 1e-2, 1.0):
        res = kkt_residual(replace(sol, z=sol.z + delta * d), x, y, L, p)
        assert res == pytest.approx(L * delta, rel=1e-6)


# -------------------------------------------------- weak-Pareto residual


def test_residual_zero_at_weakly_pareto_point():
    one = np.array([1.0])
    assert weak_pareto_residual(one, one, 2.0, TWO_PARABOLAS) <= 1e-10


def test_residual_single_objective_gradient_norm():
    p = ProblemInstance(n=1, m=1, smooth=lambda x: np.array([0.5 * x[0] ** 2]),
                        smooth_jac=lambda x: np.array([[x[0]]]))
    y = np.array([3.0])
    assert weak_pareto_residual(y, y, 1.0, p) == pytest.approx(3.0, abs=1e-12)


def test_residual_positive_off_the_front():
    x = np.array([5.0])
    assert weak_pareto_residual(x, x, 2.0, TWO_PARABOLAS) > 0.1


# ------------------------------------------------------------ simplex helper


def test_project_simplex_examples():
    np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    np.testing.assert_allclose(project_simplex(np.array([0.3, 0.3])), [0.5, 0.5])
    np.testing.assert_allclose(project_simplex(np.array([1.0])), [1.0])
    assert project_simplex(np.array([3e15, 0.0])).tolist() == [1.0, 0.0]  # below 2**52


def project_simplex_full(v):
    """Reference for ``project_simplex``: the sort-based projection in
    NumPy's vectorized form."""
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    rho = ranks[u - cumulative / ranks > 0.0][-1]
    return np.maximum(v - cumulative[rho - 1] / rho, 0.0)


def descending_sum(v):
    return float(np.cumsum(np.sort(v)[::-1])[-1])


def test_project_simplex_exit_keeps_the_bits():
    rng = np.random.default_rng(43)
    a = rng.uniform(0.0, 1.0, 200)
    cases = [np.array([x, 1.0 - x]) for x in a] + [np.array([1.0 - x, x]) for x in a]
    raw = [rng.uniform(-1.0, 1.0, m) for m in (1, 2, 3, 5, 12) for _ in range(100)]
    on = [project_simplex_full(v) for v in raw]
    # One entry moved by one ulp, up or down, so the descending sum misses 1.
    nudged = []
    for v in on:
        w, j = v.copy(), int(rng.integers(v.size))
        w[j] = np.nextafter(w[j], 2.0 if rng.random() < 0.5 else -1.0)
        nudged.append(w)
    signed_zeros = [np.where(v == 0.0, -0.0, v) for v in on if not v.all()]
    # A negative entry beside entries that sum to 1.
    negative = [np.append(v, -rng.uniform(0.0, 1.0)) for v in on]
    # The weights each solve of a run returns, chained as the solver chains them.
    weights = []
    for name in available_problems():
        p, desc = builtin_problem(name)
        for x0 in sample_initial_points(desc, 3, 0):
            x_prev, warm = x0, None
            for rec in run_solver(p, x0, SolverConfig(max_iter=20)).trace.records:
                warm = solve_subproblem(x_prev, rec.y, rec.L, p, warm_weights=warm).weights
                weights.append(warm)
                x_prev = rec.x
    # Sums to exactly 1 in index order, not in descending order: the
    # projection changes it.
    trap = np.array([0.37416094895688495, 0.1925800303480084, 0.4332590206951066])
    cases += raw + on + nudged + signed_zeros + negative + weights + [
        trap, np.array([-0.0, 1.0]), np.array([1.0, 0.0, -0.0]),
        np.array([1.5, -0.5]), np.array([0.75, -0.5, 0.75])]
    for v in cases:
        assert project_simplex(v).tobytes() == project_simplex_full(v).tobytes(), v
    assert sum(descending_sum(v) == 1.0 for v in on) > 100
    assert sum(descending_sum(v) != 1.0 for v in nudged) > 100
    assert len(signed_zeros) > 100
    assert any(descending_sum(w) != 1.0 for w in weights)
    assert float(trap[0] + trap[1] + trap[2]) == 1.0
    assert project_simplex(trap).tobytes() != trap.tobytes()
    assert not np.signbit(project_simplex(np.array([-0.0, 1.0]))).any()


@pytest.mark.parametrize("bad", [
    pytest.param([0.2, np.nan, 0.5], id="nan"),
    pytest.param([0.2, np.inf, 0.5], id="inf"),
    pytest.param([0.2, -np.inf, 0.5], id="-inf"),
    # The rest sums to 1, which must not pass for weights on the simplex.
    pytest.param([np.nan, 0.5, 0.5], id="nan-beside-sum-one"),
    pytest.param([0.5, 0.5, np.nan], id="sum-one-beside-nan"),
    pytest.param([0.0, np.inf, 1.0], id="inf-beside-one"),
    pytest.param([], id="empty"),
    # Absolute sums of 2**52 and above: u - (u - 1) rounds to 0, so no rank
    # sets a shift (1e17), or to 2, off the simplex (2**53 + 2).
    pytest.param([1e17], id="1e17"),
    pytest.param([-1e17], id="-1e17"),
    pytest.param([2.0 ** 53 + 2.0], id="2**53+2"),
    pytest.param([2.0 ** 53 + 2.0, 2.0 ** 53 + 2.0], id="2**53+2-twice"),
    pytest.param([-1e17, 0.0], id="-1e17-beside-zero"),
])
def test_project_simplex_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=r"2\*\*52"):
        project_simplex(np.array(bad))


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6).map(np.array))
def test_project_simplex_feasible_and_idempotent(v):
    w = project_simplex(v)
    assert np.all(w >= 0.0)
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(project_simplex(w), w, atol=1e-12)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=5).map(np.array),
       st.lists(st.floats(0.01, 1), min_size=2, max_size=5).map(np.array))
def test_project_simplex_is_nearest_point(v, raw):
    k = min(len(v), len(raw))
    v, other = v[:k], raw[:k] / np.sum(raw[:k])
    w = project_simplex(v)
    assert np.linalg.norm(v - w) <= np.linalg.norm(v - other) + 1e-12


# -------------------------------------------------------------- config guard


def test_config_validation():
    with pytest.raises(ValueError):
        SubproblemConfig(tol=0.0)
    with pytest.raises(ValueError):
        inner_primal_step(np.array([1.0]), np.zeros(1), -1.0, TWO_PARABOLAS)
