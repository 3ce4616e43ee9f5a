import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mofista import (CustomNonsmooth, EvaluationError, NonsmoothPart,
                     ProblemInstance, WeightedL1, Zero, builtin_problem)
from mofista.problems import evaluate_objectives

finite = st.floats(-1e6, 1e6, allow_nan=False)
vectors = st.lists(finite, min_size=1, max_size=5).map(np.array)
steps = st.floats(1e-6, 1e3)
weights = st.floats(0.0, 10.0)


def test_zero_prox_is_identity():
    v = np.array([3.0, -2.0])
    assert np.array_equal(Zero().prox(1.0, v), v)


def test_l1_prox_soft_threshold_example():
    got = WeightedL1(1.0).prox(0.5, np.array([1.2, -0.3]))
    np.testing.assert_allclose(got, [0.7, 0.0], atol=1e-15)


@given(vectors, steps)
def test_l1_weight_zero_reduces_to_identity(v, t):
    assert np.array_equal(WeightedL1(0.0).prox(t, v), v)


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_prox_rejects_nonpositive_step(t):
    for part in (Zero(), WeightedL1(1.0)):
        with pytest.raises(ValueError):
            part.prox(t, np.zeros(2))


def test_l1_negative_weight_rejected():
    with pytest.raises(ValueError):
        WeightedL1(-0.5)


@pytest.mark.parametrize("weight", [np.nan, np.inf])
def test_l1_non_finite_weight_rejected(weight):
    # A nan weight made the prox return nan; an infinite one made g infinite.
    with pytest.raises(ValueError, match="finite"):
        WeightedL1(weight)


def test_l1_prox_beats_grid():
    # g(y) + (1/(2t))(v - y)^2 on a dense 1-D grid never beats the prox point.
    w, t, v = 0.7, 0.4, 1.1
    p = WeightedL1(w).prox(t, np.array([v]))[0]
    grid = np.linspace(-2.0, 2.0, 40001)
    vals = w * np.abs(grid) + (grid - v) ** 2 / (2.0 * t)
    assert w * abs(p) + (p - v) ** 2 / (2.0 * t) <= vals.min() + 1e-12


@given(vectors, steps, weights)
def test_l1_prox_subgradient_optimality(v, t, w):
    p = WeightedL1(w).prox(t, v)
    level = t * w
    on = p != 0.0
    np.testing.assert_allclose(v[on] - p[on], level * np.sign(p[on]),
                               atol=1e-9 * (1.0 + level))
    assert np.all(np.abs(v[~on]) <= level * (1.0 + 1e-12) + 1e-15)


@given(vectors, vectors, steps, weights)
def test_prox_firmly_nonexpansive(u, v, t, w):
    k = min(len(u), len(v))
    u, v = u[:k], v[:k]
    part = WeightedL1(w)
    lhs = np.linalg.norm(part.prox(t, u) - part.prox(t, v))
    assert lhs <= np.linalg.norm(u - v) + 1e-9


@pytest.mark.parametrize("part", [Zero(), WeightedL1(0.7)])
def test_prox_jvp_matches_differences(part):
    # Away from the kinks |v_i| = t * weight the prox is affine, so central
    # differences are exact up to rounding; the base-class default takes
    # forward differences of step 1e-7, accurate to about 1e-8 here.
    rng = np.random.default_rng(3)
    h = 1e-6
    checked = 0
    for _ in range(40):
        t = rng.uniform(0.1, 2.0)
        v = 2.0 * rng.standard_normal(5)
        level = t * getattr(part, "weight", 0.0)
        if np.min(np.abs(np.abs(v) - level)) < 0.05:
            continue
        dirs = rng.standard_normal((5, 3))
        z = part.prox(t, v)
        exact = part.prox_jvp(t, v, z, dirs)
        central = np.column_stack([(part.prox(t, v + h * d) - part.prox(t, v - h * d)) / (2 * h)
                                   for d in dirs.T])
        np.testing.assert_allclose(exact, central, rtol=0.0, atol=1e-8)
        default = NonsmoothPart.prox_jvp(part, t, v, z, dirs)
        np.testing.assert_allclose(default, exact, rtol=0.0, atol=1e-7)
        checked += 1
    assert checked >= 20


def test_l1_weight_zero_jvp_is_identity():
    dirs = np.random.default_rng(4).standard_normal((4, 3))
    part = WeightedL1(0.0)
    for v in (np.zeros(4), np.array([0.0, 1.5, -2.0, 0.0])):
        np.testing.assert_array_equal(part.prox_jvp(0.5, v, part.prox(0.5, v), dirs), dirs)


def test_custom_nonsmooth_delegates():
    # prox of t * (1/2)||.||^2 is v / (1 + t)
    part = CustomNonsmooth(value_fn=lambda x: 0.5 * float(x @ x),
                           prox_fn=lambda t, v: v / (1.0 + t))
    assert part.value(np.array([3.0, 4.0])) == 12.5
    np.testing.assert_allclose(part.prox(1.0, np.array([2.0, -4.0])), [1.0, -2.0])
    with pytest.raises(ValueError):
        part.prox(0.0, np.zeros(1))


def test_evaluate_bk1_origin():
    p, _ = builtin_problem("BK1")
    np.testing.assert_allclose(evaluate_objectives(p, np.zeros(2)), [0.0, 50.0])


def test_evaluate_jos1_with_l1():
    p, _ = builtin_problem("JOS1_l1")
    np.testing.assert_allclose(evaluate_objectives(p, np.array([1.0, -1.0])),
                               [3.0, 7.0])


def test_evaluate_zero_nonsmooth_equals_smooth():
    p, _ = builtin_problem("SP1")
    x = np.array([2.3, 0.4])
    np.testing.assert_array_equal(evaluate_objectives(p, x), p.smooth(x))


def test_evaluate_nonfinite_raises_with_point():
    p = ProblemInstance(n=1, m=1, smooth=lambda x: np.array([np.nan]),
                        smooth_jac=lambda x: np.zeros((1, 1)))
    x = np.array([4.0])
    with pytest.raises(EvaluationError) as err:
        evaluate_objectives(p, x)
    np.testing.assert_array_equal(err.value.x, x)


def test_evaluate_shape_mismatch_raises():
    p = ProblemInstance(n=1, m=2, smooth=lambda x: np.zeros(3),
                        smooth_jac=lambda x: np.zeros((2, 1)))
    with pytest.raises(ValueError):
        evaluate_objectives(p, np.zeros(1))


def test_evaluate_wrong_length_point_raises():
    p, _ = builtin_problem("BK1")
    for x in ([1.0], np.zeros(3), np.zeros((1, 2))):
        with pytest.raises(ValueError, match="shape"):
            evaluate_objectives(p, x)


def test_problem_dims_validated():
    # n = 2.5 and m = True are numbers above 1, but not integer dimensions.
    for n, m in [(0, 1), (1, 0), (2.5, 1), (2, True)]:
        with pytest.raises(ValueError, match="integers of at least 1"):
            ProblemInstance(n=n, m=m, smooth=lambda x: x, smooth_jac=lambda x: x)
    assert ProblemInstance(n=np.int64(2), m=1, smooth=lambda x: x, smooth_jac=lambda x: x).n == 2

