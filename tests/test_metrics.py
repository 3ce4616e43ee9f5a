"""Front metrics: nondominated filtering, purity, performance profiles."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mofista import Front, nondominated_filter, performance_profile, purity


# ---------------------------------------------------------------------------
# nondominated filtering


def test_filter_removes_dominated_point():
    front = nondominated_filter(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert np.array_equal(front.objectives, [[0.0, 0.0]])


def test_filter_keeps_incomparable_points():
    front = nondominated_filter(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(front.objectives, [[0.0, 1.0], [1.0, 0.0]])


def test_filter_singleton_and_empty():
    assert len(nondominated_filter(np.array([[2.0, 3.0]]))) == 1
    empty = nondominated_filter(np.empty((0, 2)))
    assert len(empty) == 0
    assert empty.objectives.shape == (0, 2)
    empty = nondominated_filter(np.empty((0, 2)), np.empty((0, 3)))
    assert len(empty) == 0 and empty.decisions.shape == (0, 3)
    # atleast_2d makes [] one row with no columns, which is not a front.
    with pytest.raises(ValueError, match="at least one column"):
        nondominated_filter([])


def test_filter_collapses_duplicates():
    front = nondominated_filter(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 2.0]]))
    assert np.array_equal(front.objectives, [[0.0, 2.0], [1.0, 1.0]])


def test_filter_weak_domination_eliminates():
    # (0, 1) <= (0, 2) with strict inequality in one component
    front = nondominated_filter(np.array([[0.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(front.objectives, [[0.0, 1.0]])


def test_filter_realigns_decisions():
    objectives = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    decisions = np.array([[10.0], [20.0], [30.0]])
    front = nondominated_filter(objectives, decisions)
    # output rows are lexicographically sorted objectives
    assert np.array_equal(front.objectives, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(front.decisions, [[20.0], [10.0]])


def test_filter_decision_row_mismatch():
    with pytest.raises(ValueError):
        nondominated_filter(np.zeros((2, 2)), decisions=np.zeros((3, 1)))


@given(st.integers(0, 2**32 - 1))
def test_filter_idempotent_and_mutually_nondominated(seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, size=(rng.integers(1, 12), 2)).astype(float)
    front = nondominated_filter(pts)
    again = nondominated_filter(front.objectives)
    assert np.array_equal(front.objectives, again.objectives)
    obj = front.objectives
    le = np.all(obj[:, None, :] <= obj[None, :, :], axis=2)
    np.fill_diagonal(le, False)
    assert not np.any(le)


def test_front_validation_and_len():
    with pytest.raises(ValueError):
        Front(objectives=np.zeros((1, 2)), decisions=np.zeros((2, 1)))
    assert len(Front(objectives=np.zeros((3, 2)))) == 3
    with pytest.raises(ValueError, match="at least one column"):
        Front([])


# ---------------------------------------------------------------------------
# purity


def _merged(*fronts):
    return nondominated_filter(np.vstack([f.objectives for f in fronts]))


def test_purity_worked_two_front_example():
    a = Front(objectives=np.array([[0.0, 0.0], [1.0, 1.0]]))
    b = Front(objectives=np.array([[0.5, 0.5]]))
    assert purity(a, _merged(a, b)) == 0.5
    assert purity(b, _merged(a, b)) == 0.0


def test_purity_single_front_is_one():
    a = nondominated_filter(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert purity(a, _merged(a)) == 1.0


def test_purity_disjoint_incomparable_fronts():
    a = Front(objectives=np.array([[0.0, 3.0]]))
    b = Front(objectives=np.array([[3.0, 0.0]]))
    assert purity(a, _merged(a, b)) == 1.0
    assert purity(b, _merged(a, b)) == 1.0


def test_purity_rejects_fronts_of_different_widths():
    # Without the check a (2, 1) front would broadcast against a (2, 2)
    # reference and score silently.
    narrow = Front(objectives=np.array([[0.0], [1.0]]))
    wide = Front(objectives=np.array([[0.0, 1.0], [1.0, 0.0]]))
    for front, reference in ((narrow, wide), (wide, narrow)):
        with pytest.raises(ValueError, match="number of objectives"):
            purity(front, reference)
    with pytest.raises(ValueError, match="number of objectives"):
        purity(nondominated_filter(np.empty((0, 3))), wide)


def test_purity_empty_front_scores_zero():
    empty = nondominated_filter(np.empty((0, 2)))
    other = Front(objectives=np.array([[1.0, 1.0]]))
    assert purity(empty, _merged(empty, other)) == 0.0
    # Against an empty reference no point of a front has a match.
    assert purity(other, empty) == 0.0


def test_purity_invariant_under_duplicated_front():
    a = Front(objectives=np.array([[0.0, 2.0], [2.0, 0.0]]))
    b = Front(objectives=np.array([[1.0, 1.0]]))
    assert purity(a, _merged(a, b)) == purity(a, _merged(a, b, b, a))


# ---------------------------------------------------------------------------
# performance profiles


def test_profile_identical_rows_jump_to_one():
    prof = performance_profile(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]),
                               ["a", "b"])
    # One breakpoint at tau = 1, where both curves reach 1; below it they are 0.
    np.testing.assert_array_equal(prof.taus, [1.0])
    np.testing.assert_array_equal(prof.fractions, [[1.0], [1.0]])


def test_profile_uniformly_slower_solver():
    prof = performance_profile(np.array([[1.0, 1.0], [2.0, 2.0]]), ["fast", "slow"])
    # The curves are steps between breakpoints: slow is 0 on [1, 2) and 1 from 2 on.
    np.testing.assert_array_equal(prof.taus, [1.0, 2.0])
    np.testing.assert_array_equal(prof.fractions, [[1.0, 1.0], [0.0, 1.0]])


def test_profile_failures_cap_the_curve():
    costs = np.array([[1.0, np.nan], [2.0, 1.0]])
    prof = performance_profile(costs, ["a", "b"])
    # solver a fails one of two problems: its curve tops out at 0.5
    assert prof.taus[0] == 1.0
    assert prof.fractions[0, 0] == 0.5
    assert prof.fractions[0, -1] == 0.5
    assert prof.fractions[1, -1] == 1.0


def test_profile_with_failures_but_a_finite_cost_per_problem_is_silent():
    # Every column keeps a finite cost, so the per-problem best is found
    # without an all-NaN slice and nothing may warn.
    costs = np.array([[1.0, np.nan, 4.0, np.nan], [np.nan, 3.0, 2.0, 5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = performance_profile(costs, ["a", "b"])
    assert prof.taus[0] == 1.0
    assert prof.fractions[0, -1] == 0.5
    assert prof.fractions[1, 0] == 0.75 and prof.fractions[1, -1] == 0.75


def test_profile_rejects_problems_failed_by_all():
    # A problem no solver solved has no ratio; the caller drops it first.
    costs = np.array([[1.0, np.nan], [1.0, np.nan]])
    with pytest.raises(ValueError, match="finite cost"):
        performance_profile(costs, ["a", "b"])
    prof = performance_profile(costs[:, :1], ["a", "b"])
    assert prof.fractions[0, 0] == 1.0
    assert prof.taus[0] == 1.0


def test_profile_rejects_degenerate_input():
    with pytest.raises(ValueError):
        performance_profile(np.array([[1.0, 2.0]]), ["a", "b"])
    with pytest.raises(ValueError):
        performance_profile(np.array([[0.0]]), ["a"])
    with pytest.raises(ValueError):
        performance_profile(np.array([[-1.0]]), ["a"])
    with pytest.raises(ValueError):
        performance_profile(np.array([[np.nan], [np.nan]]), ["a", "b"])
    with pytest.raises(ValueError, match="finite cost"):
        performance_profile(np.empty((2, 0)), ["a", "b"])


@given(st.integers(0, 2**32 - 1))
def test_profile_curves_are_nondecreasing(seed):
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.5, 20.0, size=(3, 8))
    costs[rng.random(costs.shape) < 0.15] = np.nan
    if not np.any(np.isfinite(costs), axis=0).all():
        costs[0] = rng.uniform(0.5, 20.0, size=8)
    prof = performance_profile(costs, ["a", "b", "c"])
    assert np.all(np.diff(prof.fractions, axis=1) >= 0.0)
    assert np.all(prof.fractions >= 0.0) and np.all(prof.fractions <= 1.0)
    # the tail of each curve equals the solver's success fraction
    success = np.mean(np.isfinite(costs), axis=1)
    assert np.allclose(prof.fractions[:, -1], success)
