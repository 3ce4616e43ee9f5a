"""Front-quality metrics: nondominated filtering, purity, performance profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .problems import Array

__all__ = [
    "Front",
    "nondominated_filter",
    "purity",
    "PerformanceProfile",
    "performance_profile",
]

_MATCH_TOL = 1e-8


@dataclass(frozen=True)
class Front:
    """A mutually nondominated set of objective vectors.

    Build fronts through :func:`nondominated_filter`.  Objective rows need a
    column, and ``decisions`` rows, when present, must align with them.
    """

    objectives: Array                 # (N, m)
    decisions: Optional[Array] = None  # (N, n) or None

    def __post_init__(self) -> None:
        obj = np.atleast_2d(np.asarray(self.objectives, dtype=float))
        if obj.shape[1] == 0:
            raise ValueError("objective rows need at least one column")
        object.__setattr__(self, "objectives", obj)
        if self.decisions is not None:
            dec = np.atleast_2d(np.asarray(self.decisions, dtype=float))
            if dec.shape[0] != obj.shape[0]:
                raise ValueError("decision rows must align with objective rows")
            object.__setattr__(self, "decisions", dec)

    def __len__(self) -> int:
        return self.objectives.shape[0]


def nondominated_filter(objectives: Array, decisions: Optional[Array] = None) -> Front:
    """Keep a vector u iff no input vector v has v <= u with v != u.

    Exact duplicates collapse to their first occurrence.  Row order follows
    the (lexicographically sorted) deduplicated objectives, which keeps the
    result independent of input ordering.
    """
    front = Front(objectives, decisions)
    uniq, first = np.unique(front.objectives, axis=0, return_index=True)
    # le[i, j]: row i weakly dominates row j; rows are distinct, so any
    # off-diagonal weak domination is domination proper.
    le = np.all(uniq[:, None, :] <= uniq[None, :, :], axis=2)
    np.fill_diagonal(le, False)
    keep = ~np.any(le, axis=0)
    kept_dec = front.decisions[first[keep]] if front.decisions is not None else None
    return Front(objectives=uniq[keep], decisions=kept_dec)


def purity(front: Front, reference: Front) -> float:
    """Share of ``front``'s points within 1e-8 (max norm) of a point of ``reference``,
    the nondominated union of all competitors' fronts, which the caller merges once.
    An empty front scores 0; fronts of different widths raise ``ValueError``."""
    if front.objectives.shape[1] != reference.objectives.shape[1]:
        raise ValueError("front and reference need the same number of objectives")
    if len(front) == 0:
        return 0.0
    dist = np.max(np.abs(front.objectives[:, None, :] - reference.objectives[None, :, :]), axis=2)
    return float(np.count_nonzero(np.min(dist, axis=1) <= _MATCH_TOL)) / len(front)


@dataclass(frozen=True)
class PerformanceProfile:
    """Stepwise cumulative cost-ratio curves, one per solver."""

    solvers: tuple[str, ...]
    taus: Array        # (T,) sorted finite ratio breakpoints, starting at 1
    fractions: Array   # (S, T); fractions[s, t] = share of problems solved within taus[t]


def performance_profile(costs: Array, solvers: Sequence[str]) -> PerformanceProfile:
    """Ratio-based profiles of a solvers-by-problems cost table.

    ``costs[s, p]`` is a positive scalar (iterations, time, ...) or NaN for
    a failed run.  For each problem the ratio against the per-problem best
    is formed; curve s at tau is the fraction of problems whose ratio is
    finite and <= tau.  Raises ``ValueError`` unless there is at least one
    problem and every problem has a finite cost, since a problem failed by
    every solver has no ratio; callers drop such problems first.
    """
    costs = np.atleast_2d(np.asarray(costs, dtype=float))
    if costs.shape[0] != len(solvers):
        raise ValueError("one cost row per solver required")
    solved = np.isfinite(costs)
    if costs.shape[1] == 0 or not solved.any(axis=0).all():
        raise ValueError("every problem needs a finite cost from some solver")
    if np.any(costs[solved] <= 0.0):
        raise ValueError("costs must be positive")
    best = np.nanmin(costs, axis=0)
    ratios = costs / best[None, :]
    ratios[~np.isfinite(ratios)] = np.inf
    finite = ratios[np.isfinite(ratios)]
    taus = np.unique(np.concatenate([[1.0], finite]))
    fractions = np.mean(ratios[:, None, :] <= taus[None, :, None], axis=2)
    return PerformanceProfile(solvers=tuple(solvers), taus=taus, fractions=fractions)
