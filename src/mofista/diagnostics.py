"""Runtime verification of the solver's proved descent and rate relations.

Every check here replays a recorded :class:`~mofista.solver.RunTrace`
and tests an inequality that holds mathematically for convex instances;
all but :func:`momentum_growth_check` and :func:`accepted_L_bound_check`
test it at every point ``z`` of a :class:`ReferenceSet`, returning true
only if it holds at each.  The central quantities, for iterate ``x_k`` with
momentum parameter ``t_{k-1}`` and accepted curvature estimate ``L_{k-1}``, are

.. math::

    \\sigma_k(z) = \\min_i \\, [F_i(x_k) - F_i(z)], \\qquad
    \\rho_k(z) = t_{k-1} x_k - (t_{k-1} - 1) x_{k-1} - z,

and the energy

.. math::

    E_k = \\frac{2\\, t_{k-1}^2}{L_{k-1}} \\, \\sigma_k(z) + \\|\\rho_k(z)\\|^2,

which is non-increasing along accepted iterations and starts below
``||x_0 - z||^2``.  With the growth of ``t_k`` and the cap on ``L`` this
decay gives the ``O(1/k^2)`` bound on the worst-component gap; the growth
check is vacuous for ``PGM``, and the cap for both fixed-step variants.

All checks are pure functions of immutable traces; tolerances are small
absolute slacks sized for accumulated floating-point error, not for
modelling error (the inequalities hold exactly in reals).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .problems import Array, ProblemInstance, evaluate_objectives
from .solver import RunTrace, SolverConfig, Variant
from .suite import ProblemDescriptor, sample_initial_points

__all__ = [
    "ReferenceSet",
    "lyapunov_energies",
    "lyapunov_monotone_check",
    "gap_step_bounds_check",
    "momentum_growth_check",
    "accepted_L_bound_check",
    "level_set_reference",
]

_STEP_SLACK = 1e-8
_ENERGY_SLACK = 1e-6
_DRAW_BUDGET = 10_000  # box draws level_set_reference may test per set
_SAMPLES = 40  # points level_set_reference keeps after x0


@dataclass(frozen=True)
class ReferenceSet:
    """Comparison points ``z``, one per row.  Checks that need distances
    measure them from the replayed trace's own start."""

    points: Array       # (N, n)

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.shape[0] == 0:
            raise ValueError("reference set must be nonempty")
        if not np.all(np.isfinite(points)):
            raise ValueError("reference set entries must be finite")
        object.__setattr__(self, "points", points)


def _gaps(trace: RunTrace, p: ProblemInstance, Z: ReferenceSet) -> Array:
    """``(K+1, N)`` matrix of ``sigma_k(z)``: row k is iterate ``x_k``
    (row 0 the start), column j the point ``Z.points[j]``."""
    F_z = np.vstack([evaluate_objectives(p, z) for z in Z.points])
    return np.vstack([np.min(F - F_z, axis=1) for F in trace.objective_rows()])


def lyapunov_energies(trace: RunTrace, p: ProblemInstance, Z: ReferenceSet) -> Array:
    """``(K, N)`` energies: row ``k - 1`` is ``E_k`` at every point of Z."""
    sigma = _gaps(trace, p, Z)
    xs = trace.iterates()          # row j is x_j, row 0 is x0
    energies = np.empty((len(trace.records), len(Z.points)))
    for j, rec in enumerate(trace.records, start=1):
        rho = rec.t * xs[j] - (rec.t - 1.0) * xs[j - 1] - Z.points
        energies[j - 1] = (2.0 * rec.t ** 2 * sigma[j] / rec.L
                           + np.sum(rho * rho, axis=1))
    return energies


def lyapunov_monotone_check(trace: RunTrace, p: ProblemInstance,
                            Z: ReferenceSet) -> bool:
    """True iff at every z the energy starts below ``||x0 - z||^2`` and
    never increases.

    The first-step bound is checked with absolute slack 1e-8; each
    successive comparison allows ``1e-6 * (1 + |E_k|)`` of float drift.
    """
    energies = lyapunov_energies(trace, p, Z)
    # energies[:1] is the first row, or nothing for a trace without records
    if np.any(energies[:1] > np.sum((Z.points - trace.x0) ** 2, axis=1) + _STEP_SLACK):
        return False
    slack = _ENERGY_SLACK * (1.0 + np.abs(energies[:-1]))
    return bool(np.all(energies[1:] <= energies[:-1] + slack))


def gap_step_bounds_check(trace: RunTrace, p: ProblemInstance,
                          Z: ReferenceSet) -> bool:
    """Verify the two one-step inequalities behind the energy decay.

    With ``u = y_k - x_{k+1}`` (the proximal displacement) every accepted
    step of a convex instance satisfies, at every z,

    .. math::

        \\sigma_k(z) - \\sigma_{k+1}(z)
            \\ge -\\tfrac{L_k}{2}\\left[\\,2\\langle u, y_k - x_k\\rangle
                + \\|u\\|^2\\right],
        \\qquad
        \\sigma_{k+1}(z)
            \\le \\tfrac{L_k}{2}\\left[\\,2\\langle u, y_k - z\\rangle
                - \\|u\\|^2\\right],

    each up to 1e-8 of accumulated rounding.
    """
    sigma = _gaps(trace, p, Z)
    xs = trace.iterates()
    for j, rec in enumerate(trace.records, start=1):
        y, L = rec.y, rec.L
        u = y - xs[j]
        uu = float(u @ u)
        decay_rhs = -0.5 * L * (2.0 * float(u @ (y - xs[j - 1])) + uu)
        gap_rhs = 0.5 * L * (2.0 * ((y - Z.points) @ u) - uu)
        if (np.any(sigma[j - 1] - sigma[j] < decay_rhs - _STEP_SLACK)
                or np.any(sigma[j] > gap_rhs + _STEP_SLACK)):
            return False
    return True


def _known(L_true: Optional[float]) -> float:
    if L_true is None:
        raise ValueError("the check needs the gradient Lipschitz constant L_true")
    return L_true


def momentum_growth_check(trace: RunTrace, L_true: Optional[float], cfg: SolverConfig) -> bool:
    """True iff the record of every iterate ``x_k`` has ``t_{k-1}^2 * 8 beta L_f
    >= (k+1)^2 L_{k-1}``, where ``L_f = L_true`` (``None`` raises ``ValueError``).

    No reference set is needed.  The energy check at ``z`` gives ``sigma_k(z)
    <= L_{k-1} ||x_0 - z||^2 / (2 t_{k-1}^2)``; with this growth that is the
    rate ``sigma_k(z) <= 4 beta L_f ||x_0 - z||^2 / (k+1)^2``.  The momentum
    recursion guarantees the growth, for an ``L`` that may fall as well as rise
    (Scheinberg, Goldfarb & Bai, 2014), while every accepted ``L`` is at most
    ``beta L_f``: the cap of :func:`accepted_L_bound_check`, given ``L_init <=
    beta L_f``.  Vacuously true for ``PGM``, which keeps ``t = 1``.
    """
    scale = 8.0 * cfg.beta * _known(L_true)
    return cfg.variant is Variant.PGM or all(
        r.t ** 2 * scale >= (r.k + 1) ** 2 * r.L for r in trace.records)


def accepted_L_bound_check(trace: RunTrace, L_true: Optional[float], cfg: SolverConfig) -> bool:
    """Every accepted step constant stays below ``max(beta * L_true, L_init)``.

    Vacuously true for the fixed-step variants, which never adapt ``L``;
    ``L_true=None`` raises ``ValueError`` for every variant.
    """
    cap = max(cfg.beta * _known(L_true), cfg.L_init)
    if cfg.variant is not Variant.BACKTRACKING:
        return True
    return all(r.L <= cap * (1.0 + 1e-12) for r in trace.records)


def level_set_reference(p: ProblemInstance, desc: ProblemDescriptor, x0: Array,
                        seed: int = 0) -> ReferenceSet:
    """Build a reference set inside the level set ``{z : F(z) <= F(x0)}``.

    Uniform draws from the descriptor's box (:func:`sample_initial_points`)
    are kept when ``F(z) <= F(x0)``, the same way for every n; drawing stops
    once ``_SAMPLES`` (40) are kept or after ``_DRAW_BUDGET`` (10,000) draws.
    ``x0`` itself is always the first row, so the set is nonempty.
    """
    F_x0 = evaluate_objectives(p, x0)
    inside = (z for z in sample_initial_points(desc, _DRAW_BUDGET, seed)
              if np.all(evaluate_objectives(p, z) <= F_x0 + 1e-12))
    return ReferenceSet(np.vstack([x0, *islice(inside, _SAMPLES)]))
