"""Runtime verification of the solver's proved descent and rate relations.

Every check here replays a recorded :class:`~mofista.solver.RunTrace`
against a *reference point* ``z`` (or a set of them) and tests an
inequality that holds mathematically for convex instances.  The central
quantities, for iterate ``x_k`` with momentum parameter ``t_{k-1}`` and
accepted curvature estimate ``L_{k-1}``, are

.. math::

    \\sigma_k(z) = \\min_i \\, [F_i(x_k) - F_i(z)], \\qquad
    \\rho_k(z) = t_{k-1} x_k - (t_{k-1} - 1) x_{k-1} - z,

and the energy

.. math::

    E_k = \\frac{2\\, t_{k-1}^2}{L_{k-1}} \\, \\sigma_k(z) + \\|\\rho_k(z)\\|^2,

which is non-increasing along accepted iterations and starts below
``||x_0 - z||^2``.  Combining this decay with the growth of ``t_k`` yields
the ``O(1/k^2)`` bound on the worst-component gap that
:func:`rate_bound_check` verifies.

All checks are pure functions of immutable traces; tolerances are small
absolute slacks sized for accumulated floating-point error, not for
modelling error (the inequalities hold exactly in reals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import Array, ProblemInstance, evaluate_objectives
from .solver import RunTrace, SolverConfig
from .suite import ProblemDescriptor

__all__ = [
    "ReferenceSet",
    "LyapunovSample",
    "objective_gap_min",
    "momentum_offset",
    "lyapunov_samples",
    "lyapunov_monotone_check",
    "gap_step_bounds_check",
    "merit_lower_bound",
    "rate_bound_check",
    "level_set_reference",
]

_STEP_SLACK = 1e-8
_ENERGY_SLACK = 1e-6


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


@dataclass(frozen=True)
class LyapunovSample:
    """Energy terms at one accepted iteration, for a fixed z."""

    k: int
    sigma_k: float
    rho_k: Array
    energy: float


def objective_gap_min(F_x: Array, F_z: Array) -> float:
    """Worst-component objective gap ``min_i [F_i(x) - F_i(z)]``."""
    F_x = np.asarray(F_x, dtype=float)
    F_z = np.asarray(F_z, dtype=float)
    if F_x.shape != F_z.shape:
        raise ValueError("objective vectors must have equal length")
    return float(np.min(F_x - F_z))


def momentum_offset(x_k: Array, x_prev: Array, t_prev: float, z: Array) -> Array:
    """The extrapolated residual ``t x_k - (t - 1) x_{k-1} - z``."""
    return t_prev * np.asarray(x_k, float) - (t_prev - 1.0) * np.asarray(x_prev, float) - z


def lyapunov_samples(trace: RunTrace, p: ProblemInstance, z: Array,
                     ) -> tuple[LyapunovSample, ...]:
    """Energy sequence of a trace relative to one reference point."""
    z = np.asarray(z, dtype=float)
    F_z = evaluate_objectives(p, z)
    xs = trace.iterates()          # row j is x_j, row 0 is x0
    Fs = trace.objective_rows()
    out = []
    for j, rec in enumerate(trace.records, start=1):
        sigma = objective_gap_min(Fs[j], F_z)
        rho = momentum_offset(xs[j], xs[j - 1], rec.t, z)
        energy = 2.0 * rec.t ** 2 * sigma / rec.L + float(rho @ rho)
        out.append(LyapunovSample(k=j, sigma_k=sigma, rho_k=rho, energy=energy))
    return tuple(out)


def lyapunov_monotone_check(trace: RunTrace, p: ProblemInstance, z: Array) -> bool:
    """True iff the energy starts below ``||x0 - z||^2`` and never increases.

    The first-step bound is checked with absolute slack 1e-8; each
    successive comparison allows ``1e-6 * (1 + |E_k|)`` of float drift.
    """
    samples = lyapunov_samples(trace, p, z)
    if not samples:
        return True
    diff = np.asarray(z, dtype=float) - trace.x0
    if samples[0].energy > float(diff @ diff) + _STEP_SLACK:
        return False
    energies = np.array([s.energy for s in samples])
    slack = _ENERGY_SLACK * (1.0 + np.abs(energies[:-1]))
    return bool(np.all(energies[1:] <= energies[:-1] + slack))


def gap_step_bounds_check(trace: RunTrace, p: ProblemInstance, z: Array) -> bool:
    """Verify the two one-step inequalities behind the energy decay.

    With ``u = y_k - x_{k+1}`` (the proximal displacement) every accepted
    step of a convex instance satisfies

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
    z = np.asarray(z, dtype=float)
    F_z = evaluate_objectives(p, z)
    xs = trace.iterates()
    Fs = trace.objective_rows()
    for j, rec in enumerate(trace.records, start=1):
        x_old, x_new, y, L = xs[j - 1], xs[j], rec.y, rec.L
        sigma_old = objective_gap_min(Fs[j - 1], F_z)
        sigma_new = objective_gap_min(Fs[j], F_z)
        u = y - x_new
        decay_rhs = -0.5 * L * (2.0 * float(u @ (y - x_old)) + float(u @ u))
        if sigma_old - sigma_new < decay_rhs - _STEP_SLACK:
            return False
        gap_rhs = 0.5 * L * (2.0 * float(u @ (y - z)) - float(u @ u))
        if sigma_new > gap_rhs + _STEP_SLACK:
            return False
    return True


def merit_lower_bound(p: ProblemInstance, x: Array, Z: ReferenceSet) -> float:
    """Certified lower bound on the merit value at x.

    The merit function is ``sup_z min_i [F_i(x) - F_i(z)]``; restricting the
    sup to the reference set gives a lower bound that is zero iff no stored
    point improves every objective.  Enlarging Z can only raise the bound.
    """
    F_x = evaluate_objectives(p, x)
    best = -np.inf
    for z in Z.points:
        best = max(best, objective_gap_min(F_x, evaluate_objectives(p, z)))
    return best


def rate_bound_check(trace: RunTrace, p: ProblemInstance, cfg: SolverConfig,
                     Z: ReferenceSet) -> bool:
    """Check the accelerated worst-component rate against every z in Z.

    .. math::

        \\min_i [F_i(x_k) - F_i(z)]
            \\le \\frac{4 \\beta L_f \\|x_0 - z\\|^2}{(k+1)^2} + 10^{-8}

    for all accepted iterations k, where ``L_f`` is the instance's known
    gradient Lipschitz constant.  Requires a convex instance started with
    ``L_init <= beta * L_f`` so that accepted estimates stay below the
    theoretical cap.
    """
    if p.grad_lipschitz is None:
        raise ValueError("rate check needs the instance's gradient Lipschitz constant")
    points = Z.points
    diffs = points - trace.x0[None, :]
    sq_dist = np.sum(diffs * diffs, axis=1)
    F_z = np.vstack([evaluate_objectives(p, z) for z in points])
    scale = 4.0 * cfg.beta * p.grad_lipschitz * sq_dist
    for j, rec in enumerate(trace.records, start=1):
        gaps = np.min(rec.objectives[None, :] - F_z, axis=1)
        if not np.all(gaps <= scale / (j + 1.0) ** 2 + _STEP_SLACK):
            return False
    return True


def level_set_reference(p: ProblemInstance, desc: ProblemDescriptor, x0: Array,
                        seed: int = 0, samples: int = 10_000,
                        extra: Array | None = None) -> ReferenceSet:
    """Build a reference set inside the level set ``{z : F(z) <= F(x0)}``.

    For n <= 2 the descriptor's box is swept by a grid with pitch 1e-2 of
    the box width per axis; in higher dimension, up to ``samples`` uniform
    draws are kept.  ``x0`` itself and any ``extra`` points (e.g. known
    Pareto-optimal points) are always included, so the set is nonempty.
    """
    x0 = np.asarray(x0, dtype=float)
    lower = np.asarray(desc.lower, dtype=float)
    upper = np.asarray(desc.upper, dtype=float)
    if p.n <= 2:
        axes = [np.linspace(lower[i], upper[i], 101) for i in range(p.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        candidates = np.column_stack([m.ravel() for m in mesh])
    else:
        rng = np.random.default_rng(seed)
        candidates = lower + rng.random((10 * samples, p.n)) * (upper - lower)
    F_x0 = evaluate_objectives(p, x0)
    kept = [z for z in candidates
            if np.all(evaluate_objectives(p, z) <= F_x0 + 1e-12)]
    kept = kept[:samples]
    blocks = [x0[None, :]]
    if kept:
        blocks.append(np.vstack(kept))
    if extra is not None and len(extra) > 0:
        blocks.append(np.atleast_2d(np.asarray(extra, dtype=float)))
    return ReferenceSet(np.vstack(blocks))
