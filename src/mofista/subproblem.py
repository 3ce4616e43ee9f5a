"""Worst-case prox-linear subproblem and its simplex dual.

One solver step minimizes, over ``z``, the model

.. math:: \\max_i \\big[\\langle \\nabla f_i(y), z - y\\rangle + g(z)
          + f_i(y) - F_i(x)\\big] + \\frac{L}{2}\\|z - y\\|^2 .

Exchanging min and max gives a concave dual over the probability simplex:
for weights ``lam`` the inner minimizer has the closed form

.. math:: z(\\lambda) = \\operatorname{prox}_{g/L}\\Big(
          y - \\tfrac{1}{L}\\textstyle\\sum_i \\lambda_i \\nabla f_i(y)\\Big),

and the dual supergradient at ``lam`` is the vector ``b`` of inner linear
terms at ``z(lam)``.  One routine serves every ``m``: Newton rounds on the
dual, each maximizing over the simplex, exactly by an active-set method, the
quadratic model at the last point evaluated, with curvature ``G D G^T / L``
from the prox Jacobian ``D`` (``NonsmoothPart.prox_jvp``).  Once two rounds in
a row improve nothing, idle rounds 2-11 halve the last improving step down to
``2**-10``, and the twelfth stops.  So does a certified gap ``max_i b_i(z) -
lam . b(z)``, free and exact at any weights, within its rounding floor.  Only
``solve_subproblem`` builds a ``SubproblemSolution``.

Everything here is stateless; warm starts are passed in by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .problems import Array, NonsmoothPart, ProblemInstance, _evaluate

__all__ = [
    "SubproblemConfig",
    "SubproblemSolution",
    "SubproblemError",
    "project_simplex",
    "solve_subproblem",
    "weak_pareto_residual",
]

# Rounding unit of the certified gap's floor, four machine epsilons: the
# floor is this times the magnitudes of the terms summed into the gap
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
_ROUNDING = 4.0 * np.finfo(float).eps

# Dual evaluations one solve may make.
_MAX_EVALS = 10_000

# Relative least-squares cutoff of ``_simplex_qp``: the accuracy of difference
# curvature (the default ``NonsmoothPart.prox_jvp``).  Exact curvature took the
# same steps on every built-in with 1e-12, so one cutoff serves both.
_QP_CUTOFF = 1e-7


class SubproblemError(RuntimeError):
    """Inner solver did not certify the requested dual gap; the message states it."""


@dataclass(frozen=True)
class SubproblemConfig:
    """Inner-solver knobs.

    ``tol`` is a relative dual-gap tolerance for a solve that ends above the
    gap's rounding floor: it is accepted when ``primal - dual <= tol * (1 +
    |primal|)``.
    """

    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class SubproblemSolution:
    """Solution of one worst-case prox-linear step.

    ``z`` is the inner minimizer ``z(weights)`` for the returned
    ``weights``, the optimal simplex multipliers.  ``value`` is the model
    value at ``z`` (negative away from weakly Pareto points, zero exactly
    there) and ``dual_gap`` the certified primal-dual gap at ``weights``.
    """

    z: Array
    value: float
    weights: Array
    dual_gap: float


def project_simplex(v: Array) -> Array:
    """Euclidean projection onto the probability simplex (Duchi et al., 2008) in one
    pass on Python floats: the descending running sum adds in ``np.cumsum``'s order,
    so the bits are NumPy's; on the simplex the shift is exactly 0, and ``-0.0``
    becomes ``+0.0``.  Raises ``ValueError`` unless ``v`` is non-empty with
    ``sum |v_i| < 2**52``, below which rank 1 always sets a shift."""
    v = np.asarray(v, dtype=float)
    total, descending = 0.0, sorted(v.tolist(), reverse=True)
    if not descending or not math.fsum(map(abs, descending)) < 2.0 ** 52:
        raise ValueError(f"cannot project {descending}: empty, or sum |w_i| not below 2**52")
    for rank, u in enumerate(descending, 1):
        total += u
        if u - (total - 1.0) / rank > 0.0:  # the last such rank sets the shift
            shift = (total - 1.0) / rank
    return np.maximum(v - shift, 0.0)


class _Model(NamedTuple):
    """Data of one subproblem, precomputed at (x, y, L)."""

    grads: Array    # (m, n) rows grad f_i(y)
    fy: Array       # (m,)   f_i(y)
    offsets: Array  # (m,)   f_i(y) - F_i(x)
    y: Array
    L: float
    g: NonsmoothPart

    def evaluate(self, weights: Array) -> tuple[float, float, float, Array, Array, Array, tuple]:
        """Dual value, primal value and certified gap at ``weights``.

        Returns ``(dual, primal, gap, z, linear, v, step)``: ``z = prox(v)``
        is the inner minimizer at the prox argument ``v``, ``linear`` holds the
        inner terms ``b_i(z) - g(z)``, built from ``step = (d, ||d||^2, G d,
        g(z))`` with ``d = z - y``; the gap ``max(b) - weights . b`` equals the
        primal-dual difference exactly: the shared ``g`` and quadratic cancel.
        """
        v = self.y - (self.grads.T @ weights) / self.L
        z = self.g.prox(1.0 / self.L, v)
        d = z - self.y
        gd = self.grads @ d
        linear = gd + self.offsets
        dd, gz = float(d @ d), self.g.value(z)
        rest = gz + 0.5 * self.L * dd
        avg = float(weights @ linear)
        top = max(linear.tolist())
        if avg != avg or not top:  # NumPy's max keeps any NaN and the last of tied zeros
            top = float(linear.max())
        return avg + rest, top + rest, top - avg, z, linear, v, (d, dd, gd, gz)


def _linearize(y: Array, L: float, p: ProblemInstance, Fx: Array,
               fy: Optional[Array] = None) -> _Model:
    """Model at ``(y, L)`` from one ``grad f`` call at ``y``, against objective
    values ``Fx = F(x)`` the caller already holds; ``f(y)`` is one more call
    unless the caller passes it as ``fy`` (``f(x)`` where ``y`` equals ``x``)."""
    if not L > 0.0:
        raise ValueError("step constant L must be positive")
    y = np.asarray(y, dtype=float)
    grads = np.asarray(p.smooth_jac(y), dtype=float)
    if grads.shape != (p.m, p.n):
        raise ValueError(f"jacobian shape {grads.shape}, expected {(p.m, p.n)}")
    fy = np.asarray(p.smooth(y), dtype=float) if fy is None else fy
    return _Model(grads, fy, fy - Fx, y, float(L), p.nonsmooth)


def _simplex_qp(c: Array, Q: Array, w: Array) -> Array:
    """Maximize ``c . w - w . Q w / 2`` (``Q`` symmetric positive
    semidefinite) over the simplex by a primal active-set method from the
    feasible ``w``.

    Steps live in face coordinates: the largest free weight ``i0`` absorbs
    the changes of the other free weights, so the Newton system has no
    multiplier unknown and keeps the relative accuracy of the gradient.
    The least-squares cutoff ``_QP_CUTOFF`` drops curvature below the
    accuracy of ``Q``; a gradient left in the dropped directions marks a ridge,
    along which the objective only rises, so it is followed to the boundary.
    A face of two weights, ``i0`` and ``r``, is solved in closed form on
    Python floats, bit for bit what LAPACK's least squares returns for a 1x1
    system of normal magnitude: the gradient times the reciprocal curvature,
    or 0 when the curvature is 0.  Its step ``s`` moves ``s`` onto ``r`` and
    off ``i0``, and is applied to the two weights in place; every other
    weight is 0 and stays so.  Once every weight is free, a step that drops
    none ends the solve without pricing.
    """
    w = w.copy()
    free = w > 0.0
    # Each pass adds or drops one objective; the cap stops cycling on ties.
    for _ in range(4 * w.size):
        face = free.nonzero()[0]
        grad = c - Q @ w
        if face.size == 2:
            # i0 is the larger weight, the first of a tie, as argmax picks it.
            a, b = face.tolist()
            i0, r = (a, b) if w.item(a) >= w.item(b) else (b, a)
            g = grad.item(r) - grad.item(i0)
            q = Q.item(r, r) - Q.item(r, i0) - Q.item(i0, r) + Q.item(i0, i0)
            step = g * (1.0 / q) if q != 0.0 else 0.0
            flat = g - q * step
            ridge = abs(flat) > _QP_CUTOFF * abs(g)
            s = flat if ridge else step
            # The step is s on r and -s on i0: j shrinks, o grows.
            j, o = (i0, r) if s > 0.0 else (r, i0)
            limit = w.item(j) / abs(s) if s != 0.0 else math.inf
            if ridge or limit < 1.0:
                w[o] = max(w.item(o) + limit * abs(s), 0.0)
                w[j] = 0.0
                free[j] = False
                continue
            w[r], w[i0] = max(w.item(r) + s, 0.0), max(w.item(i0) - s, 0.0)
        elif face.size > 2:
            i0 = face[w[face].argmax()]
            rest = face[face != i0]
            g = grad[rest] - grad[i0]
            # Kept in C order: ``q @ step`` rounds differently on a transposed q.
            q = (Q[rest[:, None], rest] - Q[rest, i0][:, None] - Q[i0, rest][None, :]
                 + Q[i0, i0])
            step = np.linalg.lstsq(q, g, rcond=_QP_CUTOFF)[0]
            flat = g - q @ step
            ridge = math.sqrt(flat.dot(flat)) > _QP_CUTOFF * math.sqrt(g.dot(g))
            d = np.zeros(w.size)
            d[rest] = flat if ridge else step
            d[i0] = -d[rest].sum()
            shrink = (d < 0.0).nonzero()[0]
            limits = -w[shrink] / d[shrink]
            if ridge or (shrink.size and limits.min() < 1.0):
                # Stop at the first weight to reach zero and drop it.
                k = limits.argmin()
                w = np.maximum(w + limits[k] * d, 0.0)
                w[shrink[k]] = 0.0
                free[shrink[k]] = False
                continue
            w = np.maximum(w + d, 0.0)
        if all(free.tolist()):
            break
        if face.size > 1:
            grad = c - Q @ w
        # Stationary on the face: price the others (NaN in grad makes w @ grad NaN).
        out = (~free).nonzero()[0]
        priced = grad[out]
        if max(priced.tolist()) <= w @ grad:
            break
        free[out[priced.argmax()]] = True
    return w


def _solve_dual(model: _Model, cfg: SubproblemConfig, warm: Optional[Array]) -> tuple:
    """Newton ascent on the concave, piecewise quadratic dual from the simplex
    weights ``warm`` (uniform when ``None``), to a certified gap or a
    :class:`SubproblemError`.

    The dual supergradient at ``lam`` is ``b`` (envelope theorem), and its Jacobian
    ``G dz/dlam`` is the generalized dual Hessian ``-G D G^T / L``, with ``D`` the
    prox's own derivative: exact for the zero and l1 terms, where one or a few rounds
    end the solve, and forward differences for other parts.  The solve ends once the
    best gap is within its rounding floor, ``_ROUNDING`` times the size
    ``3 ||G|| (||y|| + ||G|| / L) + max |f(y) - F(x)|`` of the terms of ``b``
    (``||G||^2 / L`` bounds the cancellation in ``G^T lam``).  One count, ``stale``,
    of idle rounds, which neither raise the dual nor lower the best gap, schedules
    every round: after 0-1 idle rounds a Newton round maximizes the quadratic model at
    the last point evaluated; after 2-11 the solve takes ``2**(1 - stale)`` of the
    last improving step, a half down to ``2**-10``; the twelfth ends the solve, as do
    a non-finite gap or curvature and ``_MAX_EVALS`` evaluations.  Returns the best
    evaluation ``(weights, z, primal, gap, step)`` as a plain tuple: only
    :func:`solve_subproblem` builds a :class:`SubproblemSolution`.  A gap there above
    both the floor and ``cfg.tol * (1 + |primal|)`` raises.
    """
    # np.vdot: np.linalg.norm is several times slower at small n, math.hypot at large n.
    gg = math.sqrt(np.vdot(model.grads, model.grads))
    floor = _ROUNDING * (3.0 * gg * (math.sqrt(np.vdot(model.y, model.y)) + gg / model.L)
                         + max(map(abs, model.offsets.tolist())))

    w = warm if warm is not None else np.full(model.fy.size, 1.0 / model.fy.size)
    top_q, primal, gap, z, b, v, step = model.evaluate(w)
    best, evals, stale = (w, z, primal, gap, step), 1, 0
    while floor < best[3] < math.inf and evals < _MAX_EVALS and stale < 12:
        if stale < 2:
            # Newton round: maximize the quadratic model at the last evaluation.
            jac = model.grads @ model.g.prox_jvp(1.0 / model.L, v, z, model.grads.T / -model.L)
            if not all(map(math.isfinite, jac.ravel().tolist())):
                break
            curv = -0.5 * (jac + jac.T)
            target = _simplex_qp(b + curv @ w, curv, w)
            if not stale:
                lam, aim = w, target
        else:
            # Idle rounds: halve the last improving step, down to 2**-10.
            alpha = 0.5 ** (stale - 1)
            target = (1.0 - alpha) * lam + alpha * aim
        w = target
        q, primal, gap, z, b, v, step = model.evaluate(w)
        evals += 1
        stale = 0 if q > top_q or gap < best[3] else stale + 1
        top_q = max(top_q, q)
        if gap < best[3]:
            best = (w, z, primal, gap, step)
    if best[3] > max(floor, cfg.tol * (1.0 + abs(best[2]))):
        raise SubproblemError(f"dual gap {best[3]:.3e} above tolerance")
    return best


def solve_subproblem(x: Array, y: Array, L: float, p: ProblemInstance,
                     cfg: Optional[SubproblemConfig] = None,
                     warm_weights: Optional[Array] = None) -> SubproblemSolution:
    """Solve one worst-case prox-linear step to a certified dual gap.

    ``warm_weights``, when given, of shape ``(p.m,)``, are projected onto the
    simplex and seed the dual solve; the solver keeps no state between calls.
    When ``y`` equals ``x`` in value one ``f`` call serves both points.
    """
    if warm_weights is not None and np.shape(warm_weights) != (p.m,):
        raise ValueError(f"warm weights shape {np.shape(warm_weights)}, expected {(p.m,)}")
    warm = project_simplex(warm_weights) if warm_weights is not None else None
    fx, Fx = _evaluate(p, x)
    model = _linearize(y, L, p, Fx, fx if np.array_equal(x, y) else None)
    weights, z, primal, gap, _ = _solve_dual(model, cfg or SubproblemConfig(), warm)
    return SubproblemSolution(z, primal, weights, gap)


def weak_pareto_residual(x: Array, y: Array, L: float, p: ProblemInstance,
                         cfg: Optional[SubproblemConfig] = None) -> float:
    """Sup-norm step length ``||z(x, y) - y||_inf``; zero exactly at weakly
    Pareto points."""
    sol = solve_subproblem(x, y, L, p, cfg)
    return float(np.max(np.abs(sol.z - np.asarray(y, dtype=float))))
