"""Worst-case prox-linear subproblem and its simplex dual.

One solver step minimizes, over ``z``, the model

.. math:: \\max_i \\big[\\langle \\nabla f_i(y), z - y\\rangle + g(z)
          + f_i(y) - F_i(x)\\big] + \\frac{L}{2}\\|z - y\\|^2 .

Exchanging min and max gives a concave dual over the probability simplex:
for weights ``lam`` the inner minimizer has the closed form

.. math:: z(\\lambda) = \\operatorname{prox}_{g/L}\\Big(
          y - \\tfrac{1}{L}\\textstyle\\sum_i \\lambda_i \\nabla f_i(y)\\Big),

so the dual is maximized by bisection on the sign of its derivative when
``m = 2`` (the derivative along the simplex edge is just the difference of
the two inner linear terms, so sign bisection certifies the maximum to
machine precision where value comparisons would stall at sqrt(eps)) and by
projected gradient ascent with Nesterov momentum and adaptive restarts when
``m >= 3``.  Both stop on a certified primal-dual gap, which for any trial
weights equals ``max_i b_i(z) - lam . b(z)`` with ``b`` the inner linear
terms, hence is available at every evaluation for free and without
cancellation.

Everything here is stateless; warm starts are passed in by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import Array, NonsmoothPart, ProblemInstance, evaluate_objectives

__all__ = [
    "SubproblemConfig",
    "SubproblemSolution",
    "SubproblemError",
    "project_simplex",
    "subproblem_objective",
    "inner_primal_step",
    "dual_value",
    "solve_subproblem",
    "kkt_residual",
    "weak_pareto_residual",
]

# Certified-gap safety factor: solve two orders of magnitude past the
# advertised tolerance so trace replays of the proved inequalities keep
# their absolute slack budgets.
_GAP_MARGIN = 1e-2


class SubproblemError(RuntimeError):
    """Inner solver did not certify the requested dual gap."""

    def __init__(self, message: str, z: Optional[Array] = None, gap: Optional[float] = None):
        super().__init__(message)
        self.z = z
        self.gap = gap


@dataclass(frozen=True)
class SubproblemConfig:
    """Inner-solver knobs.

    ``tol`` is a relative dual-gap tolerance: a solution is accepted once
    ``primal - dual <= tol * (1 + |primal|)``.
    """

    tol: float = 1e-10
    max_inner_iter: int = 10_000

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_inner_iter < 1:
            raise ValueError("max_inner_iter must be at least 1")


@dataclass(frozen=True)
class SubproblemSolution:
    """Solution of one worst-case prox-linear step.

    ``value`` is the optimal model value (negative away from weakly Pareto
    points, zero exactly there), ``weights`` the optimal simplex multipliers,
    ``active_set`` the objectives attaining the inner max at ``z``.
    """

    z: Array
    value: float
    weights: Array
    active_set: tuple[int, ...]
    kkt_residual: float
    dual_gap: float


def project_simplex(v: Array) -> Array:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    feasible = u - cumulative / ranks > 0.0
    rho = ranks[feasible][-1]
    shift = cumulative[rho - 1] / rho
    return np.maximum(v - shift, 0.0)


@dataclass(frozen=True)
class _Model:
    """Data of one subproblem, precomputed at (x, y, L)."""

    grads: Array    # (m, n) rows grad f_i(y)
    fy: Array       # (m,)   f_i(y)
    offsets: Array  # (m,)   f_i(y) - F_i(x)
    y: Array
    L: float
    g: NonsmoothPart

    def primal_point(self, weights: Array) -> Array:
        step = self.y - (self.grads.T @ weights) / self.L
        return self.g.prox(1.0 / self.L, step)

    def evaluate(self, weights: Array) -> tuple[float, float, float, Array, Array]:
        """Dual value, primal value and certified gap at ``weights``.

        Returns ``(dual, primal, gap, z, linear)`` where ``linear`` holds the
        inner terms ``b_i(z) - g(z)``; the gap ``max(b) - weights . b`` equals
        the primal-dual difference exactly because the shared ``g`` and the
        quadratic cancel.
        """
        z = self.primal_point(weights)
        d = z - self.y
        linear = self.grads @ d + self.offsets
        rest = self.g.value(z) + 0.5 * self.L * float(d @ d)
        top = float(np.max(linear))
        avg = float(weights @ linear)
        return avg + rest, top + rest, top - avg, z, linear


def _linearize(y: Array, L: float, p: ProblemInstance, Fx: Array) -> _Model:
    """Model at ``(y, L)`` from one ``grad f`` and one ``f`` call at ``y``,
    against objective values ``Fx = F(x)`` the caller already holds."""
    if not L > 0.0:
        raise ValueError("step constant L must be positive")
    y = np.asarray(y, dtype=float)
    grads = np.asarray(p.smooth_jac(y), dtype=float)
    if grads.shape != (p.m, p.n):
        raise ValueError(f"jacobian shape {grads.shape}, expected {(p.m, p.n)}")
    fy = np.asarray(p.smooth(y), dtype=float)
    return _Model(grads, fy, fy - Fx, y, float(L), p.nonsmooth)


def _model_at(x: Array, y: Array, L: float, p: ProblemInstance) -> _Model:
    return _linearize(y, L, p, evaluate_objectives(p, x))


def subproblem_objective(z: Array, x: Array, y: Array, L: float, p: ProblemInstance) -> float:
    """Model value at an arbitrary candidate ``z``."""
    model = _model_at(x, y, L, p)
    z = np.asarray(z, dtype=float)
    d = z - model.y
    linear = model.grads @ d + model.offsets
    return float(np.max(linear)) + model.g.value(z) + 0.5 * model.L * float(d @ d)

def inner_primal_step(weights: Array, y: Array, L: float, p: ProblemInstance) -> Array:
    """Closed-form inner minimizer ``z(weights)`` for fixed simplex weights."""
    if not L > 0.0:
        raise ValueError("step constant L must be positive")
    weights = np.asarray(weights, dtype=float)
    grads = np.asarray(p.smooth_jac(np.asarray(y, dtype=float)), dtype=float)
    step = np.asarray(y, dtype=float) - (grads.T @ weights) / L
    return p.nonsmooth.prox(1.0 / L, step)


def dual_value(weights: Array, x: Array, y: Array, L: float, p: ProblemInstance) -> float:
    """Dual function: the weighted Lagrangian evaluated at ``z(weights)``."""
    model = _model_at(x, y, L, p)
    dual, _, _, _, _ = model.evaluate(np.asarray(weights, dtype=float))
    return dual


def _finish(model: _Model, weights: Array) -> SubproblemSolution:
    _, primal, gap, z, linear = model.evaluate(weights)
    top = float(np.max(linear))
    tol_active = 1e-7 * (1.0 + abs(top))
    active = tuple(int(i) for i in np.flatnonzero(linear >= top - tol_active))
    residual = _kkt_residual_model(model, weights, z)
    return SubproblemSolution(z, primal, weights, active, residual, gap)


def _kkt_residual_model(model: _Model, weights: Array, z: Array) -> float:
    mix = model.grads.T @ weights
    step = model.y - mix / model.L
    zhat = model.g.prox(1.0 / model.L, step)
    subgrad = model.L * (step - zhat)
    return float(np.linalg.norm(mix + model.L * (z - model.y) + subgrad))


def _solve_two(model: _Model, cfg: SubproblemConfig, stop: float,
               warm: Optional[Array]) -> SubproblemSolution:
    """Derivative-sign bisection on the concave dual over the 1-simplex.

    With weights ``(s, 1-s)`` the dual derivative in ``s`` is
    ``h(s) = b_1(z(s)) - b_2(z(s))`` (envelope theorem), nonincreasing by
    concavity.  The certified gap at a probe is ``(1-s) h`` or ``-s h``
    depending on the sign, so driving ``h`` through zero drives the gap to
    the rounding floor; comparing dual *values* instead would stall once the
    flat top of the parabola-like dual underflows.
    """

    def weights_of(s: float) -> Array:
        return np.array([s, 1.0 - s])

    best_s, best_rel = 0.5, math.inf

    def probe(s: float):
        nonlocal best_s, best_rel
        _, primal, gap, _, linear = model.evaluate(weights_of(s))
        rel = gap / (1.0 + abs(primal))
        if rel < best_rel:
            best_s, best_rel = s, rel
        return float(linear[0] - linear[1]), rel

    # Endpoint optima certify exactly: a nonpositive slope at s=0 (or
    # nonnegative at s=1) puts all weight on one objective with zero gap.
    h_lo, rel = probe(0.0)
    if h_lo <= 0.0 or rel <= stop:
        return _finish(model, weights_of(best_s))
    h_hi, rel = probe(1.0)
    if h_hi >= 0.0 or rel <= stop:
        return _finish(model, weights_of(best_s))
    lo, hi = 0.0, 1.0
    for _ in range(cfg.max_inner_iter):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        h_mid, rel = probe(mid)
        if rel <= stop:
            break
        if h_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return _finish(model, weights_of(best_s))


def _solve_many(model: _Model, cfg: SubproblemConfig, stop: float,
                warm: Optional[Array]) -> SubproblemSolution:
    """Momentum ascent stages alternating with face-Newton polish.

    Projected gradient ascent (dual supergradient = the inner linear terms,
    by the envelope theorem) with Nesterov momentum, backtracked step size,
    and function-value restarts localizes the maximizer quickly but zigzags
    once dual-value differences underflow, stalling around a sqrt(eps)
    relative gap.  The polish stage then takes over: it guesses the active
    face from the linear-term spread, builds the face-restricted dual
    Hessian by finite differences of the linear terms, and applies Newton
    steps projected back onto the simplex.  The dual Hessian has rank at
    most ``n``, so with more active objectives than variables the face
    system is singular; the Newton direction comes from a least-squares
    solve with a singular-value cutoff, and every trial point must strictly
    increase the dual value (with step halving) before it is accepted.
    Directions the cutoff discards are ridges along which the dual is
    linear; a doubling projected-supergradient search walks them until the
    simplex boundary clips the descent coordinate exactly, after which the
    shrunken face is curved again and Newton contracts quadratically to a
    gap at the rounding floor.  Stages alternate until the budget runs out
    or a full cycle brings no progress.
    """
    m = model.grads.shape[0]
    lam = project_simplex(np.asarray(warm, dtype=float)) if warm is not None \
        else np.full(m, 1.0 / m)
    spectral = float(np.linalg.norm(model.grads, 2))
    base_eta = model.L / max(spectral * spectral, 1e-12)

    evals = 0
    best_lam, best_rel = lam, math.inf

    def measure(w: Array) -> tuple[float, float, Array, bool]:
        """Evaluate simplex-feasible weights, tracking the best certified gap."""
        nonlocal evals, best_lam, best_rel
        evals += 1
        dual, primal, gap, _, linear = model.evaluate(w)
        rel = gap / (1.0 + abs(primal))
        if rel < best_rel:
            best_lam, best_rel = w, rel
        return dual, gap, linear, rel <= stop

    def ascent(lam: Array, budget: int) -> tuple[Array, bool]:
        nonlocal evals
        q_lam, _, linear, done = measure(lam)
        if done:
            return lam, True
        eta = base_eta
        momentum, t_acc = lam, 1.0
        q_point, linear_point = q_lam, linear
        spent = 0
        while spent < budget and evals < cfg.max_inner_iter:
            grad = linear_point
            lam_prev, q_prev = lam, q_lam
            for _ in range(60):
                candidate = project_simplex(momentum + eta * grad)
                q_new, _, linear, done = measure(candidate)
                spent += 1
                if done:
                    return candidate, True
                diff = candidate - momentum
                bound = q_point + float(grad @ diff) - float(diff @ diff) / (2.0 * eta)
                if q_new >= bound - 1e-15 * (1.0 + abs(q_new)):
                    break
                eta *= 0.5
            lam, q_lam = candidate, q_new
            if q_lam < q_prev:
                # momentum overshoot: restart from the last accepted weights
                t_acc = 1.0
                momentum = lam
            else:
                t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
                momentum = lam + ((t_acc - 1.0) / t_next) * (lam - lam_prev)
                t_acc = t_next
            # momentum may leave the simplex; the dual formula extends there
            q_point, _, _, _, linear_point = model.evaluate(momentum)
            evals += 1
            eta *= 1.3
        return lam, False

    def ray(lam: Array, q0: float, grad: Array) -> tuple[Array, bool, bool]:
        """Monotone projected-supergradient search with doubling steps."""
        alpha, cur_q, cur, improved = base_eta, q0, lam, False
        for _ in range(40):
            if evals >= cfg.max_inner_iter:
                break
            cand = project_simplex(lam + alpha * grad)
            alpha *= 2.0
            if np.array_equal(cand, cur):
                continue
            q_new, _, _, done = measure(cand)
            if done:
                return cand, True, True
            if q_new > cur_q:
                cur_q, cur, improved = q_new, cand, True
            else:
                break
        return cur, improved, False

    def polish(lam: Array) -> tuple[Array, bool]:
        nonlocal evals
        lam = project_simplex(lam)
        for _ in range(12):
            q0, gap0, linear0, done = measure(lam)
            if done:
                return lam, True
            top = float(np.max(linear0))
            span = max(10.0 * gap0, 1e-9 * (1.0 + abs(top)))
            face = np.union1d(np.flatnonzero(linear0 >= top - span),
                              np.flatnonzero(lam > 1e-10))
            if face.size == 1:
                vertex = np.zeros(m)
                vertex[face[0]] = 1.0
                if np.array_equal(vertex, lam):
                    return lam, False
                lam = vertex
                continue
            i0, rest = face[0], face[1:]
            h = 1e-7
            reduced_grad = linear0[rest] - linear0[i0]
            hess = np.empty((rest.size, rest.size))
            for k, j in enumerate(rest):
                w = lam.copy()
                w[j] += h
                w[i0] -= h
                _, _, _, _, l_h = model.evaluate(w)
                evals += 1
                col = (l_h - linear0) / h
                hess[:, k] = col[rest] - col[i0]
            curv = -0.5 * (hess + hess.T)
            step = np.linalg.lstsq(curv, reduced_grad, rcond=1e-7)[0]
            flat = reduced_grad - curv @ step

            def embed(vec: Array) -> Array:
                out = np.zeros(m)
                out[rest] = vec
                out[i0] = -float(np.sum(vec))
                return out

            base = lam.copy()
            base[np.setdiff1d(np.arange(m), face)] = 0.0
            newton_dir = embed(step)
            accepted = False
            scale = 1.0
            for _ in range(14):
                if evals >= cfg.max_inner_iter:
                    break
                trial = project_simplex(base + scale * newton_dir)
                if np.array_equal(trial, lam):
                    break
                q_new, _, _, done = measure(trial)
                if done:
                    return trial, True
                if q_new > q0:
                    lam, accepted = trial, True
                    break
                scale *= 0.5
            if accepted:
                continue
            # Newton covers the curved subspace only; the least-squares
            # residual of the gradient spans the directions the cutoff
            # discarded, where the dual is linear.  Ride it to the simplex
            # boundary, then fall back to the raw supergradient.
            moved = False
            if float(np.linalg.norm(flat)) > \
                    1e-15 * (1.0 + float(np.linalg.norm(reduced_grad))):
                lam2, improved, done = ray(base, q0, embed(flat))
                if done:
                    return lam2, True
                if improved:
                    lam, moved = lam2, True
            if not moved:
                lam2, improved, done = ray(lam, q0, linear0)
                if done:
                    return lam2, True
                if improved:
                    lam, moved = lam2, True
            if not moved:
                return lam, False
        return lam, False

    stage = 60
    stalls = 0
    while evals < cfg.max_inner_iter:
        rel_before = best_rel
        lam, done = ascent(best_lam, stage)
        if done:
            return _finish(model, lam)
        lam, done = polish(lam)
        if done:
            return _finish(model, lam)
        # Deterministic restarts retread the same trajectory; once two full
        # cycles fail to sharpen the certificate, more budget will not help.
        stalls = stalls + 1 if best_rel >= 0.999 * rel_before else 0
        if stalls >= 2:
            break
    _, _, gap, z, _ = model.evaluate(best_lam)
    raise SubproblemError(
        f"inner ascent stalled at a certified gap of {gap:.3e} "
        f"after {evals} dual evaluations",
        z=z, gap=gap,
    )


def solve_subproblem(x: Array, y: Array, L: float, p: ProblemInstance,
                     cfg: Optional[SubproblemConfig] = None,
                     warm_weights: Optional[Array] = None) -> SubproblemSolution:
    """Solve one worst-case prox-linear step to a certified dual gap.

    ``warm_weights``, when given, seed the ascent for ``m >= 3``; the solver
    itself keeps no state between calls.
    """
    return _solve_model(_model_at(x, y, L, p), cfg or SubproblemConfig(), warm_weights)


def _solve_model(model: _Model, cfg: SubproblemConfig,
                 warm_weights: Optional[Array]) -> SubproblemSolution:
    """Solve an already built model; dispatches on the objective count."""
    stop = cfg.tol * _GAP_MARGIN  # solve past the advertised relative gap
    m = model.grads.shape[0]
    if m == 1:
        return _finish(model, np.array([1.0]))
    sol = (_solve_two if m == 2 else _solve_many)(model, cfg, stop, warm_weights)
    if sol.dual_gap > cfg.tol * (1.0 + abs(sol.value)):
        raise SubproblemError(
            f"dual gap {sol.dual_gap:.3e} above tolerance", z=sol.z, gap=sol.dual_gap
        )
    return sol


def kkt_residual(sol: SubproblemSolution, x: Array, y: Array, L: float,
                 p: ProblemInstance) -> float:
    """Stationarity residual of a reported solution.

    The nonsmooth subgradient is recovered from the prox optimality relation
    at the reported weights, so the residual is zero at exact solutions and
    grows linearly when ``sol.z`` is perturbed.
    """
    model = _model_at(x, y, L, p)
    return _kkt_residual_model(model, np.asarray(sol.weights, dtype=float),
                               np.asarray(sol.z, dtype=float))


def weak_pareto_residual(x: Array, y: Array, L: float, p: ProblemInstance,
                         cfg: Optional[SubproblemConfig] = None) -> float:
    """Sup-norm step length ``||z(x, y) - y||_inf``; zero exactly at weakly
    Pareto points."""
    sol = solve_subproblem(x, y, L, p, cfg)
    return float(np.max(np.abs(sol.z - np.asarray(y, dtype=float))))
