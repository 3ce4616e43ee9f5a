"""Reference oracles of the prox-linear subproblem and the upper-bound test.

Written from the definitions, with no code shared with ``mofista.subproblem``
or ``mofista.solver`` beyond the problem's own oracles and the least-squares
cutoff ``_QP_CUTOFF``, so the tests that check the solvers against them (grid
searches, duality sandwiches, KKT residuals, least-squares active-set
solves) compare two independent computations.  The model at ``(x, y, L)``
is

    phi(z) = max_i [<grad f_i(y), z - y> + f_i(y) - F_i(x)] + g(z) + L/2 ||z - y||^2,

and its dual at simplex weights ``lam`` is the weighted Lagrangian at
``z(lam) = prox_{g/L}(y - grad f(y)^T lam / L)``.
"""

import math

import numpy as np

from mofista.problems import evaluate_objectives
from mofista.subproblem import _QP_CUTOFF


def _checked(L):
    if not L > 0.0:
        raise ValueError("step constant L must be positive")
    return float(L)


def _terms(z, x, y, L, p):
    """Inner linear terms ``b_i(z) - g(z)`` and the shared rest
    ``g(z) + L/2 ||z - y||^2`` of the model at ``z``."""
    L = _checked(L)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    grads = np.asarray(p.smooth_jac(y), dtype=float)
    offsets = np.asarray(p.smooth(y), dtype=float) - evaluate_objectives(p, x)
    d = z - y
    return grads @ d + offsets, p.nonsmooth.value(z) + 0.5 * L * float(d @ d)


def subproblem_objective(z, x, y, L, p):
    """Model value ``phi(z)`` at an arbitrary candidate ``z``."""
    linear, rest = _terms(z, x, y, L, p)
    return float(np.max(linear)) + rest


def inner_primal_step(weights, y, L, p):
    """Closed-form inner minimizer ``z(weights)`` for fixed simplex weights."""
    L = _checked(L)
    y = np.asarray(y, dtype=float)
    grads = np.asarray(p.smooth_jac(y), dtype=float)
    weights = np.asarray(weights, dtype=float)
    return p.nonsmooth.prox(1.0 / L, y - (grads.T @ weights) / L)


def model_evaluation(weights, x, y, L, p):
    """``(dual, primal, gap, z, linear)`` at ``weights``: the weighted and the
    worst inner term at ``z(weights)`` plus the shared rest, their
    difference, the point and the inner terms."""
    weights = np.asarray(weights, dtype=float)
    z = inner_primal_step(weights, y, L, p)
    linear, rest = _terms(z, x, y, L, p)
    top = float(linear.max())
    avg = float(weights @ linear)
    return avg + rest, top + rest, top - avg, z, linear


def dual_value(weights, x, y, L, p):
    """Dual function: the weighted Lagrangian evaluated at ``z(weights)``."""
    return model_evaluation(weights, x, y, L, p)[0]


def kkt_residual(sol, x, y, L, p):
    """Stationarity residual ``L ||sol.z - z(sol.weights)||`` of a reported
    solution: the model gradient at ``sol.z`` with the subgradient of ``g``
    that the prox recovers at the reported weights.  Zero at exact
    solutions, it grows linearly when ``sol.z`` is perturbed."""
    zhat = inner_primal_step(sol.weights, y, L, p)
    return float(L * np.linalg.norm(np.asarray(sol.z, dtype=float) - zhat))


def sufficient_decrease_check(p, y, z, L):
    """Quadratic upper bound on the smooth parts at the trial step: true iff
    ``f_i(z) <= f_i(y) + <grad f_i(y), z - y> + (L/2) ||z - y||^2 + s_i``
    for every objective, with the slack the solver's line search allows, a
    rounding bound on the terms compared:
    ``s_i = 16 eps (|f_i(z)| + |f_i(y)| + |<grad f_i(y), z - y>| + (L/2) ||z - y||^2)``."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    fy = np.asarray(p.smooth(y), dtype=float)
    fz = np.asarray(p.smooth(z), dtype=float)
    grads = np.asarray(p.smooth_jac(y), dtype=float)
    d = z - y
    gd = grads @ d
    c = 0.5 * L * float(d @ d)
    slack = 16.0 * np.finfo(float).eps * (np.abs(fz) + np.abs(fy) + np.abs(gd) + c)
    return bool(np.all(fz <= fy + gd + c + slack))


def simplex_qp_lstsq(c, Q, w, faces=None):
    """Reference for ``_simplex_qp``: the same active-set method with the
    least-squares cutoff solve on every face, faces of one and two weights
    too; the size of each face it solves on is appended to ``faces`` when given."""
    w = w.copy()
    free = w > 0.0
    for _ in range(4 * w.size):
        face = np.flatnonzero(free)
        i0 = face[np.argmax(w[face])]
        rest = face[face != i0]
        grad = c - Q @ w
        if faces is not None:
            faces.append(face.size)
        if rest.size:
            g = grad[rest] - grad[i0]
            q = (Q[np.ix_(rest, rest)] - Q[rest, i0][:, None] - Q[i0, rest][None, :]
                 + Q[i0, i0])
            step = np.linalg.lstsq(q, g, rcond=_QP_CUTOFF)[0]
            flat = g - q @ step
            ridge = math.hypot(*flat.tolist()) > _QP_CUTOFF * math.hypot(*g.tolist())
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
