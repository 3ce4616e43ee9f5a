"""Accelerated proximal gradient loop with backtracking line search.

Each iteration takes a worst-case prox-linear step from an extrapolated
point ``y`` with trial constant ``L``.  The momentum recurrence carries the
step-constant ratio ``omega = L_new / L_old``:

.. math:: t_{+} = \\frac{1 + \\sqrt{1 + 4\\,\\omega\\, t^2}}{2}, \\qquad
          \\theta_{+} = \\frac{t - 1}{t_{+}}, \\qquad
          y_{+} = x + \\theta_{+} (x - x_{-}) .

One trial at ``(t, y, L)`` solves the subproblem from the last iteration's
weights; the dual solve returns ``z`` with the step ``d = z - y``, ``||d||^2``,
``grad f(y) d`` and ``g(z)`` it computed; the residual is ``||d||_inf``.  Only
``BACKTRACKING`` tests the quadratic upper bound on the smooth parts at ``d``,
and it keeps the curvature ``L_seen = max_i 2 (f_i(z) - f_i(y) - <grad f_i(y),
d>) / ||d||^2`` (0 if ``d = 0``) of the trial it accepts.  The line search
first deflates ``L`` by at most ``1/sigma``, to the largest ``L_seen`` of the
last six accepted iterations rounded up to a quarter power of ``beta`` (a ratio
within 1e-6 of one stays on it), off the bound where rounding decides the test,
then inflates by ``beta`` until a trial passes; each inflation rescales
``omega`` and rebuilds ``(t, y)``, so accepted iterations keep ``t (t - 1) / L
= t_prev^2 / L_prev`` exactly.

Seeding ``t_prev = 0`` makes the first iteration use ``t = 1`` and
``y = x0`` regardless of retries, so backtracking at the start only adjusts
``L``.

All variants start from ``L = L_init``, run one trial loop and differ in two
flags: ``L`` deflates then inflates (``BACKTRACKING``), and momentum
extrapolates (all but ``PGM``).  No oracle is called twice at one point.
``f(x)`` carries over with ``F(x)``.  An iteration where ``y`` equals ``x``
(each one of ``PGM``, the first two of the others) makes one ``grad f``
call for all its trials and takes ``f(y) = f(x)``; other trials call both
at ``y``.  Each trial calls ``f(z)`` unless its step is exactly zero.

Every stop returns a :class:`SolveResult` with its :class:`Status` and reason.
"""

from __future__ import annotations

import enum
import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problems import Array, EvaluationError, ProblemInstance, _evaluate, _is_number
from .subproblem import (_ROUNDING, SubproblemConfig, SubproblemError, _linearize,
                         _solve_dual, project_simplex)

__all__ = [
    "Variant",
    "SolverConfig",
    "IterationRecord",
    "RunTrace",
    "Status",
    "SolveResult",
    "fista_step",
    "run_solver",
]

_MAX_BACKTRACKS = 100
_WINDOW = 6  # accepted iterations whose largest L_seen the first trial aims at


def _check_real(value, name: str, low: float = 0.0, error: type = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a real number above ``low`` and finite."""
    if not (_is_number(value, numbers.Real) and low < value < np.inf):
        bound = "positive" if low == 0.0 else f"above {low:g}"
        raise error(f"{name} must be {bound} and finite, got {value!r}")


class Variant(enum.Enum):
    """The step rule, valued by its CLI solver name.  ``BACKTRACKING`` deflates
    ``L`` by at most ``1/sigma`` toward the largest curvature of the last six
    steps on a quarter-power grid and inflates it by ``beta``; ``FIXED`` holds
    it with full momentum (``omega = 1``); ``PGM`` with none (``y = x``, ``t = 1``)."""

    BACKTRACKING = "backtracking"
    FIXED = "fixed"
    PGM = "pgm"


@dataclass(frozen=True)
class SolverConfig:
    """``L_init`` is the step constant, backtracking's first trial or the held
    step of the others; ``beta`` and ``sigma`` are backtracking's inflation
    factor and largest deflation.  ``variant`` takes a :class:`Variant` or its name."""

    L_init: float = 1.0
    beta: float = 2.0
    sigma: float = 2.0
    eps: float = 1e-3
    max_iter: int = 1000
    variant: Variant = Variant.BACKTRACKING
    subproblem: SubproblemConfig = field(default_factory=SubproblemConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        for name, low in (("L_init", 0.0), ("beta", 1.0), ("sigma", 1.0), ("eps", 0.0)):
            _check_real(getattr(self, name), name, low)
        if not _is_number(self.max_iter) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted iteration; enough to replay every trace diagnostic."""

    k: int
    L: float
    backtracks: int
    residual: float
    t: float
    y: Array
    x: Array
    objectives: Array
    dual_gap: float
    wall_ms: float


@dataclass(frozen=True)
class RunTrace:
    x0: Array
    objectives0: Array
    records: tuple[IterationRecord, ...]

    def iterates(self) -> Array:
        """Stacked ``(len(records) + 1, n)`` array starting at ``x0``."""
        return np.vstack([self.x0] + [r.x for r in self.records])

    def objective_rows(self) -> Array:
        return np.vstack([self.objectives0] + [r.objectives for r in self.records])


class Status(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    SUBPROBLEM_FAILURE = "subproblem_failure"  # the dual solve did not certify its gap
    BACKTRACK_LIMIT = "backtrack_limit"  # 100 inflations within one iteration
    NON_FINITE = "non_finite"  # at x0 or at the trial an iteration accepted


@dataclass(frozen=True)
class SolveResult:
    x: Array
    status: Status
    trace: RunTrace
    reason: str  # empty on CONVERGED, why the run stopped otherwise


def fista_step(x_prev: Array, x_prev2: Array, t_prev: float, omega: float):
    """Momentum update producing ``(t, y)`` for the next iteration.

    ``x_prev`` is the most recent accepted iterate, ``x_prev2`` the one
    before it.  With ``t_prev = 0`` this yields ``t = 1`` and ``(t_prev - 1) /
    t = -1``, i.e. ``y = x_prev2``, which seeds the very first iteration.
    """
    t = (1.0 + np.sqrt(1.0 + 4.0 * omega * t_prev * t_prev)) / 2.0
    return t, x_prev + (t_prev - 1.0) / t * (x_prev - x_prev2)


def _upper_bound_holds(fy: Array, gd: Array, dd: float, fz: Array, L: float) -> bool:
    """Quadratic upper bound on the smooth parts at the trial step ``d``:
    ``f(y + d) <= f(y) + gd + (L/2) dd`` componentwise, from ``fy = f(y)``,
    ``fz = f(y + d)``, ``gd = grad f(y) @ d`` and ``dd = ||d||^2``; the shared
    nonsmooth term cancels.  The slack ``16 eps (|f(z)| + |f(y)| + |gd| +
    (L/2) dd)`` bounds the rounding of both sides, so a bound that holds in
    exact arithmetic does not fail on cancellation noise near convergence,
    which would inflate ``L`` past its provable cap; a fixed ``1e-12 (1 +
    |f(y)|)`` grew with a constant added to ``f``, so shifted runs accepted
    trials that overshot by more than rounding.  The ``m`` components are
    compared as Python floats, the same IEEE operations as numpy's without its calls."""
    c = 0.5 * L * dd
    return all(a <= b + g + c + 4.0 * _ROUNDING * (abs(a) + abs(b) + abs(g) + c)
               for a, b, g in zip(fz.tolist(), fy.tolist(), gd.tolist()))


def run_solver(p: ProblemInstance, x0: Array, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Run one solver variant from ``x0`` until the weak-Pareto residual
    drops below ``cfg.eps`` or another :class:`Status` ends the run.

    Deterministic: identical ``(p, x0, cfg)`` reproduce the trace exactly
    apart from wall-clock fields.  Every stop returns the trace up to the last
    accepted iterate ``x`` and, unless ``CONVERGED``, a ``reason``; a non-finite
    ``F(x0)`` gives ``NON_FINITE``, ``x = x0``, no records and all-NaN
    ``objectives0``.  Raises ``ValueError`` unless ``x0`` has shape ``(p.n,)``.
    """
    cfg = cfg or SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    try:
        fx, objectives0 = _evaluate(p, x0)
    except EvaluationError as exc:
        return SolveResult(x0, Status.NON_FINITE, RunTrace(x0, np.full(p.m, np.nan), ()), str(exc))

    # The variants differ only in these two flags.
    adaptive = cfg.variant is Variant.BACKTRACKING
    momentum = cfg.variant is not Variant.PGM
    L_prev = cfg.L_init
    x, x_prev, t_prev, Fx = x0, x0, 0.0, objectives0
    records: list[IterationRecord] = []
    warm: Optional[Array] = None
    window: deque = deque(maxlen=_WINDOW)  # L_seen of the last accepted iterations

    for k in range(1, cfg.max_iter + 1):
        tick = time.perf_counter()
        ratio = min(1.0, max(window, default=0.0) / L_prev)  # a trial under it would likely fail
        omega = (max(1.0 / cfg.sigma,
                     cfg.beta ** (math.ceil(4.0 * math.log(ratio, cfg.beta) - 1e-6) / 4.0))
                 if ratio > 0.0 else 1.0 / cfg.sigma) if adaptive else 1.0
        backtracks, anchored, model = 0, not momentum or k <= 2, None
        try:
            while backtracks <= _MAX_BACKTRACKS:
                L = omega * L_prev
                t, y = fista_step(x, x_prev, t_prev, omega) if momentum else (1.0, x)
                # Anchored trials share one model, built at y: x's zeros may differ in sign.
                model = (model._replace(L=L) if anchored and model is not None
                         else _linearize(y, L, p, Fx, fx if anchored else None))
                weights, z, _, gap, (d, dd, gd, gz) = _solve_dual(model, cfg.subproblem, warm)
                # An exactly zero step has f(z) = f(y) without a call.
                fz = np.asarray(p.smooth(z), dtype=float) if dd > 0.0 or d.any() else model.fy
                if not adaptive or _upper_bound_holds(model.fy, gd, dd, fz, L):
                    break
                backtracks += 1
                omega *= cfg.beta
            else:
                status, reason = Status.BACKTRACK_LIMIT, (
                    f"line search exceeded {_MAX_BACKTRACKS} inflations at iteration"
                    f" {k}; gradients are likely not Lipschitz on this region")
                break
            fx, Fx = _evaluate(p, z, fz, gz)
        except (SubproblemError, EvaluationError) as exc:
            in_dual = isinstance(exc, SubproblemError)
            status, reason = Status.SUBPROBLEM_FAILURE if in_dual else Status.NON_FINITE, str(exc)
            break

        residual = float(np.maximum.reduce(abs(d)))
        records.append(IterationRecord(
            k=k, L=L, backtracks=backtracks, residual=residual, t=t, y=y, x=z, objectives=Fx,
            dual_gap=gap, wall_ms=(time.perf_counter() - tick) * 1e3))
        warm = project_simplex(weights)  # once for every trial of the next iteration
        if adaptive:  # L_seen of the accepted trial
            window.append(2.0 * max((fz - model.fy - gd).tolist()) / dd if dd > 0.0 else 0.0)
        x_prev, x, t_prev, L_prev = x, z, t, L
        if residual < cfg.eps:
            status, reason = Status.CONVERGED, ""
            break
    else:
        status, reason = Status.MAX_ITER, f"no residual below eps in max_iter = {cfg.max_iter}"

    return SolveResult(x, status, RunTrace(x0, objectives0, tuple(records)), reason)
