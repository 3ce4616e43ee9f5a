"""Composite multiobjective problems with a shared nonsmooth term.

A problem instance collects ``m`` objectives of the form

.. math:: F_i(x) = f_i(x) + g(x), \\qquad i = 1, \\dots, m,

where each :math:`f_i` is continuously differentiable with Lipschitz
continuous gradient and :math:`g` is convex, possibly nonsmooth, and shared
by every objective.  All instances are immutable and safe to share across
threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "EvaluationError",
    "NonsmoothPart",
    "Zero",
    "WeightedL1",
    "CustomNonsmooth",
    "ProblemInstance",
    "evaluate_objectives",
]


class EvaluationError(RuntimeError):
    """An objective evaluation produced a non-finite value."""

    def __init__(self, message: str, x: Array):
        super().__init__(message)
        self.x = np.asarray(x, dtype=float)


def _is_number(value, kind: type = numbers.Integral) -> bool:
    """A number of ``kind``, Python's or NumPy's; a bool does not count."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_step(t: float) -> None:
    if not t > 0.0:
        raise ValueError(f"prox step must be positive, got {t!r}")


class NonsmoothPart:
    """Shared convex nonsmooth term ``g``.

    Subclasses provide the function value and the step-scaled proximal
    operator

    .. math:: \\operatorname{prox}_{t g}(v)
              = \\operatorname*{argmin}_y\\; g(y) + \\frac{1}{2t}\\|v - y\\|^2.
    """

    def value(self, x: Array) -> float:
        raise NotImplementedError

    def prox(self, t: float, v: Array) -> Array:
        raise NotImplementedError

    def prox_jvp(self, t: float, v: Array, z: Array, dirs: Array) -> Array:
        """Directional derivatives ``(n, k)`` of ``prox_{tg}`` at ``v`` along
        the columns of ``dirs``, given ``z = prox_{tg}(v)``.  This default
        takes one forward difference (step 1e-7, one prox call) per column."""
        h = 1e-7
        return np.column_stack([(self.prox(t, v + h * d) - z) / h for d in dirs.T])


@dataclass(frozen=True)
class Zero(NonsmoothPart):
    """The zero function; its prox is the identity."""

    def value(self, x: Array) -> float:
        return 0.0

    def prox(self, t: float, v: Array) -> Array:
        _check_step(t)
        return np.asarray(v, dtype=float)

    def prox_jvp(self, t: float, v: Array, z: Array, dirs: Array) -> Array:
        return np.asarray(dirs, dtype=float)


@dataclass(frozen=True)
class WeightedL1(NonsmoothPart):
    """``g(x) = weight * ||x||_1``; the prox is soft thresholding."""

    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight < np.inf:
            raise ValueError("l1 weight must be finite and nonnegative")

    def value(self, x: Array) -> float:
        return self.weight * float(np.add.reduce(np.abs(x), axis=None))

    def prox(self, t: float, v: Array) -> Array:
        _check_step(t)
        v = np.asarray(v, dtype=float)
        level = t * self.weight
        return np.sign(v) * np.maximum(np.abs(v) - level, 0.0)

    def prox_jvp(self, t: float, v: Array, z: Array, dirs: Array) -> Array:
        # Keeps the coordinates with |v| >= t * weight.  At the kink either
        # 0 or 1 is a generalized derivative; 1 makes weight 0 the identity.
        keep = np.abs(np.asarray(v, dtype=float)) >= t * self.weight
        return keep[:, None] * np.asarray(dirs, dtype=float)


@dataclass(frozen=True)
class CustomNonsmooth(NonsmoothPart):
    """User-supplied value and prox oracles for an arbitrary convex ``g``."""

    value_fn: Callable[[Array], float]
    prox_fn: Callable[[float, Array], Array]

    def value(self, x: Array) -> float:
        return float(self.value_fn(x))

    def prox(self, t: float, v: Array) -> Array:
        _check_step(t)
        return np.asarray(self.prox_fn(t, v), dtype=float)


@dataclass(frozen=True)
class ProblemInstance:
    """An ``m``-objective composite problem on ``R^n``.

    Parameters
    ----------
    n, m : int
        Decision and objective dimensions, integers (not bools) of at least 1.
    smooth : callable
        ``x -> (m,)`` array of smooth objective values ``f_i(x)``.
    smooth_jac : callable
        ``x -> (m, n)`` array whose rows are the gradients ``grad f_i(x)``.
    nonsmooth : NonsmoothPart
        Shared nonsmooth term ``g``, added to every objective.
    """

    n: int
    m: int
    smooth: Callable[[Array], Array]
    smooth_jac: Callable[[Array], Array]
    nonsmooth: NonsmoothPart = field(default_factory=Zero)

    def __post_init__(self) -> None:
        if not (_is_number(self.n) and _is_number(self.m) and self.n >= 1 and self.m >= 1):
            raise ValueError(f"n and m must be integers of at least 1, got {self.n!r}, {self.m!r}")


def evaluate_objectives(p: ProblemInstance, x: Array) -> Array:
    """Full objective vector ``F(x) = f(x) + g(x)``.

    Raises :class:`EvaluationError` if any component is non-finite, carrying
    the offending point, and ``ValueError`` unless ``x`` has shape ``(n,)``.
    """
    return _evaluate(p, x)[1]


def _evaluate(p: ProblemInstance, x: Array, fx: Optional[Array] = None,
              gx: Optional[float] = None) -> tuple[Array, Array]:
    """``(f(x), F(x))``, checked as in :func:`evaluate_objectives`, from one
    ``f`` and one ``g`` call, or from ``fx = f(x)`` and ``gx = g(x)`` if given."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"x has shape {x.shape}, expected {(p.n,)}")
    fx = np.asarray(p.smooth(x) if fx is None else fx, dtype=float)
    if fx.shape != (p.m,):
        raise ValueError(f"smooth eval returned shape {fx.shape}, expected ({p.m},)")
    total = fx + (p.nonsmooth.value(x) if gx is None else gx)
    if not all(map(math.isfinite, total.tolist())):
        raise EvaluationError("objective evaluation produced a non-finite value", x)
    return fx, total
