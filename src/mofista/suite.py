"""Benchmark problem registry.

The convex instances used by the acceptance tests (two-ball, scaled and
skewed quadratic families, each with an optional l1 twin) carry analytic
gradient Lipschitz constants.  Standard instances from the multiobjective
test-set literature sit alongside them, and :func:`register_problem` plus
:func:`load_problem_file` let users add the rest.  Each problem is an
instance, which holds the objectives, and a descriptor, which holds only the
benchmark metadata.

Box bounds only drive initial-point sampling; the solvers themselves are
unconstrained.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .problems import Array, NonsmoothPart, ProblemInstance, WeightedL1, Zero

__all__ = [
    "ProblemDescriptor",
    "register_problem",
    "available_problems",
    "builtin_problem",
    "sample_initial_points",
    "load_problem_file",
]


@dataclass(frozen=True)
class ProblemDescriptor:
    """Benchmark metadata: sampling box, convexity, known L.  Raises
    ``ValueError`` unless the box is nonempty, of one length and finite."""

    name: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    convex: bool = False
    L_true: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < len(self.lower) == len(self.upper):
            raise ValueError(f"empty or unequal-length box bounds {self.lower}, {self.upper}")
        if not np.isfinite([*self.lower, *self.upper]).all():
            raise ValueError("box bounds must be finite")


Problem = tuple[ProblemInstance, ProblemDescriptor]  # what a builder returns
Builder = Callable[[], Problem]
Family = Callable[[str, float], Problem]
_REGISTRY: dict[str, Builder] = {}


def register_problem(name: str, builder: Builder) -> None:
    """Register a problem under a unique name."""
    if name in _REGISTRY:
        raise ValueError(f"problem {name!r} already registered")
    _REGISTRY[name] = builder


def available_problems() -> list[str]:
    return sorted(_REGISTRY)


def builtin_problem(name: str) -> Problem:
    """Build a registered problem; raises ``ValueError`` if its box length is not its ``n``."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_problems())
        raise KeyError(f"unknown problem {name!r}; available: {known}") from None
    p, desc = builder()
    if len(desc.lower) != p.n:
        raise ValueError(f"problem {name!r} has box length {len(desc.lower)} but n = {p.n}")
    return p, desc


def sample_initial_points(desc: ProblemDescriptor, count: int,
                          seed: Union[int, tuple[int, ...]]) -> Array:
    """Uniform draws from the descriptor's box; deterministic in the seed."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    lower = np.asarray(desc.lower, dtype=float)
    upper = np.asarray(desc.upper, dtype=float)
    return lower + rng.random((count, lower.size)) * (upper - lower)


def _problem(name: str, n: int, m: int, smooth: Callable[[Array], Array],
             smooth_jac: Callable[[Array], Array], lower, upper, l1_weight: float = 0.0,
             convex: bool = False, L: Optional[float] = None) -> Problem:
    """An instance and its descriptor.  The shared term is ``Zero()`` for an
    l1 weight of exactly 0 and ``WeightedL1(l1_weight)``, which rejects a
    negative or non-finite weight, otherwise."""
    part: NonsmoothPart = Zero() if l1_weight == 0.0 else WeightedL1(l1_weight)
    return (ProblemInstance(n=n, m=m, smooth=smooth, smooth_jac=smooth_jac, nonsmooth=part),
            ProblemDescriptor(name=name, lower=tuple(lower), upper=tuple(upper),
                              convex=convex, L_true=L))


def _register(name: str, build: Family, l1_twin: bool = False) -> None:
    """Register ``build(name, 0.0)`` and, if asked, its twin ``name + "_l1"`` of weight 1."""
    register_problem(name, lambda: build(name, 0.0))
    if l1_twin:
        register_problem(name + "_l1", lambda: build(name + "_l1", 1.0))


def _quadratic_family(centers: Array, scales: Array, consts: Array, lower, upper) -> Family:
    """Builder of the objectives ``f_i(x) = scale_i * ||x - center_i||^2 + const_i``."""
    centers = np.asarray(centers, dtype=float)
    scales = np.asarray(scales, dtype=float)
    consts = np.asarray(consts, dtype=float)
    m, n = centers.shape

    def smooth(x: Array) -> Array:
        diff = x[None, :] - centers
        return scales * np.sum(diff * diff, axis=1) + consts

    def smooth_jac(x: Array) -> Array:
        return 2.0 * scales[:, None] * (x[None, :] - centers)

    return lambda name, weight: _problem(name, n, m, smooth, smooth_jac, lower, upper, weight,
                                         convex=True, L=2.0 * float(np.max(scales)))


# Two quadratic balls centered at the origin and at (5, 5).
_register("BK1", _quadratic_family(
    centers=[[0.0, 0.0], [5.0, 5.0]],
    scales=[1.0, 1.0],
    consts=[0.0, 0.0],
    lower=(-5.0, -5.0), upper=(10.0, 10.0),
), l1_twin=True)

# Dimension-scaled quadratics: f1 = ||x||^2 / n, f2 = ||x - 2||^2 / n.
_register("JOS1", _quadratic_family(
    centers=[[0.0, 0.0], [2.0, 2.0]],
    scales=[0.5, 0.5],
    consts=[0.0, 0.0],
    lower=(-5.0, -5.0), upper=(5.0, 5.0),
), l1_twin=True)


def _sp1(name: str, l1_weight: float) -> Problem:
    """Two anisotropic quadratics sharing a coupling term (x1 - x2)^2."""

    def smooth(x: Array) -> Array:
        coupling = (x[0] - x[1]) ** 2
        return np.array([(x[0] - 1.0) ** 2 + coupling,
                         (x[1] - 3.0) ** 2 + coupling])

    def smooth_jac(x: Array) -> Array:
        c1 = 2.0 * (x[0] - x[1])
        return np.array([[2.0 * (x[0] - 1.0) + c1, -c1],
                         [c1, 2.0 * (x[1] - 3.0) - c1]])

    L = 3.0 + np.sqrt(5.0)  # top eigenvalue of [[4, -2], [-2, 2]]
    return _problem(name, 2, 2, smooth, smooth_jac, (2.0, -2.0), (3.0, 3.0), l1_weight,
                    convex=True, L=float(L))


_register("SP1", _sp1, l1_twin=True)

# Three quadratic bowls with distinct centers and offsets.
_register("VFM1", _quadratic_family(
    centers=[[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]],
    scales=[1.0, 1.0, 1.0],
    consts=[0.0, 1.0, 2.0],
    lower=(-2.0, -2.0), upper=(2.0, 2.0),
))

# One-dimensional triple of shifted parabolas.
_register("MHHM1", _quadratic_family(
    centers=[[0.8], [0.85], [0.9]],
    scales=[1.0, 1.0, 1.0],
    consts=[0.0, 0.0, 0.0],
    lower=(0.0,), upper=(1.0,),
))

# Its two-dimensional companion.
_register("MHHM2", _quadratic_family(
    centers=[[0.8, 0.6], [0.85, 0.7], [0.9, 0.6]],
    scales=[1.0, 1.0, 1.0],
    consts=[0.0, 0.0, 0.0],
    lower=(0.0, 0.0), upper=(1.0, 1.0),
))


def _dd1(name: str, l1_weight: float) -> Problem:
    """Quadratic ball against a cubic-perturbed linear form (nonconvex)."""

    def smooth(x: Array) -> Array:
        return np.array([float(x @ x),
                         3.0 * x[0] + 2.0 * x[1] - x[2] / 3.0 + 0.01 * (x[3] - x[4]) ** 3])

    def smooth_jac(x: Array) -> Array:
        cubic = 0.03 * (x[3] - x[4]) ** 2
        return np.array([2.0 * x,
                         [3.0, 2.0, -1.0 / 3.0, cubic, -cubic]])

    return _problem(name, 5, 2, smooth, smooth_jac, (-20.0,) * 5, (20.0,) * 5, l1_weight)


_register("DD1", _dd1)


def _ff1(name: str, l1_weight: float) -> Problem:
    """Complementary Gaussian wells around (+-1/sqrt(2), +-1/sqrt(2))."""
    c = 1.0 / np.sqrt(2.0)

    def smooth(x: Array) -> Array:
        return np.array([1.0 - np.exp(-((x[0] - c) ** 2 + (x[1] - c) ** 2)),
                         1.0 - np.exp(-((x[0] + c) ** 2 + (x[1] + c) ** 2))])

    def smooth_jac(x: Array) -> Array:
        e1 = np.exp(-((x[0] - c) ** 2 + (x[1] - c) ** 2))
        e2 = np.exp(-((x[0] + c) ** 2 + (x[1] + c) ** 2))
        return np.array([[2.0 * (x[0] - c) * e1, 2.0 * (x[1] - c) * e1],
                         [2.0 * (x[0] + c) * e2, 2.0 * (x[1] + c) * e2]])

    return _problem(name, 2, 2, smooth, smooth_jac, (-1.0, -1.0), (1.0, 1.0), l1_weight)


_register("FF1", _ff1)


def _json_numbers(v, depth: int) -> bool:
    """Whether ``v`` is JSON numbers, not bools, nested in lists exactly ``depth`` deep."""
    if depth > 1:  # one call per row, none per number
        return isinstance(v, list) and all(map(_json_numbers, v, [depth - 1] * len(v)))
    return isinstance(v, list) == (depth == 1) and {*map(type, v if depth else [v])} <= {int, float}


def load_problem_file(path: Union[str, Path]) -> Problem:
    """Load a quadratic problem definition.

    The file is JSON with the fields ``name``, ``n``, ``m``, ``lower``, ``upper``,
    optional ``l1_weight`` and a list ``objectives`` of ``{"quad": n x n matrix,
    "linear": n vector, "constant": scalar}`` entries meaning ``f_i(x) = x'Q_i x / 2
    + b_i'x + c_i``; ``linear`` and ``constant`` default to zero, and ``quad`` is
    symmetrized.  Raises ``ValueError`` on a missing field (``l1_weight``, ``linear`` and
    ``constant`` aside), a field not named here, at either level, or a ``lower``,
    ``upper`` or ``objectives`` that is not a list; and unless ``name`` is a string, ``n``
    and ``m`` are JSON integers, other fields hold JSON numbers (not bools) nested 2 deep
    in ``quad``, 1 in the bounds and ``linear`` and 0 otherwise, there are ``m`` objectives,
    the bounds have ``n`` entries each and are finite, every coefficient has its shape and
    is finite, and ``l1_weight`` is finite and nonnegative.

    ``L_true``, the gradient Lipschitz constant, is the largest
    ``|eigenvalue|`` over all ``Q_i``.  The convexity flag holds when every ``Q_i`` is positive
    semidefinite up to eigenvalue rounding, ``n * eps * max|eig(Q_i)|``.
    ``f`` and ``grad f`` at one point share one ``(m, n, n)`` matrix-vector
    product ``quads @ x``: the last point's is kept, keyed by its shape and bytes.
    """
    spec = json.loads(Path(path).read_text())
    objs = spec.get("objectives") if isinstance(spec, dict) else None
    if not (isinstance(objs, list) and all(isinstance(o, dict) and "quad" in o for o in objs)
            and {"name", "n", "m", "lower", "upper"} <= spec.keys()
            and isinstance(spec["lower"], list) and isinstance(spec["upper"], list)):
        raise ValueError("expected name, n, m, lower and upper lists and objectives with a quad")
    unknown = (set(spec) - {"name", "n", "m", "lower", "upper", "l1_weight", "objectives"}).union(
        *(set(o) - {"quad", "linear", "constant"} for o in objs))
    depths = {"lower": 1, "upper": 1, "l1_weight": 0, "quad": 2, "linear": 1, "constant": 0}
    bad = "; ".join(sorted({f"{key}: expected JSON numbers at list depth {depths[key]}"
                            for obj in (spec, *objs) for key in obj.keys() & depths
                            if not _json_numbers(obj[key], depths[key])}))
    if unknown or bad:
        raise ValueError(f"unknown keys {sorted(unknown)}" if unknown else f"malformed {bad}")
    n, m, name = spec["n"], spec["m"], spec["name"]
    if type(n) is not int or type(m) is not int or type(name) is not str:
        raise ValueError(f"n and m must be integers and name a string, got {n!r}, {m!r}, {name!r}")
    if len(objs) != m:
        raise ValueError("objective count does not match m")
    lower, upper = (tuple(map(float, spec[key])) for key in ("lower", "upper"))
    if len(lower) != n or len(upper) != n:
        raise ValueError(f"box bounds need {n} entries each, got {len(lower)} and {len(upper)}")
    quads = np.array([o["quad"] for o in objs], dtype=float)
    lins = np.array([o.get("linear", np.zeros(n)) for o in objs], dtype=float)
    consts = np.array([o.get("constant", 0.0) for o in objs], dtype=float)
    if quads.shape != (m, n, n) or lins.shape != (m, n) or consts.shape != (m,):
        raise ValueError("malformed quadratic coefficients")
    if not all(np.isfinite(a).all() for a in (quads, lins, consts)):
        raise ValueError("quadratic coefficients must be finite")
    quads = 0.5 * (quads + np.transpose(quads, (0, 2, 1)))
    eigs = np.linalg.eigvalsh(quads)
    radius = np.max(np.abs(eigs), axis=1)  # spectral radius of each Q_i
    convex = bool(np.all(np.min(eigs, axis=1) >= -n * np.finfo(float).eps * radius))
    L = float(np.max(radius))

    last = [(None, None)]  # the last point's (shape, bytes) and quads @ x, replaced whole

    def product(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        seen, qx = last[0]
        if seen != (key := (x.shape, x.tobytes())):
            last[0] = key, qx = key, quads @ x
        return qx

    def smooth(x: Array) -> Array:
        return 0.5 * (product(x) @ x) + lins @ x + consts

    def smooth_jac(x: Array) -> Array:
        return product(x) + lins

    return _problem(name, n, m, smooth, smooth_jac, lower, upper,
                    float(spec.get("l1_weight", 0.0)), convex, L)
