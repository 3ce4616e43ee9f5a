"""Timing, statistics and call-counting wrappers shared by the workloads.

Host-speed normalisation
------------------------
On a shared host the same solve loop runs up to 1.8x slower from one second
to the next, with CPU time equal to wall time: the slowdown is the core
running slower, not the process waiting.  Every timed block is therefore
bracketed by a fixed calibration loop (see ``Calibration``), and the
block's wall time is scaled by the loop's reference time over its measured
time.  Reported times are wall times at the reference host speed; the raw
wall times are printed beside them.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from typing import Callable, Sequence

import numpy as np

# A calibration is taken after timed work has run for this long.
CHUNK_S = 0.5

_CAL_RNG = np.random.default_rng(0)
_CAL_QUADS = _CAL_RNG.standard_normal((2, 300, 300))
_CAL_POINT = _CAL_RNG.standard_normal(300)


def _small_ops(reps: int) -> float:
    v = np.linspace(-1.0, 1.0, 5)
    w = np.ones(5)
    grads = np.ones((2, 5))
    acc = 0.0
    for i in range(reps):
        z = np.sign(v) * np.maximum(np.abs(v) - 0.1, 0.0)
        d = z - w
        acc += float(d @ d) + float(np.max(grads @ d)) + 0.5 * i
    return acc


def _large_ops(reps: int) -> float:
    acc = 0.0
    for _ in range(reps):
        acc += float(np.sum(np.einsum("i,mij,j->m", _CAL_POINT, _CAL_QUADS, _CAL_POINT)))
        acc += float(np.sum(_CAL_QUADS @ _CAL_POINT))
    return acc


@dataclasses.dataclass(frozen=True)
class Calibration:
    """A fixed loop that does the kind of work a workload's solves do.

    ``small`` repetitions of interpreter-bound arithmetic on 5-vectors (the
    solver's inner loops on small problems) and ``large`` repetitions of
    quadratic forms and products with 300 x 300 matrices (the oracles of a
    large problem).  The two kinds slow down differently when the host is
    busy.  ``ref_s`` is the loop's time at the reference host speed, the
    fast phase of a 2-core x86-64 VM with Python 3.11 and NumPy 1.26.
    """

    small: int
    large: int
    ref_s: float

    def seconds(self) -> float:
        tick = time.perf_counter()
        acc = _small_ops(self.small) + _large_ops(self.large)
        elapsed = time.perf_counter() - tick
        if not math.isfinite(acc):
            raise RuntimeError("calibration loop produced a non-finite value")
        return elapsed


SMALL_N = Calibration(small=1000, large=0, ref_s=0.0088)
LARGE_N = Calibration(small=500, large=25, ref_s=0.0124)


class Clock:
    """Times a sequence of blocks and scales each by the calibration loops
    taken around it.

    A calibration is taken before the first block and after every
    ``CHUNK_S`` of timed work.  A block's scale uses the median of the three
    calibrations before it and the three after it: host-speed phases last
    seconds, while a single calibration is noisy.
    """

    def __init__(self, cal: Calibration) -> None:
        self._calibration = cal
        self._cals = [cal.seconds()]
        self._blocks: list[tuple[list, object, float, int]] = []
        self._pending_s = 0.0
        self.raw_s = 0.0

    def time(self, fn: Callable[[], object], into: list, index: object) -> object:
        """Run ``fn``; ``(index, normalised seconds, raw seconds)`` is
        appended to ``into`` by ``flush``."""
        tick = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - tick
        self.raw_s += elapsed
        self._blocks.append((into, index, elapsed, len(self._cals) - 1))
        self._pending_s += elapsed
        if self._pending_s >= CHUNK_S:
            self._cals.append(self._calibration.seconds())
            self._pending_s = 0.0
        return out

    def flush(self) -> None:
        """Scale every block timed so far; call once the timed work is done."""
        if self._pending_s > 0.0:
            self._cals.append(self._calibration.seconds())
            self._pending_s = 0.0
        for into, index, elapsed, slot in self._blocks:
            nearby = self._cals[max(0, slot - 2):slot + 4]
            into.append((index, elapsed * self._calibration.ref_s / median(nearby), elapsed))
        self._blocks = []


def normalised(fn: Callable[[], object], cal: Calibration) -> tuple[object, float, float]:
    """Run ``fn`` once between two calibrations: ``(result, seconds, raw)``."""
    clock = Clock(cal)
    into: list = []
    out = clock.time(fn, into, None)
    clock.flush()
    _, seconds, raw = into[0]
    return out, seconds, raw


def tail_percentile(samples: Sequence[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it, and its
    nearest-rank value."""
    n = len(samples)
    if n <= 10:
        raise ValueError(f"a tail needs more than 10 samples, got {n}")
    q = (100 * (n - 10)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, sorted(samples)[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclasses.dataclass
class Counters:
    """Calls into one problem's oracles, with the time spent inside them."""

    f: int = 0
    jac: int = 0
    prox: int = 0
    f_s: float = 0.0
    jac_s: float = 0.0


def counted_nonsmooth(part, counters: Counters):
    """Copy of ``part`` whose prox counts its calls: an instance of a
    subclass of the part's own class, so value and prox keep their code."""
    base = type(part)

    def prox(self, t, v):
        counters.prox += 1
        return base.prox(self, t, v)

    cls = type("Counted" + base.__name__, (base,), {"prox": prox})
    return cls(**{f.name: getattr(part, f.name) for f in dataclasses.fields(part)})


def counted_problem(p, counters: Counters):
    """Copy of ``p`` whose smooth oracles and prox count and time their calls.

    ``dataclasses.replace`` keeps every other field, and the prox goes
    through the problem's own nonsmooth class, so the solver takes the same
    code path as on ``p``.
    """
    smooth, smooth_jac = p.smooth, p.smooth_jac

    def f(x):
        tick = time.perf_counter()
        out = smooth(x)
        counters.f_s += time.perf_counter() - tick
        counters.f += 1
        return out

    def jac(x):
        tick = time.perf_counter()
        out = smooth_jac(x)
        counters.jac_s += time.perf_counter() - tick
        counters.jac += 1
        return out

    return dataclasses.replace(p, smooth=f, smooth_jac=jac,
                               nonsmooth=counted_nonsmooth(p.nonsmooth, counters))
