"""Invariances on the generated problems, where they bind.

The 24 convex quadratics of perfbench's ``generated_m3`` workload at seed 1,
read through ``load_problem_file`` as ``scripts/paper_table.py`` reads them,
3 starts each, every variant: 72 runs per variant.  Unlike most built-ins,
which converge in two iterations, these runs take dozens of iterations and
backtrack, so a defect in the line search has room to show.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from mofista import SolverConfig, WeightedL1, load_problem_file, run_solver, sample_initial_points

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("backtracking", "fixed", "pgm")


@pytest.fixture(scope="module")
def problems(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT))
        write_inputs = importlib.import_module("perfbench.workloads").write_inputs
    paths = write_inputs("generated_m3", 1, tmp_path_factory.mktemp("generated_m3"))
    return [load_problem_file(path) for path in paths]


@pytest.fixture(scope="module")
def plain(problems):
    return {variant: runs(problems, variant) for variant in VARIANTS}


def runs(problems, variant, transform=lambda p: p, scale=1.0):
    """Every run of ``variant`` on the transformed problems, with the step
    constant (1 for backtracking, ``L_true`` for the fixed steps) times ``scale``."""
    out = []
    for p, desc in problems:
        L_init = SolverConfig.L_init if variant == "backtracking" else desc.L_true
        cfg = SolverConfig(L_init=scale * L_init, eps=1e-6, variant=variant)
        out += [run_solver(transform(p), x0, cfg) for x0 in sample_initial_points(desc, 3, 0)]
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_scaling_f_l1_weight_and_L_init_by_four_keeps_every_iterate(problems, plain, variant):
    # F and L scale by a power of 2 together, so every step divides out exactly.
    def scaled(p):
        return replace(p, smooth=lambda x: 4.0 * p.smooth(x),
                       smooth_jac=lambda x: 4.0 * p.smooth_jac(x),
                       nonsmooth=WeightedL1(4.0 * p.nonsmooth.weight))

    pairs = zip(plain[variant], runs(problems, variant, scaled, 4.0))
    assert sum(a.status is b.status and len(a.trace.records) == len(b.trace.records)
               and all(ra.x.tobytes() == rb.x.tobytes()
                       for ra, rb in zip(a.trace.records, b.trace.records))
               for a, b in pairs) == 72


@pytest.mark.parametrize("variant", VARIANTS)
def test_cyclic_permutation_of_objectives_keeps_status_and_count(problems, plain, variant):
    def permuted(p):
        order = [1, 2, 0]
        return replace(p, smooth=lambda x: p.smooth(x)[order],
                       smooth_jac=lambda x: p.smooth_jac(x)[order])

    pairs = zip(plain[variant], runs(problems, variant, permuted))
    assert sum(a.status is b.status and len(a.trace.records) == len(b.trace.records)
               for a, b in pairs) == 72
