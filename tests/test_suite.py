"""Benchmark suite: registry, descriptors, analytic data, and file loading."""

import json
import sys
import threading

import numpy as np
import pytest

import mofista.suite as suite
from mofista import (
    ProblemDescriptor,
    WeightedL1,
    Zero,
    available_problems,
    builtin_problem,
    load_problem_file,
    sample_initial_points,
)
from mofista.subproblem import weak_pareto_residual
from mofista.suite import register_problem

EXPECTED_NAMES = [
    "BK1", "BK1_l1", "DD1", "FF1", "JOS1", "JOS1_l1",
    "MHHM1", "MHHM2", "SP1", "SP1_l1", "VFM1",
]


# ---------------------------------------------------------------------------
# registry


def test_available_problems_sorted_and_complete():
    names = available_problems()
    assert names == sorted(names)
    for name in EXPECTED_NAMES:
        assert name in names


def test_unknown_problem_lists_known_names():
    with pytest.raises(KeyError, match="BK1"):
        builtin_problem("nope")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_problem("BK1", lambda: builtin_problem("BK1"))


def test_register_problem_roundtrip():
    p, desc = builtin_problem("BK1")
    register_problem("_tmp_copy", lambda: (p, desc))
    try:
        p2, desc2 = builtin_problem("_tmp_copy")
        assert p2 is p and desc2 is desc
        assert "_tmp_copy" in available_problems()
    finally:
        suite._REGISTRY.pop("_tmp_copy")


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_fields():
    # n and m are the instance's; every other field is the descriptor's
    cases = {
        "BK1": dict(n=2, m=2, lower=(-5.0, -5.0), upper=(10.0, 10.0),
                    convex=True, L_true=2.0),
        "BK1_l1": dict(n=2, m=2, convex=True, L_true=2.0),
        "JOS1": dict(n=2, m=2, convex=True, L_true=1.0),
        "SP1": dict(n=2, m=2, lower=(2.0, -2.0), upper=(3.0, 3.0),
                    convex=True, L_true=3.0 + np.sqrt(5.0)),
        "VFM1": dict(n=2, m=3, convex=True, L_true=2.0),
        "MHHM1": dict(n=1, m=3, lower=(0.0,), upper=(1.0,), convex=True),
        "MHHM2": dict(n=2, m=3, convex=True, L_true=2.0),
        "DD1": dict(n=5, m=2, convex=False, L_true=None),
        "FF1": dict(n=2, m=2, convex=False, L_true=None),
    }
    for name, expected in cases.items():
        p, desc = builtin_problem(name)
        assert desc.name == name
        assert len(desc.lower) == len(desc.upper) == p.n
        for field, value in expected.items():
            got = getattr(p if field in ("n", "m") else desc, field)
            if isinstance(value, float):
                assert got == pytest.approx(value, abs=1e-12), (name, field)
            else:
                assert got == value, (name, field)
    # a box that sampling would broadcast or fill with NaN is refused
    for lower, upper in (((), ()), ((0.0, 0.0, 0.0), (1.0,)),
                         ((0.0, float("nan")), (1.0, 1.0))):
        with pytest.raises(ValueError, match="box"):
            ProblemDescriptor(name="x", lower=lower, upper=upper)


def test_l1_variants_carry_weighted_l1():
    for name in ["BK1_l1", "JOS1_l1", "SP1_l1"]:
        p, _ = builtin_problem(name)
        assert p.nonsmooth == WeightedL1(1.0)
        assert p.nonsmooth.value(np.ones(p.n)) == pytest.approx(p.n)
    p, _ = builtin_problem("BK1")
    assert isinstance(p.nonsmooth, Zero)


@pytest.mark.parametrize("name", available_problems())
def test_descriptor_states_its_instance_facts(name):
    p, _ = builtin_problem(name)
    # an l1 twin's shared term is WeightedL1(1.0); every other built-in's is Zero()
    assert p.nonsmooth == (WeightedL1(1.0) if name.endswith("_l1") else Zero())


@pytest.mark.parametrize("extra", [{}, {"l1_weight": 0.25}])
def test_loaded_descriptor_states_its_instance_facts(tmp_path, extra):
    body = {"name": "facts", "n": 3, "m": 2, "lower": [0.0] * 3, "upper": [1.0] * 3,
            "objectives": [{"quad": np.diag([1.0, 2.0, 3.0]).tolist()},
                           {"quad": np.eye(3).tolist(), "linear": [1.0, 0.0, -1.0]}]}
    p, desc = load_problem_file(_write_problem_file(tmp_path, dict(body, **extra)))
    assert (p.n, p.m) == (3, 2)
    assert p.nonsmooth == (WeightedL1(0.25) if extra else Zero())  # weight 0 is Zero()
    assert desc.L_true == 3.0  # the largest |eigenvalue| over both quads


# ---------------------------------------------------------------------------
# objective formulas at hand-picked points


def test_objective_values_spot_checks():
    checks = [
        ("BK1", [1.0, 1.0], [2.0, 32.0]),
        ("BK1", [0.0, 0.0], [0.0, 50.0]),
        ("JOS1", [2.0, 2.0], [4.0, 0.0]),
        ("SP1", [2.0, 0.0], [5.0, 13.0]),
        ("VFM1", [0.0, 0.0], [1.0, 2.0, 3.0]),
        ("MHHM1", [0.8], [0.0, 0.0025, 0.01]),
        ("MHHM2", [0.85, 0.7], [0.0125, 0.0, 0.0125]),
        ("DD1", [1.0, 1.0, 1.0, 1.0, 1.0], [5.0, 3.0 + 2.0 - 1.0 / 3.0]),
    ]
    for name, x, want in checks:
        p, _ = builtin_problem(name)
        got = p.smooth(np.asarray(x, dtype=float))
        assert np.allclose(got, want, atol=1e-12), name


def test_ff1_well_bottom():
    p, _ = builtin_problem("FF1")
    c = 1.0 / np.sqrt(2.0)
    vals = p.smooth(np.array([c, c]))
    assert vals[0] == pytest.approx(0.0, abs=1e-15)
    assert vals[1] == pytest.approx(1.0 - np.exp(-4.0), abs=1e-12)


# ---------------------------------------------------------------------------
# analytic jacobians vs central differences


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_jacobian_matches_finite_differences(name):
    p, desc = builtin_problem(name)
    rng = np.random.default_rng(7)
    points = sample_initial_points(desc, 20, rng.integers(2**31))
    h = 1e-6
    for x in points:
        jac = p.smooth_jac(x)
        fd = np.empty_like(jac)
        for j in range(p.n):
            e = np.zeros(p.n)
            e[j] = h
            fd[:, j] = (p.smooth(x + e) - p.smooth(x - e)) / (2.0 * h)
        scale = 1.0 + np.max(np.abs(jac))
        assert np.max(np.abs(jac - fd)) <= 1e-5 * scale


@pytest.mark.parametrize("name", [n for n in EXPECTED_NAMES
                                  if builtin_problem(n)[1].L_true is not None])
def test_curvature_bounded_by_lipschitz_constant(name):
    p, desc = builtin_problem(name)
    rng = np.random.default_rng(11)
    h = 1e-4
    for _ in range(100):
        x = sample_initial_points(desc, 1, rng.integers(2**31))[0]
        d = rng.standard_normal(p.n)
        d /= np.linalg.norm(d)
        delta = p.smooth_jac(x + h * d) - p.smooth_jac(x)
        assert np.max(np.linalg.norm(delta, axis=1)) <= desc.L_true * h * (1.0 + 1e-3)


# ---------------------------------------------------------------------------
# closed-form Pareto points

# BK1's Pareto set is s * (5, 5) and JOS1's s * (2, 2), s in [0, 1].  SP1's
# stationary point of lam * f1 + (1 - lam) * f2 solves [[2 lam + 2, -2],
# [-2, 4 - 2 lam]] x = [2 lam, 6 (1 - lam)]: (3, 3) at lam = 0, (1.8, 2.2)
# at lam = 1/2 and (1, 1) at lam = 1.
PARETO_POINTS = {
    "BK1": np.outer(np.linspace(0.0, 1.0, 5), [5.0, 5.0]),
    "JOS1": np.outer(np.linspace(0.0, 1.0, 5), [2.0, 2.0]),
    "SP1": np.array([[3.0, 3.0], [1.8, 2.2], [1.0, 1.0]]),
}


def test_sp1_segment_is_stationary():
    p, _ = builtin_problem("SP1")
    for lam, x in zip([0.0, 0.5, 1.0], PARETO_POINTS["SP1"]):
        jac = p.smooth_jac(x)
        combo = lam * jac[0] + (1.0 - lam) * jac[1]
        assert np.max(np.abs(combo)) <= 1e-10


@pytest.mark.parametrize("name", ["BK1", "JOS1", "SP1"])
def test_segment_points_have_zero_residual(name):
    # The solver certifies a duality gap, which controls ||z - y|| only up to
    # sqrt(2 gap / L); at Pareto points that leaves residuals of ~1e-6.
    p, desc = builtin_problem(name)
    for x in PARETO_POINTS[name]:
        assert weak_pareto_residual(x, x, desc.L_true, p) <= 1e-5


# ---------------------------------------------------------------------------
# start-point sampling


def test_sample_initial_points_deterministic_and_in_box():
    p, desc = builtin_problem("SP1")
    a = sample_initial_points(desc, 50, 123)
    b = sample_initial_points(desc, 50, 123)
    c = sample_initial_points(desc, 50, 124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (50, p.n)
    assert np.all(a >= np.asarray(desc.lower)) and np.all(a <= np.asarray(desc.upper))


def test_sample_initial_points_tuple_seed_and_count_check():
    _, desc = builtin_problem("BK1")
    pts = sample_initial_points(desc, 3, (0, 42))
    assert pts.shape == (3, 2)
    assert sample_initial_points(desc, np.int64(2), 1).shape == (2, 2)
    for count in (True, 2.5, 0):
        with pytest.raises(ValueError, match="count must be a positive integer"):
            sample_initial_points(desc, count, 1)


# ---------------------------------------------------------------------------
# problem files


def _write_problem_file(tmp_path, body):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(body))
    return path


def test_load_problem_file_quadratic(tmp_path):
    body = {
        "name": "file_quad",
        "n": 2,
        "m": 2,
        "lower": [-1.0, -1.0],
        "upper": [1.0, 1.0],
        "l1_weight": 0.5,
        "objectives": [
            {"quad": [[2.0, 0.0], [0.0, 2.0]], "linear": [1.0, 0.0], "constant": 3.0},
            {"quad": [[4.0, 2.0], [2.0, 2.0]]},
        ],
    }
    path = _write_problem_file(tmp_path, body)
    p, desc = load_problem_file(path)

    assert isinstance(desc, ProblemDescriptor)
    assert (p.n, p.m) == (2, 2)
    assert p.nonsmooth == WeightedL1(0.5)
    assert desc.convex is True
    # spectra: first objective 2, 2; second 3 +- sqrt(5)
    assert desc.L_true == pytest.approx(3.0 + np.sqrt(5.0), rel=1e-12)

    x = np.array([0.5, -1.5])
    want0 = 0.5 * x @ np.array([[2.0, 0.0], [0.0, 2.0]]) @ x + x[0] + 3.0
    want1 = 0.5 * x @ np.array([[4.0, 2.0], [2.0, 2.0]]) @ x
    assert np.allclose(p.smooth(x), [want0, want1], atol=1e-12)
    assert np.allclose(p.smooth_jac(x)[0], 2.0 * x + np.array([1.0, 0.0]))
    assert p.nonsmooth.value(np.array([2.0, -2.0])) == pytest.approx(2.0)


def test_load_problem_file_rejects_malformed(tmp_path):
    base = {
        "name": "bad",
        "n": 2,
        "m": 2,
        "lower": [0.0, 0.0],
        "upper": [1.0, 1.0],
    }
    wrong_count = dict(base, objectives=[{"quad": [[1.0, 0.0], [0.0, 1.0]]}])
    path = _write_problem_file(tmp_path, wrong_count)
    with pytest.raises(ValueError, match="count"):
        load_problem_file(path)

    wrong_shape = dict(base, objectives=[
        {"quad": [[1.0, 0.0], [0.0, 1.0]]},
        {"quad": [[1.0]]},
    ])
    path = _write_problem_file(tmp_path, wrong_shape)
    with pytest.raises(ValueError):
        load_problem_file(path)

    eye = [[1.0, 0.0], [0.0, 1.0]]
    vector_constant = dict(base, objectives=[
        {"quad": eye, "constant": [1.0, 2.0]},
        {"quad": eye, "constant": [3.0, 4.0]},
    ])
    path = _write_problem_file(tmp_path, vector_constant)
    with pytest.raises(ValueError, match="malformed"):
        load_problem_file(path)

    for bad in ({"quad": [[float("nan"), 0.0], [0.0, 1.0]]},
                {"quad": eye, "linear": [0.0, float("inf")]},
                {"quad": eye, "constant": float("-inf")}):
        path = _write_problem_file(tmp_path, dict(base, objectives=[{"quad": eye}, bad]))
        with pytest.raises(ValueError, match="finite"):
            load_problem_file(path)

    two_bowls = dict(base, objectives=[{"quad": eye}, {"quad": eye}])
    # Sizes must be JSON integers: each of these once loaded, truncated.
    for bad in ({"n": 2.7}, {"m": 2.9}, {"n": True}, {"n": "2"}):
        path = _write_problem_file(tmp_path, dict(two_bowls, **bad))
        with pytest.raises(ValueError, match="integers"):
            load_problem_file(path)

    for bad in ({"l1_weight": -1.0}, {"l1_weight": float("nan")},
                {"l1_weight": float("inf")}, {"lower": [0.0, float("-inf")]},
                {"upper": [float("inf"), 1.0]}, {"lower": [float("nan"), 0.0]}):
        path = _write_problem_file(tmp_path, dict(two_bowls, **bad))
        with pytest.raises(ValueError, match="finite"):
            load_problem_file(path)

    # A mistyped file must not load as a different problem: each of these
    # once loaded as the name "None", weight 1.0, box (1.0, 0.0) and linear 0.
    misspelt = dict(two_bowls, objectives=[{"quad": eye}, {"quad": eye, "lineer": [1, 1]}])
    for bad, match in (({"name": None}, "string"), ({"l1_weight": True}, "JSON number"),
                       ({"lower": [True, "0"]}, "JSON number"), (misspelt, "lineer")):
        path = _write_problem_file(tmp_path, dict(two_bowls, **bad))
        with pytest.raises(ValueError, match=match):
            load_problem_file(path)

    # Values at the wrong depth of lists: each once raised TypeError from
    # float() or NumPy's "inhomogeneous shape" error, which names no field.
    for field, bad in (("lower", {"lower": [[0.0], [0.0]]}), ("upper", {"upper": [[0.0], [0.0]]}),
                       ("l1_weight", {"l1_weight": [1.0]}),
                       ("constant", {"objectives": [{"quad": eye, "constant": [1.0]}, {"quad": eye}]}),
                       ("linear", {"objectives": [{"quad": eye, "linear": [[1.0], [2.0]]},
                                                  {"quad": eye}]}),
                       ("quad", {"objectives": [{"quad": [[[1.0], [0.0]], [[0.0], [1.0]]]},
                                                {"quad": eye}]})):
        path = _write_problem_file(tmp_path, dict(two_bowls, **bad))
        with pytest.raises(ValueError, match=f"malformed {field}: .* list depth"):
            load_problem_file(path)

    # Missing or mistyped structure: each once raised KeyError or TypeError.
    shapeless = [{k: v for k, v in two_bowls.items() if k != key}
                 for key in ("objectives", "name", "n")]
    shapeless += [dict(two_bowls, objectives=[{"quad": eye}, {"linear": [1.0, 1.0]}]),
                  [two_bowls], dict(two_bowls, lower=0), dict(two_bowls, objectives=None)]
    for bad in shapeless:
        path = _write_problem_file(tmp_path, bad)
        with pytest.raises(ValueError, match="expected name, n, m"):
            load_problem_file(path)


def test_load_problem_file_rejects_box_length(tmp_path):
    quad = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    base = {"name": "box", "n": 3, "m": 1, "objectives": [{"quad": quad}]}
    for lower, upper in (([0.0, 0.0], [1.0, 1.0]), ([0.0], [1.0]),
                         ([0.0] * 3, [1.0] * 2)):
        path = _write_problem_file(tmp_path, dict(base, lower=lower, upper=upper))
        with pytest.raises(ValueError, match="box"):
            load_problem_file(path)
    path = _write_problem_file(tmp_path, dict(base, lower=[0.0] * 3, upper=[1.0] * 3))
    assert load_problem_file(path)[1].lower == (0.0, 0.0, 0.0)


def test_load_problem_file_flags_nonconvex(tmp_path):
    body = {
        "name": "saddle",
        "n": 2,
        "m": 1,
        "lower": [-1.0, -1.0],
        "upper": [1.0, 1.0],
        "objectives": [{"quad": [[1.0, 0.0], [0.0, -1.0]]}],
    }
    p, desc = load_problem_file(_write_problem_file(tmp_path, body))
    assert desc.convex is False
    assert desc.L_true == pytest.approx(1.0)


def test_load_problem_file_convexity_is_scale_aware(tmp_path):
    # Scaled singular PSD matrices s * A A' carry eigenvalue rounding of size
    # n * eps * s ||A||^2; an absolute cutoff calls many of them nonconvex.
    rng = np.random.default_rng(5)
    for n in (3, 8, 50):
        for s in (1e3, 1e6, 1e9):
            for _ in range(5):
                a = rng.standard_normal((n, n - 1))
                body = {"name": "psd", "n": n, "m": 1, "lower": [0.0] * n,
                        "upper": [1.0] * n, "objectives": [{"quad": (s * a @ a.T).tolist()}]}
                _, desc = load_problem_file(_write_problem_file(tmp_path, body))
                assert desc.convex is True, (n, s)
    body = {"name": "tilt", "n": 2, "m": 1, "lower": [0.0, 0.0], "upper": [1.0, 1.0],
            "objectives": [{"quad": [[1.0, 0.0], [0.0, -1e-9]]}]}
    assert load_problem_file(_write_problem_file(tmp_path, body))[1].convex is False


def test_loaded_oracles_share_one_product_per_point(tmp_path):
    rng = np.random.default_rng(3)
    m, n = 3, 5
    a = rng.standard_normal((m, n, n))
    quads = a + np.transpose(a, (0, 2, 1))  # symmetric, so the loader keeps it bit for bit
    lins, consts = rng.standard_normal((m, n)), rng.standard_normal(m)
    body = {"name": "shared", "n": n, "m": m, "lower": [-1.0] * n, "upper": [1.0] * n,
            "objectives": [{"quad": q.tolist(), "linear": b.tolist(), "constant": float(c)}
                           for q, b, c in zip(quads, lins, consts)]}
    p, _ = load_problem_file(_write_problem_file(tmp_path, body))

    def check(point, oracle):
        x = np.array(point, dtype=float)  # a copy, with its own uncached product
        want = (0.5 * ((quads @ x) @ x) + lins @ x + consts if oracle is p.smooth
                else quads @ x + lins)
        assert oracle(point).tobytes() == want.tobytes()

    x = rng.standard_normal(n)
    check(x, p.smooth)
    check(x, p.smooth_jac)
    x[2] += 0.5  # the same array, changed in place between calls
    check(x, p.smooth_jac)
    check(x, p.smooth)
    listed = (x * 3.0).tolist()
    for oracle in (p.smooth, p.smooth_jac, p.smooth_jac, p.smooth):
        check(listed, oracle)
        check(x, oracle)
    x[:] = listed  # now equal to the list's point
    check(x, p.smooth)
    check(listed, p.smooth_jac)

    # Threads sharing the instance, more than there are cores and switched
    # often, each get their own point's values.
    points = [rng.standard_normal(n) for _ in range(4)]
    errors, start = [], threading.Barrier(len(points))

    def hammer(point):
        start.wait(timeout=60)
        try:
            for i in range(2000):
                check(point, (p.smooth, p.smooth_jac)[i % 2])
        except AssertionError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(pt,)) for pt in points]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors


def _grid_vector(rng, n, exponent):
    """Entries on the grid 2**(exponent - 20), so sums of two are exact."""
    return np.ldexp(np.round(rng.standard_normal(n) * 2.0**20), exponent - 20)


@pytest.mark.parametrize("n", [1, 2, 8, 300])
@pytest.mark.parametrize("m", [1, 3])
def test_loaded_oracles_match_reference(tmp_path, m, n):
    rng = np.random.default_rng(17 * n + m)
    eps = np.finfo(float).eps
    a = rng.standard_normal((m, n, n)) * 10.0 ** rng.uniform(-3, 3, (m, 1, 1))
    quads = a + np.transpose(a, (0, 2, 1))
    lins = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, (m, 1))
    consts = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3, m)
    body = {"name": "rand", "n": n, "m": m, "lower": [-1.0] * n, "upper": [1.0] * n,
            "objectives": [{"quad": q.tolist(), "linear": b.tolist(), "constant": float(c)}
                           for q, b, c in zip(quads, lins, consts)]}
    p, _ = load_problem_file(_write_problem_file(tmp_path, body))

    def reference(x):
        return np.array([0.5 * (x @ q @ x) + b @ x + c for q, b, c in zip(quads, lins, consts)])

    def scale(x):
        ax = np.abs(x)
        return 0.5 * (np.abs(quads) @ ax) @ ax + np.abs(lins) @ ax + np.abs(consts)

    tol = 2.0 * (n + 2) * eps
    for exponent in (-8, 0, 8):
        x = _grid_vector(rng, n, exponent)
        h = _grid_vector(rng, n, exponent - 3)
        assert np.all(np.abs(p.smooth(x) - reference(x)) <= tol * scale(x))

        # f(x + h) - f(x) - grad f(x) h = h'Qh / 2 exactly; x + h is exact.
        jac = p.smooth_jac(x)
        gap = p.smooth(x + h) - p.smooth(x) - jac @ h
        curvature = np.array([0.5 * (h @ q @ h) for q in quads])
        ah = np.abs(h)
        size = (scale(x + h) + scale(x) + (np.abs(quads) @ np.abs(x) + np.abs(lins)) @ ah
                + 0.5 * (np.abs(quads) @ ah) @ ah)
        assert np.all(np.abs(gap - curvature) <= tol * size)
