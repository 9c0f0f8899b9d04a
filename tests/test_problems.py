"""Objective families: frozen values, finite-difference and Monte-Carlo oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnsgd import problems
from dnsgd.problems import (
    CERTIFY_TRIALS,
    RATIO_TOL,
    ExpRangeError,
    check_relaxed_smooth,
    dissimilarity_measured,
    f_base,
    f_local,
    grad_base,
    grad_local,
    lf_effective,
    make_exp_pair,
    make_poly_even,
    make_quadratic,
    sample_grad,
)
from dnsgd.streams import RunStreams, StreamKey, derive_stream

LOG2 = math.log(2.0)


# Shared read-only instances; building the certified families is costly
# enough that per-example rebuilds would dominate the hypothesis tests.
INSTANCES = (
    make_exp_pair(d=4, rate=1.0, m=3, zeta=0.3, sigma=0.0, seed=2),
    make_poly_even(d=4, power=4, scale=0.5, m=3, zeta=0.3, sigma=0.0, seed=2),
    make_quadratic(d=4, curvature=1.5, m=3, zeta=0.3, sigma=0.0, seed=2),
)


# --- frozen closed-form values ------------------------------------------------

def test_exp_pair_frozen_values():
    p = make_exp_pair(d=1, rate=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    assert f_base(p, np.zeros(1)) == pytest.approx(1.0, abs=1e-15)
    assert p.f_star == 1.0
    # cosh(log 2) = (2 + 1/2)/2 and sinh(log 2) = (2 - 1/2)/2
    assert f_base(p, np.array([LOG2])) == pytest.approx(1.25, abs=1e-15)
    assert grad_base(p, np.array([LOG2]))[0] == pytest.approx(0.75, abs=1e-15)
    assert p.l1 == pytest.approx(1.0 / LOG2, abs=1e-15)


def test_poly_even_frozen_values():
    p = make_poly_even(d=1, power=4, scale=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    assert f_base(p, np.array([2.0])) == pytest.approx(4.0, abs=1e-12)
    assert grad_base(p, np.array([2.0]))[0] == pytest.approx(8.0, abs=1e-12)
    assert p.l1 == 3.0
    assert p.f_star == 0.0


def test_quadratic_frozen_values():
    p = make_quadratic(d=2, curvature=2.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    x = np.array([1.0, 2.0])
    assert f_base(p, x) == pytest.approx(5.0, abs=1e-14)
    assert np.allclose(grad_base(p, x), [2.0, 4.0], atol=1e-14)
    assert p.l0 == 2.0 and p.l1 == 0.0


def test_lf_effective_frozen_values():
    assert lf_effective(1.0, 0.0, 5.0) == 1.0
    assert lf_effective(0.0, 2.0, 0.5) == 1.0
    assert lf_effective(3.0, 1.0, 2.0) == 5.0
    with pytest.raises(ValueError):
        lf_effective(-1.0, 0.0, 0.0)


# --- finite-difference oracle ---------------------------------------------------

def _fd_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def test_gradients_match_central_differences():
    rng = np.random.default_rng(123)
    for p in INSTANCES:
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=p.d)
            i = int(rng.integers(0, p.m))
            g = grad_local(p, i, x)
            fd = _fd_grad(lambda y: f_local(p, i, y), x)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))
        x = rng.uniform(-2.0, 2.0, size=p.d)
        g = grad_base(p, x)
        fd = _fd_grad(lambda y: f_base(p, y), x)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("p", INSTANCES, ids=lambda p: p.family)
def test_row_matrix_gradient_matches_rows_exactly(p):
    x = np.random.default_rng(11).uniform(-2.0, 2.0, size=(5, p.d))
    stacked = np.stack([grad_base(p, row) for row in x])
    assert np.array_equal(grad_base(p, x), stacked)
    with pytest.raises(ValueError, match="shape"):
        grad_base(p, np.zeros((5, p.d + 1)))
    with pytest.raises(ValueError, match="shape"):
        grad_base(p, np.zeros((2, 5, p.d)))
    # objectives evaluate row by row too, one value per row
    assert f_base(p, x).tolist() == [f_base(p, row) for row in x]
    assert f_local(p, 0, x).tolist() == [f_local(p, 0, row) for row in x]
    with pytest.raises(ValueError, match="shape"):
        f_base(p, np.zeros((2, 5, p.d)))


# --- stochastic oracle vs its documented tolerances ----------------------------

def test_sample_grad_mean_and_variance():
    p = make_quadratic(d=3, curvature=1.0, m=2, zeta=0.4, sigma=0.5, seed=7)
    x = np.array([0.3, -1.1, 0.7])
    exact = grad_local(p, 0, x)
    b, n = 4, 20_000
    streams = RunStreams(555, n - 1)
    x_rows = np.tile(x, (p.m, 1))
    draws = np.empty((n, p.d))
    for t in range(n):
        draws[t] = sample_grad(p, x_rows, b, streams.oracle(t))[0]
    mean_tol = 5.0 * p.sigma / math.sqrt(b * p.d * n)
    assert np.all(np.abs(draws.mean(axis=0) - exact) <= mean_tol)
    sq = float(np.mean(np.sum((draws - exact) ** 2, axis=1)))
    expect = p.sigma**2 / b
    assert abs(sq - expect) <= 5.0 * math.sqrt(2.0 / (n * p.d)) * expect


def test_sample_grad_noiseless_is_exact_and_deterministic():
    p = make_quadratic(d=3, curvature=1.0, m=2, zeta=0.4, sigma=0.0, seed=7)
    x = np.array([0.3, -1.1, 0.7])
    streams = RunStreams(1)
    out = sample_grad(p, np.tile(x, (p.m, 1)), 10, streams.oracle(0))
    assert np.array_equal(out[0], grad_local(p, 0, x))


def test_sample_grad_same_stream_key_replays():
    p = make_quadratic(d=2, curvature=1.0, m=1, zeta=0.0, sigma=1.0, seed=0)
    x = np.zeros((1, 2))
    a = sample_grad(p, x, 3, RunStreams(9, 6).oracle(5))
    b = sample_grad(p, x, 3, RunStreams(9, 6).oracle(5))
    assert np.array_equal(a, b)
    c = sample_grad(p, x, 3, RunStreams(9, 6).oracle(6))
    assert not np.array_equal(a, c)


def test_sample_grad_rejects_bad_batch():
    p = make_quadratic(d=2, curvature=1.0, m=1, zeta=0.0, sigma=1.0, seed=0)
    with pytest.raises(ValueError, match="batch size"):
        sample_grad(p, np.zeros((1, 2)), 0, RunStreams(0).oracle(0))


@pytest.mark.parametrize("p", INSTANCES, ids=lambda p: p.family)
def test_sample_grad_matrix_oracle(p):
    """One call gives every agent's row: exact without noise, one block per iteration."""
    x_rows = np.linspace(-1.5, 1.5, p.m * p.d).reshape(p.m, p.d)
    rng = RunStreams(3).oracle(0)
    noiseless = sample_grad(p, x_rows, 4, rng)
    # sigma = 0 draws nothing: the stream still starts where a fresh one does
    assert np.array_equal(rng.standard_normal(4), RunStreams(3).oracle(0).standard_normal(4))
    for i in range(p.m):
        assert np.array_equal(noiseless[i], grad_local(p, i, x_rows[i]))

    noisy = p._replace(sigma=0.5)
    a = sample_grad(noisy, x_rows, 4, RunStreams(3, 8).oracle(7))
    assert np.array_equal(a, sample_grad(noisy, x_rows, 4, RunStreams(3, 8).oracle(7)))
    noise = RunStreams(3, 8).oracle(7).standard_normal((p.m, p.d))  # row i is agent i's
    for i in range(p.m):
        expect = grad_local(p, i, x_rows[i]) + noise[i] * (0.5 / math.sqrt(4 * p.d))
        assert np.array_equal(a[i], expect)
    later = sample_grad(noisy, x_rows, 4, RunStreams(3, 8).oracle(8))
    assert not np.any(a == later)

    for bad in (np.zeros((p.m + 1, p.d)), np.zeros(p.d), np.zeros((1, p.m, p.d))):
        with pytest.raises(ValueError, match="agent matrix"):
            sample_grad(p, bad, 4, RunStreams(3).oracle(0))


# --- offsets and heterogeneity ---------------------------------------------------

def test_offsets_centered_and_scaled_to_zeta():
    p = make_quadratic(d=6, curvature=1.0, m=5, zeta=0.8, sigma=0.0, seed=3)
    assert np.allclose(p.offsets.sum(axis=0), 0.0, atol=1e-12)
    norms = np.linalg.norm(p.offsets, axis=1)
    assert norms.max() <= 0.8
    assert norms.max() >= 0.8 * (1.0 - 1e-9)


def test_offsets_zero_when_homogeneous():
    for p in (
        make_quadratic(d=3, curvature=1.0, m=4, zeta=0.0, sigma=0.0, seed=3),
        make_quadratic(d=3, curvature=1.0, m=1, zeta=0.9, sigma=0.0, seed=3),
    ):
        assert np.all(p.offsets == 0.0)


def test_offsets_read_only():
    p = make_quadratic(d=3, curvature=1.0, m=4, zeta=0.5, sigma=0.0, seed=3)
    with pytest.raises(ValueError):
        p.offsets[0, 0] = 1.0


def test_dissimilarity_equals_max_offset_norm():
    for p in INSTANCES:
        expect = float(np.linalg.norm(p.offsets, axis=1).max())
        assert dissimilarity_measured(p, trials=16, seed=4) == pytest.approx(expect, rel=1e-12)
        assert expect <= p.zeta


def reference_dissimilarity_measured(p, trials=32, seed=0):
    """The defining loop of dissimilarity_measured: one sampled point per step."""
    gen = derive_stream(StreamKey(seed, "dissimilarity", 0, 0))
    worst = 0.0
    for _ in range(trials):
        g = grad_base(p, gen.uniform(-p.box_radius, p.box_radius, size=p.d))
        gap = (g + p.offsets) - g
        worst = max(worst, float(np.sqrt(np.vecdot(gap, gap)).max()))
    return worst


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_dissimilarity_matches_reference_loop(seed):
    for p in INSTANCES:
        for trials in (1, 32):
            expect = reference_dissimilarity_measured(p, trials=trials, seed=seed)
            assert dissimilarity_measured(p, trials=trials, seed=seed) == expect, p.family


def test_global_objective_ignores_offsets():
    # offsets sum to zero, so the average objective equals the base objective
    p = make_exp_pair(d=4, rate=1.0, m=5, zeta=0.6, sigma=0.0, seed=8)
    q = make_exp_pair(d=4, rate=1.0, m=1, zeta=0.0, sigma=0.0, seed=8)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=4)
        assert f_base(p, x) == pytest.approx(f_base(q, x), rel=1e-12)
        assert np.allclose(grad_base(p, x), grad_base(q, x), atol=1e-12)


# --- quadratic local minimum vs a gradient-descent oracle -------------------------

def quadratic_local_minimum(p, i):
    """Closed-form minimizer and value of agent i's quadratic objective."""
    c = p.family_params["curvature"]
    return -p.offsets[i] / c, -float(np.dot(p.offsets[i], p.offsets[i])) / (2.0 * c)


def test_quadratic_local_minimum_matches_descent_oracle():
    p = make_quadratic(d=4, curvature=2.0, m=3, zeta=1.0, sigma=0.0, seed=11)
    for i in range(p.m):
        x_star, f_min = quadratic_local_minimum(p, i)
        x = np.zeros(p.d)
        for _ in range(200):
            x = x - 0.4 * grad_local(p, i, x)
        assert np.allclose(x, x_star, atol=1e-8)
        assert f_local(p, i, x_star) == pytest.approx(f_min, abs=1e-12)
        # first-order optimality
        assert np.linalg.norm(grad_local(p, i, x_star)) <= 1e-12


# --- smoothness certification ----------------------------------------------------

def test_built_instances_pass_their_own_certificate():
    for p in INSTANCES:
        report = check_relaxed_smooth(
            lambda x: grad_base(p, x), p.d, p.l0, p.l1,
            region=p.box_radius, trials=400, seed=5,
        )
        assert report.passed, f"{p.family}: ratio {report.worst_ratio}"
        # the certificate also covers each offset objective
        report_local = check_relaxed_smooth(
            lambda x: grad_local(p, 0, x), p.d, p.l0, p.l1,
            region=p.box_radius, trials=400, seed=6,
        )
        assert report_local.passed, f"{p.family} local: ratio {report_local.worst_ratio}"


def test_exp_pair_l0_exceeds_curvature_bound():
    p = make_exp_pair(d=10, rate=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    assert p.l0 >= 1.0 / 10.0
    # the certified value stays within an order of magnitude of the start
    assert p.l0 <= 10.0 / 10.0


def test_check_relaxed_smooth_flags_undersized_l0():
    # cosh with certificate (0, 1/log 2): violated at x = 0, y = log 2 where
    # the bound is zero but the gradient gap is sinh(log 2) = 3/4
    grad = lambda x: np.sinh(x)  # noqa: E731
    witness = (np.zeros(1), np.array([LOG2]))
    report = check_relaxed_smooth(
        grad, 1, 0.0, 1.0 / LOG2, region=2.0, trials=300, seed=0,
        extra_pairs=[witness],
    )
    assert not report.passed
    assert report.violations >= 1
    assert report.worst_gap == pytest.approx(0.75, rel=1e-12)
    assert np.array_equal(report.witness_x, witness[0])
    assert np.array_equal(report.witness_y, witness[1])
    # 3/(4 log 2), the l0 actually needed at this l1
    assert report.implied_l0 >= 0.75 / LOG2 * (1.0 - 1e-9)


def reference_smoothness_probe_pairs(dim, l1, region):
    """The axis probes of check_relaxed_smooth, built one pair at a time."""
    step = min(1.0 / l1, region) if l1 > 0 else region / 3.0
    pairs = []
    base_points = np.linspace(0.0, max(region - step, 0.0), num=6)
    for j in range(min(dim, 8)):
        for u in base_points:
            for sign in (1.0, -1.0):
                x = np.zeros(dim)
                y = np.zeros(dim)
                x[j] = sign * u
                y[j] = sign * (u + step)
                pairs.append((x, y))
    return pairs


def reference_check_relaxed_smooth(
    grad, dim, l0, l1, region=5.0, trials=1000, seed=0, extra_pairs=()
):
    """The defining per-pair loop of check_relaxed_smooth: grad at one point per call."""
    # looked up on the module, so a stream patched in there reaches both versions
    gen = problems.derive_stream(StreamKey(seed, "smoothness", 0, 0))
    rmax = min(1.0 / l1, 2.0 * region * math.sqrt(dim)) if l1 > 0 else None

    pairs = []
    for t in range(trials):
        x = gen.uniform(-region, region, size=dim)
        if rmax is None:
            y = gen.uniform(-region, region, size=dim)
        else:
            direction = gen.standard_normal(dim)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                direction = np.zeros(dim)
                direction[0] = 1.0
                norm = 1.0
            direction /= norm
            dist = rmax if t % 10 == 0 else gen.uniform(0.0, rmax)
            y = x + dist * direction
            for _ in range(32):
                if np.abs(y).max() <= region:
                    break
                dist *= 0.5
                y = x + dist * direction
            else:
                y = x
        pairs.append((x, y))

    pairs.extend(reference_smoothness_probe_pairs(dim, l1, region))
    for x, y in extra_pairs:
        pairs.append((np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)))

    worst_key = (-math.inf, -math.inf)
    worst = (np.zeros(dim), np.zeros(dim), 0.0, 0.0)
    violations = 0
    implied = -math.inf
    for x, y in pairs:
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            continue
        gx = np.asarray(grad(x), dtype=np.float64)
        gy = np.asarray(grad(y), dtype=np.float64)
        gap = float(np.linalg.norm(gx - gy))
        bound = (l0 + l1 * float(np.linalg.norm(gx))) * dist
        if gap > bound * (1.0 + RATIO_TOL) + 1e-12:
            violations += 1
        if bound > 0.0:
            ratio = gap / bound
        else:
            ratio = math.inf if gap > 0.0 else 0.0
        implied = max(implied, gap / dist - l1 * float(np.linalg.norm(gx)))
        if (ratio, gap) > worst_key:
            worst_key = (ratio, gap)
            worst = (x, y, gap, bound)
    if not math.isfinite(implied):
        implied = 0.0 if implied == -math.inf else implied
    return {
        "passed": violations == 0,
        "worst_ratio": worst_key[0] if worst_key[0] != -math.inf else 0.0,
        "witness_x": worst[0],
        "witness_y": worst[1],
        "worst_gap": worst[2],
        "worst_bound": worst[3],
        "violations": violations,
        "trials": len(pairs),
        "implied_l0": implied,
    }


# each family's m = 1 certification stub at dimension d
STUB_MAKERS = {
    "exp_pair": lambda d: make_exp_pair(d=d, rate=1.0, m=1, zeta=0.0, sigma=0.0, seed=0),
    "poly_even": lambda d: make_poly_even(d=d, power=4, scale=0.5, m=1, zeta=0.0, sigma=0.0, seed=0),
    "quadratic": lambda d: make_quadratic(d=d, curvature=1.5, m=1, zeta=0.0, sigma=0.0, seed=0),
}

SINH_WITNESS = (np.zeros(1), np.array([LOG2]))

# (grad, dim, l0, l1, keyword arguments) per case
REFERENCE_CASES = {
    "one-trial": (np.sinh, 3, 0.5, 1.0, {"region": 2.0, "trials": 1, "seed": 2}),
    "uniform-y": (np.sinh, 4, 1.0, 0.0, {"region": 1.5, "trials": 1500, "seed": 3}),
    "sinh-witness": (
        np.sinh, 1, 0.0, 1.0 / LOG2,
        {"region": 2.0, "trials": 1500, "seed": 0, "extra_pairs": [SINH_WITNESS]},
    ),
    "equal-extra-pair": (
        np.sinh, 3, 0.2, 1.0,
        {"region": 2.0, "trials": 50, "seed": 1, "extra_pairs": [(np.ones(3), np.ones(3))]},
    ),
    # rmax = 2 region sqrt(10) is about six times the box: most pairs halve
    "halvings": (np.sinh, 10, 0.1, 0.1, {"region": 0.05, "trials": 1500, "seed": 4}),
    # l1 covers every pair on its own, so the largest implied l0 is negative
    "negative-implied-l0": (np.exp, 3, 0.0, 2.0, {"region": 2.0, "trials": 300, "seed": 3}),
}


def _assert_same_report(report, expect):
    for name, value in expect.items():
        got = getattr(report, name)
        if name.startswith("witness"):
            assert np.array_equal(got, value), name
        else:
            assert got == value, (name, got, value)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_check_relaxed_smooth_matches_reference_loop(case):
    args, kwargs = REFERENCE_CASES[case][:-1], REFERENCE_CASES[case][-1]
    report = check_relaxed_smooth(*args, **kwargs)
    _assert_same_report(report, reference_check_relaxed_smooth(*args, **kwargs))


class _BoxFaceStream:
    """A smoothness stream whose points have their first coordinate on the box face.

    A pair whose direction points out through that face stays outside the box
    however often its distance is halved, so it uses up all 32 halvings and
    falls back to y = x; the other pairs stop halving early.
    """

    def __init__(self, gen):
        self._gen = gen

    def uniform(self, low, high, size=None):
        out = self._gen.uniform(low, high, size)
        if size is not None:
            out[0] = math.copysign(high, out[0])
        return out

    def standard_normal(self, size):
        return self._gen.standard_normal(size)


def test_check_relaxed_smooth_exhausted_halvings_match_reference_loop(monkeypatch):
    monkeypatch.setattr(problems, "derive_stream", lambda key: _BoxFaceStream(derive_stream(key)))
    args = (np.sinh, 3, 0.1, 1.0)
    kwargs = {"region": 1.0, "trials": 200, "seed": 5}
    report = check_relaxed_smooth(*args, **kwargs)
    _assert_same_report(report, reference_check_relaxed_smooth(*args, **kwargs))


@pytest.mark.parametrize("l1", [0.0, 1.0])
def test_check_relaxed_smooth_calls_grad_once_per_side(l1):
    shapes = []

    def grad(x):
        shapes.append(np.shape(x))
        return np.sinh(x)

    report = check_relaxed_smooth(grad, 3, 0.5, l1, region=2.0, trials=100, seed=0)
    assert len(shapes) == 2
    assert shapes[0] == shapes[1]
    assert len(shapes[0]) == 2 and shapes[0][1] == 3
    assert shapes[0][0] <= report.trials


@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize("family", sorted(STUB_MAKERS))
def test_certification_matches_reference_loop(family, d):
    """Each family's certification stub, at its certified l0 and below it."""
    p = STUB_MAKERS[family](d)
    grad = lambda x: grad_base(p, x)  # noqa: E731
    for l0 in (p.l0, 0.5 * p.l0):
        args = (grad, d, l0, p.l1)
        kwargs = {"region": p.box_radius, "trials": CERTIFY_TRIALS, "seed": 0}
        report = check_relaxed_smooth(*args, **kwargs)
        _assert_same_report(report, reference_check_relaxed_smooth(*args, **kwargs))


def reference_certified_l0(stub, l0_start, seed):
    """The two-pass certification: one full check_relaxed_smooth per candidate l0.

    Each pass draws the same seeded pairs and evaluates their gradients again;
    a failing candidate is raised to 1.2 times the largest l0 over all pairs.
    """
    grad = lambda x: grad_base(stub, x)  # noqa: E731
    l0 = l0_start
    for _ in range(6):
        report = check_relaxed_smooth(
            grad, stub.d, l0, stub.l1, region=stub.box_radius, trials=CERTIFY_TRIALS,
            seed=seed,
        )
        if report.passed:
            return l0
        l0 = max(l0 * 1.05, report.implied_l0 * 1.2)
    raise RuntimeError("did not stabilize")


@pytest.mark.parametrize("seed", [0, 1, 9])
@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize(
    "family, value",
    [("exp_pair", rate) for rate in (0.25, 0.5, 1.0, 2.0, 5.0)]
    + [("poly_even", power) for power in (4, 6, 8)],
)
def test_certified_l0_matches_two_pass_reference(family, value, d, seed):
    # the pair that binds l0 violates at every earlier candidate here, so
    # raising l0 by the violating pairs or by all pairs gives the same l0
    if family == "exp_pair":
        p = make_exp_pair(d=d, rate=value, m=1, zeta=0.0, sigma=0.0, seed=seed)
        l0_start = value * value / d
    else:
        p = make_poly_even(d=d, power=value, scale=0.5, m=1, zeta=0.0, sigma=0.0, seed=seed)
        l0_start = 0.5 * (value - 1)
    assert p.l0 == reference_certified_l0(p, l0_start, seed)


@pytest.mark.parametrize("rate", [0.25, 1.0, 10.0, 20.0, 60.0, 70.0])
def test_exp_pair_l0_is_set_by_the_zero_probe(rate):
    # the binding pair is x = 0, y = (log 2 / rate) e_j, which implies
    # l0 = sinh(log 2) / log 2 * rate^2 / d; pairs at large |rate x| whose
    # implied l0 is rounding noise within RATIO_TOL must not inflate it
    p = make_exp_pair(d=10, rate=rate, m=1, zeta=0.0, sigma=0.0, seed=0)
    expected = 1.2 * math.sinh(LOG2) / LOG2 * rate * rate / 10
    assert p.l0 == pytest.approx(expected, rel=1e-9)


def test_certification_overflow_is_a_value_error():
    # at rate 71 on the box of radius 5, ||grad||^2 exceeds the float64 range
    with pytest.raises(ValueError, match="overflow float64"):
        make_exp_pair(d=10, rate=71.0, m=1, zeta=0.0, sigma=0.0, seed=0)


def test_exp_overflow_guard():
    # evaluation outside the certification box is allowed (box exits are the
    # runner's concern) until the exponent would overflow a double
    p = make_exp_pair(d=2, rate=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    assert math.isfinite(f_base(p, np.array([699.0, 0.0])))
    with pytest.raises(ValueError, match="safe range"):
        f_base(p, np.array([701.0, 0.0]))
    with pytest.raises(ValueError, match="safe range"):
        grad_base(p, np.array([0.0, -701.0]))
    # the error names the first row out of range
    rows = np.zeros((4, 2))
    rows[2, 1] = 701.0
    rows[3, 0] = -800.0
    with pytest.raises(ExpRangeError, match="safe range") as err:
        f_base(p, rows)
    assert err.value.row == 2


def test_factory_validation():
    with pytest.raises(ValueError, match="rate"):
        make_exp_pair(d=2, rate=0.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    with pytest.raises(ValueError, match="even integer"):
        make_poly_even(d=2, power=3, scale=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    with pytest.raises(ValueError, match="even integer"):
        make_poly_even(d=2, power=2, scale=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    with pytest.raises(ValueError, match="curvature"):
        make_quadratic(d=2, curvature=-1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    with pytest.raises(ValueError, match="box_radius"):
        make_poly_even(d=2, power=4, scale=1.0, m=1, zeta=0.0, sigma=0.0, seed=0, box_radius=0.0)
    with pytest.raises(ValueError, match="positive integer"):
        make_quadratic(d=0, curvature=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    with pytest.raises(ValueError, match="agent"):
        grad_local(make_quadratic(d=2, curvature=1.0, m=2, zeta=0.0, sigma=0.0, seed=0), 2, np.zeros(2))


# --- hypothesis properties ------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4))
def test_global_is_mean_of_locals(coords):
    x = np.array(coords)
    for p in INSTANCES:
        f_mean = np.mean([f_local(p, i, x) for i in range(p.m)])
        assert f_base(p, x) == pytest.approx(float(f_mean), rel=1e-9, abs=1e-9)
        g_mean = np.mean([grad_local(p, i, x) for i in range(p.m)], axis=0)
        assert np.allclose(grad_base(p, x), g_mean, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4))
def test_global_objective_dominates_infimum(coords):
    x = np.array(coords)
    for p in INSTANCES:
        assert f_base(p, x) >= p.f_star - 1e-12
