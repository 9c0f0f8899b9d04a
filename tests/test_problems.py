"""Objective families: frozen values, finite-difference and Monte-Carlo oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnsgd.problems import (
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
from dnsgd.streams import RunStreams

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
    # objectives stay point-only: a row matrix would collapse to one scalar
    with pytest.raises(ValueError, match="shape"):
        f_base(p, x)


# --- stochastic oracle vs its documented tolerances ----------------------------

def test_sample_grad_mean_and_variance():
    p = make_quadratic(d=3, curvature=1.0, m=2, zeta=0.4, sigma=0.5, seed=7)
    x = np.array([0.3, -1.1, 0.7])
    exact = grad_local(p, 0, x)
    b, n = 4, 20_000
    streams = RunStreams(555)
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
    a = sample_grad(p, x, 3, RunStreams(9).oracle(5))
    b = sample_grad(p, x, 3, RunStreams(9).oracle(5))
    assert np.array_equal(a, b)
    c = sample_grad(p, x, 3, RunStreams(9).oracle(6))
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

    noisy = replace(p, sigma=0.5)
    a = sample_grad(noisy, x_rows, 4, RunStreams(3).oracle(7))
    assert np.array_equal(a, sample_grad(noisy, x_rows, 4, RunStreams(3).oracle(7)))
    noise = RunStreams(3).oracle(7).standard_normal((p.m, p.d))  # row i is agent i's
    for i in range(p.m):
        expect = grad_local(p, i, x_rows[i]) + noise[i] * (0.5 / math.sqrt(4 * p.d))
        assert np.array_equal(a[i], expect)
    later = sample_grad(noisy, x_rows, 4, RunStreams(3).oracle(8))
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


def test_exp_overflow_guard():
    # evaluation outside the certification box is allowed (box exits are the
    # runner's concern) until the exponent would overflow a double
    p = make_exp_pair(d=2, rate=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    assert math.isfinite(f_base(p, np.array([699.0, 0.0])))
    with pytest.raises(ValueError, match="safe range"):
        f_base(p, np.array([701.0, 0.0]))
    with pytest.raises(ValueError, match="safe range"):
        grad_base(p, np.array([0.0, -701.0]))


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
