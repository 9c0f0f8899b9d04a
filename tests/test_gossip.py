"""Gossip routines: contraction, mean preservation, frozen spectral values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import worst_case_contraction
from hypothesis.extra.numpy import arrays

from dnsgd import gossip
from dnsgd.gossip import (
    CLOSED_FORM_MIN_M,
    RHO_FLOOR,
    _acc_mixers,
    _chebyshev_gains,
    _plain_mixer,
    acc_gossip,
    chebyshev_weight,
    consensus_error,
    contraction,
    plain_gossip,
)
from dnsgd.topology import MixingMatrix, build_topology, metropolis_mixing

RING4 = metropolis_mixing(build_topology("ring", 4))
RING8 = metropolis_mixing(build_topology("ring", 8))


def reference_acc_gossip(y0, mix, k):
    """The defining recursion of acc_gossip: k products with W."""
    eta_w = chebyshev_weight(mix.lambda2)
    y_prev = y = np.asarray(y0, dtype=np.float64)
    for _ in range(k):
        y_prev, y = y, (1.0 + eta_w) * (mix.w @ y) - eta_w * y_prev
    return y


@pytest.mark.parametrize("kind", ["ring", "path", "complete", "erdos_renyi"])
@pytest.mark.parametrize("m", [1, 2, 3, 6, 8, 16, 64, 191])
def test_acc_gossip_matches_recursion(monkeypatch, kind, m):
    # depth k is k products with W, what Method.cost charges, on both routes:
    # a closed-form ring or path (three agents or more) mixes by one product
    # with p_k(W) below CLOSED_FORM_MIN_M agents, and by FFT once the
    # threshold is lowered to its size
    p = 0.5 if kind == "erdos_renyi" else None
    mix = metropolis_mixing(build_topology(kind, m, p=p, seed=m))
    rng = np.random.default_rng(m)
    y0 = rng.standard_normal((m, 5))
    for threshold in [CLOSED_FORM_MIN_M, m] if mix.closed_form else [CLOSED_FORM_MIN_M]:
        monkeypatch.setattr(gossip, "CLOSED_FORM_MIN_M", threshold)
        for k in (0, 1, 3, 15, 21, 200):
            err = np.linalg.norm(acc_gossip(y0, mix, k) - reference_acc_gossip(y0, mix, k))
            assert err <= 1e-12 * np.linalg.norm(y0), (kind, m, threshold, k, err)


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12, 16, 191])
def test_ring_basis_diagonalises_the_ring(monkeypatch, m):
    # the ring's real Fourier map, rfft and irfft with the closed-form
    # eigenvalue at each frequency, rebuilds W, and its materialised kernels
    # replace eigh, whose basis of each pair of equal eigenvalues depends on
    # the BLAS kernel
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called for a ring")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    mix = metropolis_mixing(build_topology("ring", m))
    lam, forward, inverse = gossip._spectral_map(mix)
    assert np.abs(inverse(lam[:, None] * forward(np.eye(m))) - mix.w).max() <= 1e-14
    y0 = np.random.default_rng(m).standard_normal((m, 3))
    assert np.abs(acc_gossip(y0, mix, 5) - reference_acc_gossip(y0, mix, 5)).max() <= 1e-13


def test_acc_gossip_rejects_nonsymmetric_mixing():
    # half identity, half cyclic shift: doubly stochastic but not symmetric
    w = 0.5 * np.eye(4) + 0.5 * np.roll(np.eye(4), 1, axis=1)
    mix = MixingMatrix.from_matrix(w)
    assert np.allclose(w.sum(axis=0), 1.0) and np.allclose(w.sum(axis=1), 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        acc_gossip(np.ones((4, 2)), mix, 3)


def test_chebyshev_weight_frozen_value():
    # lambda2 = sqrt(5)/3 makes sqrt(1 - lambda2^2) = 2/3, so the weight is
    # (1 - 2/3) / (1 + 2/3) = 1/5
    assert chebyshev_weight(math.sqrt(5.0) / 3.0) == pytest.approx(0.2, abs=1e-15)
    assert chebyshev_weight(0.0) == 0.0


def test_contraction_frozen_values():
    # depth 0 is the identity, which contracts nothing
    assert contraction(RING4, 0) == 1.0
    # the 4-ring's eigenvalues are 1/3, 2/3, 2/3 and 1, and eta_w = (7 - 3 sqrt(5)) / 2,
    # so one round maps 2/3 to (1 + eta_w) 2/3 - eta_w = (sqrt(5) - 1) / 2 and 1/3 lower
    assert contraction(RING4, 1) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
    # a complete graph's eigenvalues are 1/2 and 1, where r = sqrt(eta_w) = 2 - sqrt(3)
    complete = metropolis_mixing(build_topology("complete", 6))
    r = 2.0 - math.sqrt(3.0)
    for k in (1, 2, 7):
        assert contraction(complete, k) == pytest.approx(r**k * (1.0 + k * (1.0 - r)), rel=1e-13)
    # not monotone while it is near 1: a long path's rises above 1 before it falls
    path = metropolis_mixing(build_topology("path", 256))
    assert contraction(path, 2) > 1.1 > contraction(path, 1)


def test_contraction_is_floored_where_rounding_binds():
    assert contraction(RING8, 200) == RHO_FLOOR  # p_200 reads about 1e-38 there
    assert contraction(RING8, 20) > RHO_FLOOR
    # one agent is always in consensus: only the floor is left
    assert contraction(metropolis_mixing(build_topology("ring", 1)), 3) == RHO_FLOOR
    with pytest.raises(ValueError, match="non-negative integer"):
        contraction(RING8, -1)


@pytest.mark.parametrize("kind", ["ring", "path", "complete", "erdos_renyi"])
@pytest.mark.parametrize("m", [2, 8, 64, 256])
def test_contraction_never_exceeds_the_worst_case_bound(kind, m):
    # the paper's worst-case factor bounds the exact one above the rounding floor
    mix = metropolis_mixing(build_topology(kind, m, p=0.3 if kind == "erdos_renyi" else None))
    for k in range(3000):
        bound = max(worst_case_contraction(mix.lambda2, k), RHO_FLOOR)
        assert contraction(mix, k) <= bound, k


def test_plain_gossip_one_hot_reads_matrix_column():
    y0 = np.zeros((4, 1))
    y0[0, 0] = 1.0
    out = plain_gossip(y0, RING4, 1)
    assert np.allclose(out[:, 0], [2 / 3, 1 / 6, 0.0, 1 / 6], atol=1e-15)


def test_plain_gossip_composes_bitwise():
    rng = np.random.default_rng(0)
    y0 = rng.standard_normal((4, 3))
    once_then_twice = plain_gossip(plain_gossip(y0, RING4, 2), RING4, 1)
    assert np.array_equal(plain_gossip(y0, RING4, 3), once_then_twice)
    assert np.array_equal(plain_gossip(y0, RING4, 0), y0)


def test_consensus_is_fixed_point():
    y0 = np.tile([1.5, -2.0, 0.25], (8, 1))
    for k in (0, 1, 5):
        assert np.allclose(acc_gossip(y0, RING8, k), y0, atol=1e-12)
        assert np.allclose(plain_gossip(y0, RING8, k), y0, atol=1e-12)
    assert consensus_error(y0) == 0.0


@pytest.mark.parametrize("shape", [(4, 6), (256, 10)])
def test_consensus_error_of_a_stack_equals_per_matrix_norms(shape):
    y = np.random.default_rng(8).standard_normal((5, *shape))
    per_matrix = [
        float(np.linalg.norm(np.ravel(yi - yi.mean(axis=0, keepdims=True)), axis=-1)) for yi in y
    ]
    assert [consensus_error(yi) for yi in y] == per_matrix
    assert consensus_error(y).tolist() == per_matrix


def test_acc_gossip_contraction_bound_ring4():
    rng = np.random.default_rng(42)
    for trial in range(20):
        y0 = rng.standard_normal((4, 6)) * 10.0
        e0 = consensus_error(y0)
        for k in range(21):
            ek = consensus_error(acc_gossip(y0, RING4, k))
            assert ek <= contraction(RING4, k) * e0 * (1.0 + 1e-12)


def test_acc_gossip_deep_run_reaches_consensus():
    rng = np.random.default_rng(3)
    y0 = rng.standard_normal((8, 5))
    out = acc_gossip(y0, RING8, 200)
    assert consensus_error(out) <= 1e-8 * consensus_error(y0)
    assert np.allclose(out.mean(axis=0), y0.mean(axis=0), atol=1e-10)


def test_acc_gossip_beats_plain_gossip_on_slow_graph():
    ring16 = metropolis_mixing(build_topology("ring", 16))
    rng = np.random.default_rng(9)
    y0 = rng.standard_normal((16, 4))
    k = 30
    acc = consensus_error(acc_gossip(y0, ring16, k))
    plain = consensus_error(plain_gossip(y0, ring16, k))
    assert acc < plain / 10.0


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        (8, 3),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    st.integers(min_value=0, max_value=12),
)
def test_mean_preserved_for_any_input(y0, k):
    out = acc_gossip(y0, RING8, k)
    scale = max(1.0, float(np.abs(y0).max()))
    assert np.allclose(out.mean(axis=0), y0.mean(axis=0), atol=1e-10 * scale)


def test_argument_validation():
    y0 = np.zeros((4, 2))
    with pytest.raises(ValueError):
        acc_gossip(y0, RING4, -1)
    with pytest.raises(ValueError):
        acc_gossip(y0, RING4, True)
    with pytest.raises(ValueError):
        acc_gossip(np.zeros((3, 2)), RING4, 1)  # row count mismatch
    with pytest.raises(ValueError):
        acc_gossip(np.array([1.0, 2.0, 3.0, 4.0]), RING4, 1)  # not 2-d
    with pytest.raises(ValueError):
        chebyshev_weight(1.0)
    with pytest.raises(ValueError):
        chebyshev_weight(-0.1)


def recursion_gains(lam, lambda2, k):
    """acc_gossip's recursion run on the eigenvalues: k rounds."""
    eta_w = chebyshev_weight(lambda2)
    prev = gains = np.ones_like(lam)
    for _ in range(k):
        prev, gains = gains, (1.0 + eta_w) * (lam * gains) - eta_w * prev
    return gains


# lambda2 of the ring at m = 2, and the closed-form lambda2 that runs read at
# m = 8 (criterion 3) and at m = 256. The recursion's own consensus gain drifts
# off 1 by rounding (1 - 9.4e-12 at m = 256 and depth 2658), so the consensus
# gain is held to exactly 1 and the recursion compared on the other eigenvalues.
@pytest.mark.parametrize(
    "lambda2", [0.5, *(metropolis_mixing(build_topology("ring", m)).lambda2 for m in (8, 256))]
)
def test_closed_form_gains_match_the_recursion(lambda2):
    lam = np.append(np.linspace(0.0, lambda2, 1001), 1.0)
    for k in (0, 1, 3, 64, 2658):
        gains = _chebyshev_gains(lam, lambda2, k)
        assert gains[-1] == 1.0, k
        assert np.abs(gains[:-1] - recursion_gains(lam[:-1], lambda2, k)).max() <= 1e-12, k


@pytest.mark.parametrize("kind", ["ring", "path"])
@pytest.mark.parametrize("m", [CLOSED_FORM_MIN_M, CLOSED_FORM_MIN_M + 1, 256])
def test_fourier_mixers_match_the_dense_route(kind, m):
    mix = metropolis_mixing(build_topology(kind, m))
    assert mix.closed_form and "w" not in vars(mix)
    # the same W on the dense route: one eigh of the built matrix
    dense = MixingMatrix.from_matrix(mix.w, mix.graph)
    rng = np.random.default_rng(m)
    y, stack = rng.standard_normal((m, 10)), rng.standard_normal((3, m, 10))
    ks = (0, 1, 64, 2658)
    for k, fourier, spectral in zip(ks, _acc_mixers(mix, *ks), _acc_mixers(dense, *ks)):
        out = fourier(y)
        assert out.shape == y.shape
        assert np.abs(out - spectral(y)).max() <= 1e-10, k
        assert np.abs(out.mean(axis=0) - y.mean(axis=0)).max() <= 1e-14, k
        stacked = fourier(stack)
        for s in range(len(stack)):
            assert stacked[s].tobytes() == fourier(stack[s]).tobytes(), k
    plain = _plain_mixer(mix)(y)
    assert np.abs(plain - mix.w @ y).max() <= 1e-12
    assert np.abs(plain.mean(axis=0) - y.mean(axis=0)).max() <= 1e-14
    assert np.abs(plain_gossip(y, mix, 3) - plain_gossip(y, dense, 3)).max() <= 1e-12
