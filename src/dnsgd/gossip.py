"""Gossip averaging primitives and the contraction of an accelerated mix.

acc_gossip(Y, mix, k) is defined by the Chebyshev-accelerated consensus
recursion

    Y(n+1) = (1 + eta_w) * W @ Y(n) - eta_w * Y(n-1),   Y(-1) = Y(0),

with eta_w = (1 - sqrt(1 - lambda2^2)) / (1 + sqrt(1 - lambda2^2)), run for
n = 0..k-1: depth k is k products with W, the rounds the communication
counters charge (depth 0 is the identity). The result is the polynomial
p_k(W) applied to Y. W being symmetric, it is inverse(p_k(lam) * forward(Y))
in W's one spectral map (_spectral_map), whose eigenvalues lam are
mix.eigenvalues: rfft and irfft along the agent axis for a closed-form ring,
whose W is circulant; the same for a closed-form path, run as the 2m-ring on
its mirror image [Y; Y[::-1]], keeping the first m rows; and products with
eigh's Q^T and Q for every other matrix. The gains p_k(lam) come from the
Chebyshev closed form in O(m) (_chebyshev_gains), the consensus eigenvector's
exactly 1. The kernel is applied in one of two ways:

- Fourier, for a closed-form ring or path of at least CLOSED_FORM_MIN_M
  agents: each call is one rfft and one irfft, with no W and no BLAS.
- dense, for every other matrix: the kernel is materialised once per depth
  as the m x m matrix p_k(W) = kernel(I), and each call is one product with it.

contraction(mix, k), the rho of the calculator, its guard, a run's consensus
check and its reports, is how far a depth-k mix shrinks any distance from
consensus. Column means are preserved in exact arithmetic because W is
doubly stochastic.

plain_gossip is the unaccelerated W^k map used by the baseline optimizers;
its round (_plain_mixer) is the gains lam on the Fourier route and a product
with W on the dense one.

Each public map checks its arguments and then runs what a run uses without
checks: _acc_mixers or _plain_mixer. The optimizers bind the accelerated
kernel, or the plain round, once per run and apply it to (S, m, d) stacks of
states; a run tests its state for finiteness once per iteration, not each mix.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .problems import _row_norms
from .topology import _SYMMETRY_TOL, MixingMatrix, _ring_spectrum

# Closed-form rings and paths with at least this many agents mix by FFT;
# smaller ones, like every other graph, by one product with p_k(W). Measured
# per mix at one BLAS thread (d = 10): a ring's FFT mix costs 16-37 us at any
# m up to 256, against a dense accelerated mix that passes it between 160 and
# 192 agents and a plain W round that meets it at about 192.
CLOSED_FORM_MIN_M = 192

# The smallest contraction a mix is credited with: a float64 mix leaves a few
# ulps of its input's scale off consensus whatever p_k(lam) reads. The
# criterion-3 ring (m = 8, entries of order one) keeps 7.3e-15 at depth 1000,
# where p_k reads 3e-42 and an unfloored consensus check fails; 1e-12 is over
# a hundred times that rounding.
RHO_FLOOR = 1e-12


def _check_rounds(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError(f"round count must be a non-negative integer, got {k!r}")


def _check_agent_matrix(y: np.ndarray, mix: MixingMatrix) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"agent matrix must be 2-d (agents x coords), got ndim {y.ndim}")
    if y.shape[0] != mix.m:
        raise ValueError(
            f"agent matrix has {y.shape[0]} rows but the mixing matrix couples {mix.m} agents"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("agent matrix contains non-finite entries")
    return y


def chebyshev_weight(lambda2: float) -> float:
    """Momentum weight of the accelerated recursion for a given lambda2."""
    if not 0.0 <= lambda2 < 1.0:
        raise ValueError(f"lambda2 must lie in [0, 1), got {lambda2}")
    s = math.sqrt(1.0 - lambda2 * lambda2)
    return (1.0 - s) / (1.0 + s)


def _chebyshev_gains(lam: np.ndarray, lambda2: float, k: int) -> np.ndarray:
    """The gains p_k(lam) of a depth-k acc_gossip in closed form, for 0 <= lambda2 < 1.

    Each lam lies in [-lambda2, lambda2] or is the consensus eigenvalue,
    lambda2 being read from the same eigenvalues: any lam above
    (1 + lambda2) / 2 gets gain exactly 1. With r = sqrt(eta_w), the
    recursion is r^k times the Chebyshev recursion in
    cos(theta) = lam / lambda2, so after its k rounds

        p_k(lam) = r^k (cos(k theta) + (cos(theta) - r) sin(k theta) / sin(theta)),

    with sin(k theta) / sin(theta) = k at theta = 0. theta is taken from
    h = 1 - lam / lambda2, which is exact for lam near lambda2. At lambda2 = 0
    (one agent) eta_w is 0 and p_k(lam) = lam^k.
    """
    if lambda2 == 0.0:
        return lam**k
    r = math.sqrt(chebyshev_weight(lambda2))
    h = np.maximum((lambda2 - lam) / lambda2, 0.0)
    theta = 2.0 * np.arcsin(np.sqrt(h / 2.0))
    sin = np.sqrt(h * (2.0 - h))
    ratio = np.divide(np.sin(k * theta), sin, out=np.full_like(sin, k), where=sin > 0.0)
    gains = r**k * (np.cos(k * theta) + (1.0 - r - h) * ratio)
    return np.where(lam > (1.0 + lambda2) / 2.0, 1.0, gains)


def contraction(mix: MixingMatrix, k: int) -> float:
    """The factor by which a depth-k acc_gossip shrinks any distance from consensus.

    max |p_k(lam)| over mix.eigenvalues but the consensus eigenvalue (the
    largest), and at least RHO_FLOOR. Not monotone in k while it is near 1.
    """
    _check_rounds(k)
    gains = _chebyshev_gains(mix.eigenvalues[:-1], mix.lambda2, k)
    return max(float(np.abs(gains).max(initial=0.0)), RHO_FLOOR)


def _spectral_map(mix: MixingMatrix) -> tuple[np.ndarray, Callable, Callable]:
    """mix's eigenvalues and the unchecked maps into and out of its eigenbasis.

    A closed-form ring or path: lam per rfft frequency, the maps rfft and
    irfft over the agent axis. A ring of m agents transforms at length m; a
    path runs as the 2m-ring on its mirror image, whose frequency m is zero.
    pocketfft transforms each column by itself, so a stacked slice equals its
    own mix bit for bit.

    Any other matrix: lam is mix.eigenvalues and the maps are products with
    Q^T and Q, mix.eigenvectors. The eigenvectors are those of the symmetric
    part, so a non-symmetric w is rejected rather than diagonalised wrongly.
    """
    if not mix.closed_form:
        asym = float(np.abs(mix.w - mix.w.T).max())
        if asym > _SYMMETRY_TOL:
            raise ValueError(
                "spectral gossip needs a symmetric mixing matrix, "
                f"got max |w_ij - w_ji| = {asym:.3g}"
            )
        q = mix.eigenvectors
        return mix.eigenvalues, functools.partial(np.matmul, q.T), functools.partial(np.matmul, q)
    m = mix.m
    if mix.graph.kind == "ring":
        return (
            _ring_spectrum(m),
            functools.partial(np.fft.rfft, axis=-2),
            functools.partial(np.fft.irfft, n=m, axis=-2),
        )

    def mirrored(y: np.ndarray) -> np.ndarray:
        return np.fft.rfft(np.concatenate([y, y[..., ::-1, :]], axis=-2), axis=-2)

    def first_half(z: np.ndarray) -> np.ndarray:
        return np.fft.irfft(z, n=2 * m, axis=-2)[..., :m, :]

    return _ring_spectrum(2 * m), mirrored, first_half


def _fourier(mix: MixingMatrix) -> bool:
    """Whether mix's kernels run as transforms rather than as products with p_k(W)."""
    return mix.closed_form and mix.m >= CLOSED_FORM_MIN_M


def _spectral_kernel(
    forward: Callable, inverse: Callable, gains: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Y -> inverse(gains * forward(Y)), of an (m, n) matrix or an (S, m, n) stack, unchecked."""
    gains = gains[:, None]

    def apply(y0: np.ndarray) -> np.ndarray:
        z = forward(y0)
        z *= gains
        return inverse(z)

    return apply


def _acc_mixers(mix: MixingMatrix, *ks: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The kernels of acc_gossip(., mix, k) for each k, from mix's one spectral map.

    Each maps an (m, n) matrix, or an (S, m, n) stack of them, and does not
    check its input. Off the Fourier route each is one product with its
    materialised p_k(W); a stack's matmul makes one gemm per (m, n) slice, the
    same call as for that slice alone, so a stacked slice equals its own mix
    bit for bit.
    """
    lam, forward, inverse = _spectral_map(mix)
    kernels = [
        _spectral_kernel(forward, inverse, _chebyshev_gains(lam, mix.lambda2, k)) for k in ks
    ]
    if _fourier(mix):
        return kernels
    eye = np.eye(mix.m)
    return [functools.partial(np.matmul, kernel(eye)) for kernel in kernels]


def _plain_mixer(mix: MixingMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """One unchecked plain gossip round Y -> W Y, of an (m, n) matrix or an (S, m, n) stack."""
    if _fourier(mix):
        lam, forward, inverse = _spectral_map(mix)
        return _spectral_kernel(forward, inverse, lam)
    return functools.partial(np.matmul, mix.w)


def acc_gossip(y0: np.ndarray, mix: MixingMatrix, k: int) -> np.ndarray:
    """Accelerated gossip: the map of k Chebyshev rounds, applied spectrally."""
    _check_rounds(k)
    return _acc_mixers(mix, k)[0](_check_agent_matrix(y0, mix))


def plain_gossip(y0: np.ndarray, mix: MixingMatrix, k: int) -> np.ndarray:
    """Unaccelerated gossip: returns W^k @ y0 (k = 0 returns a copy of y0)."""
    _check_rounds(k)
    y = _check_agent_matrix(y0, mix).copy()
    round_ = _plain_mixer(mix)
    for _ in range(k):
        y = round_(y)
    return y


def consensus_error(y: np.ndarray) -> float | np.ndarray:
    """Frobenius distance of an agent matrix (m, d) from its row average.

    A stack (n, m, d) gives the (n,) distances of its matrices. The norm is
    _row_norms of the flattened deviation, numpy's pairwise sum, so a
    stacked matrix's distance equals its own bit for bit.
    """
    y = np.asarray(y, dtype=np.float64)
    dev = (y - y.mean(axis=-2, keepdims=True)).reshape(*y.shape[:-2], -1)
    err = _row_norms(dev)
    return float(err) if y.ndim == 2 else err
