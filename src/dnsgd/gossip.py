"""Gossip averaging primitives.

acc_gossip(Y, W, K) is defined by the Chebyshev-accelerated consensus
recursion

    Y(k+1) = (1 + eta_w) * W @ Y(k) - eta_w * Y(k-1),   Y(-1) = Y(0),

with eta_w = (1 - sqrt(1 - lambda2^2)) / (1 + sqrt(1 - lambda2^2)), run for
k = 0..K inclusive: K + 1 mixing rounds, which the communication counters
charge. The result is the fixed polynomial p_K(W) applied to Y. W is
symmetric, W = Q diag(lam) Q^T, so the implementation evaluates it
spectrally as Q (p_K(lam) * (Q^T Y)): the gains p_K(lam) are computed once
each time the map is bound, and each call transforms Y into the eigenbasis,
scales it and transforms it back. Two routes give the eigenbasis:

- dense, for every graph below topology.CLOSED_FORM_MIN_M agents and for
  complete and Erdos-Renyi graphs: one eigh of W serves every depth bound
  together (_acc_mixers); the gains come from the recursion run on the
  eigenvalue vector, and each call makes two products with Q instead of
  K + 1 with W.
- Fourier, for a ring or path of at least CLOSED_FORM_MIN_M agents
  (mix.closed_form): a ring's W is circulant, so the real DFT along the agent
  axis diagonalises it, with the closed-form eigenvalue
  2/3 + cos(2 pi j / m) / 3 at frequency j; a path runs as the 2m-ring on
  its mirror image [Y; Y[::-1]], keeping the first m rows. The gains come
  from the Chebyshev closed form in O(m) (_chebyshev_gains), the DC gain is
  exactly 1, and each call is one rfft and one irfft: no W, no eigh, no BLAS.

The contraction bound below is stated for exponent K and the returned matrix
can only be tighter. Column means are preserved in exact arithmetic because W
is doubly stochastic.

plain_gossip is the unaccelerated W^k map used by the baseline optimizers;
its round (_plain_mixer) is a product with W on the dense route and the
gains lam on the Fourier route.

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

# Contraction bound constants: error after k accelerated rounds is at most
# sqrt(14) * (1 - (1 - 1/sqrt(2)) * sqrt(1 - lambda2))^k times the initial
# deviation from consensus.
C1 = math.sqrt(14.0)
C2 = 1.0 - 1.0 / math.sqrt(2.0)


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
    """The gains p_k(lam) of acc_gossip in closed form, for 0 < lambda2 < 1.

    Each lam lies in [0, lambda2], or is 1, whose gain is exactly 1. With
    r = sqrt(eta_w), the recursion is r^n times the Chebyshev recursion in
    cos(theta) = lam / lambda2, so after its n = k + 1 rounds

        p_k(lam) = r^n (cos(n theta) + (cos(theta) - r) sin(n theta) / sin(theta)),

    with sin(n theta) / sin(theta) = n at theta = 0. theta is taken from
    h = 1 - lam / lambda2, which is exact for lam near lambda2.
    """
    r, n = math.sqrt(chebyshev_weight(lambda2)), k + 1
    h = np.maximum((lambda2 - lam) / lambda2, 0.0)
    theta = 2.0 * np.arcsin(np.sqrt(h / 2.0))
    sin = np.sqrt(h * (2.0 - h))
    ratio = np.divide(np.sin(n * theta), sin, out=np.full_like(sin, n), where=sin > 0.0)
    gains = r**n * (np.cos(n * theta) + (1.0 - r - h) * ratio)
    return np.where(lam == 1.0, 1.0, gains)


def _eigenbasis(mix: MixingMatrix) -> tuple[np.ndarray, Callable, Callable]:
    """mix's eigenvalues and the unchecked maps into and out of its eigenbasis.

    Dense route: lam and Q from one eigh of W, the maps products with Q^T and
    Q. A stack's matmuls make one gemm per (m, n) slice, the same call as for
    that slice alone, so a stacked slice equals its own mix bit for bit. eigh
    reads one triangle only, so a non-symmetric w is rejected rather than
    diagonalised wrongly.

    Fourier route (a closed-form ring or path): lam per rfft frequency, the
    maps rfft and irfft over the agent axis. A ring of m agents transforms at
    length m; a path runs as the 2m-ring on its mirror image, whose frequency
    m is zero. pocketfft transforms each column by itself, so a stacked slice
    equals its own mix bit for bit.
    """
    if not mix.closed_form:
        asym = float(np.abs(mix.w - mix.w.T).max())
        if asym > _SYMMETRY_TOL:
            raise ValueError(
                "spectral gossip needs a symmetric mixing matrix, "
                f"got max |w_ij - w_ji| = {asym:.3g}"
            )
        lam, q = np.linalg.eigh(mix.w)
        return lam, functools.partial(np.matmul, q.T), functools.partial(np.matmul, q)
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
    """The kernels of acc_gossip(., mix, k) for each k, from one eigenbasis of mix.

    Each maps an (m, n) matrix, or an (S, m, n) stack of them, and does not
    check its input.
    """
    lam, forward, inverse = _eigenbasis(mix)
    eta_w = chebyshev_weight(mix.lambda2)

    def gains(k: int) -> np.ndarray:
        if mix.closed_form:
            return _chebyshev_gains(lam, mix.lambda2, k)
        # the recursion of acc_gossip run on the eigenvalues
        prev = out = np.ones_like(lam)
        for _ in range(k + 1):
            prev, out = out, (1.0 + eta_w) * (lam * out) - eta_w * prev
        return out

    return [_spectral_kernel(forward, inverse, gains(k)) for k in ks]


def _plain_mixer(mix: MixingMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """One unchecked plain gossip round Y -> W Y, of an (m, n) matrix or an (S, m, n) stack."""
    if mix.closed_form:
        lam, forward, inverse = _eigenbasis(mix)
        return _spectral_kernel(forward, inverse, lam)
    return functools.partial(np.matmul, mix.w)


def acc_gossip(y0: np.ndarray, mix: MixingMatrix, k: int) -> np.ndarray:
    """Accelerated gossip: the map of k + 1 Chebyshev rounds, applied spectrally."""
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


def contraction_rho(lambda2: float, k: int) -> float:
    """Worst-case consensus contraction factor after k accelerated rounds."""
    if not 0.0 <= lambda2 < 1.0:
        raise ValueError(f"lambda2 must lie in [0, 1), got {lambda2}")
    _check_rounds(k)
    return C1 * (1.0 - C2 * math.sqrt(1.0 - lambda2)) ** k


def min_rounds_for_rho(lambda2: float, rho_target: float) -> int:
    """Smallest k with contraction_rho(lambda2, k) <= rho_target."""
    if rho_target <= 0.0:
        raise ValueError("rho_target must be positive")
    if rho_target >= C1:
        return 0
    base = 1.0 - C2 * math.sqrt(1.0 - lambda2)
    k = math.ceil(math.log(rho_target / C1) / math.log(base))
    # Guard against float edge cases at the ceiling boundary.
    while contraction_rho(lambda2, k) > rho_target:
        k += 1
    return k


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
