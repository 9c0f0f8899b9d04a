"""Gossip averaging primitives.

acc_gossip(Y, W, K) is defined by the Chebyshev-accelerated consensus
recursion

    Y(k+1) = (1 + eta_w) * W @ Y(k) - eta_w * Y(k-1),   Y(-1) = Y(0),

with eta_w = (1 - sqrt(1 - lambda2^2)) / (1 + sqrt(1 - lambda2^2)), run for
k = 0..K inclusive: K + 1 mixing rounds, which the communication counters
charge. The result is the fixed polynomial p_K(W) applied to Y. W is
symmetric, W = Q diag(lam) Q^T, so the implementation evaluates it
spectrally as Q (p_K(lam) * (Q^T Y)): the same recursion runs on the
eigenvalue vector to give the gains p_K(lam), once each time the map is
bound, and each call costs two products with Q instead of K + 1 with W. One
eigh serves every depth bound together (_acc_mixers). The contraction bound
below is stated for exponent K and the returned matrix can only be tighter.
Column means are preserved in exact arithmetic because W is doubly
stochastic.

plain_gossip is the unaccelerated W^k map used by the baseline optimizers.

Each public map checks its arguments and then runs what a run uses without
checks: _acc_mixers, or products with W. The optimizers bind the accelerated
kernel, or W itself, once per run and apply it to (S, m, d) stacks of states;
a run tests its state for finiteness once per iteration, not each mix.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .problems import _row_norms
from .topology import _SYMMETRY_TOL, MixingMatrix

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


def _acc_mixers(mix: MixingMatrix, *ks: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The kernels of acc_gossip(., mix, k) for each k, from one eigh of mix.w.

    Each maps an (m, n) matrix, or an (S, m, n) stack of them, and does not
    check its input. A stack's matmuls make one gemm per (m, n) slice, the same
    call as for that slice alone, so a stacked slice equals its own mix bit for bit.
    eigh reads one triangle only, so a non-symmetric w is rejected rather
    than diagonalised wrongly.
    """
    asym = float(np.abs(mix.w - mix.w.T).max())
    if asym > _SYMMETRY_TOL:
        raise ValueError(
            f"spectral gossip needs a symmetric mixing matrix, got max |w_ij - w_ji| = {asym:.3g}"
        )
    lam, q = np.linalg.eigh(mix.w)
    eta_w = chebyshev_weight(mix.lambda2)
    qt = q.T

    def bind(k: int) -> Callable[[np.ndarray], np.ndarray]:
        # the gains p_k(lam): the recursion of acc_gossip run on the eigenvalues
        prev = gains = np.ones_like(lam)
        for _ in range(k + 1):
            prev, gains = gains, (1.0 + eta_w) * (lam * gains) - eta_w * prev
        gains = gains[:, None]

        def apply(y0: np.ndarray) -> np.ndarray:
            z = qt @ y0
            z *= gains
            return q @ z

        return apply

    return [bind(k) for k in ks]


def acc_gossip(y0: np.ndarray, mix: MixingMatrix, k: int) -> np.ndarray:
    """Accelerated gossip: the map of k + 1 Chebyshev rounds, applied spectrally."""
    _check_rounds(k)
    return _acc_mixers(mix, k)[0](_check_agent_matrix(y0, mix))


def plain_gossip(y0: np.ndarray, mix: MixingMatrix, k: int) -> np.ndarray:
    """Unaccelerated gossip: returns W^k @ y0 (k = 0 returns a copy of y0)."""
    _check_rounds(k)
    y = _check_agent_matrix(y0, mix).copy()
    for _ in range(k):
        y = mix.w @ y
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
