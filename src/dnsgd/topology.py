"""Communication graphs and doubly stochastic mixing matrices.

A graph is a symmetric boolean adjacency matrix with a zero diagonal.
Supported kinds: ring, path, complete, and connected Erdos-Renyi
(resampled until connected, bounded retries). Mixing matrices use lazy
Metropolis weights, which are symmetric, doubly stochastic, and
positive semidefinite on any connected graph. Graphs, connectivity and
weights are built with array operations, and each mixing matrix takes
one eigvalsh of its symmetric part, which lambda2 and validation share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .problems import PARAMS, Param, check_fields
from .streams import StreamKey, derive_stream

KINDS = ("ring", "path", "complete", "erdos_renyi")

# The rule of erdos_renyi's edge probability; no other kind takes one.
_EDGE_PROBABILITY = Param(False, "an edge probability in (0, 1]", lambda v: 0.0 < v <= 1.0)

# Erdos-Renyi draws tried before a disconnected topology is reported.
MAX_RETRIES = 100

# Eigenvalues within this distance of 1.0 count as the consensus eigenvalue
# when checking that null(I - W) is one-dimensional.
_NULLSPACE_TOL = 1e-8

# Largest |w_ij - w_ji| that still counts as a symmetric matrix.
_SYMMETRY_TOL = 1e-12


class DisconnectedTopologyError(ValueError):
    """Raised when a connected graph cannot be produced."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on agents 0..m-1: a symmetric boolean adjacency, zero diagonal.

    Graphs compare by identity; compare adjacency matrices with np.array_equal.
    """

    adjacency: np.ndarray
    kind: str
    p: float | None = None

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2


def is_connected(adjacency: np.ndarray) -> bool:
    """Breadth-first connectivity check from agent 0, one frontier at a time."""
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def edge_probability_error(kind: str, p: float | None) -> str | None:
    """How p breaks the edge-probability rule of a graph of this kind, or None if it keeps it."""
    if kind == "erdos_renyi":
        return _EDGE_PROBABILITY.error(p)
    return None if p is None else f"only applies to erdos_renyi, not {kind!r}"


def build_topology(
    kind: str,
    m: int,
    p: float | None = None,
    seed: int = 0,
) -> Graph:
    """Build a connected graph of the requested kind.

    Args:
        kind: one of ring, path, complete, erdos_renyi.
        m: number of agents, held to problems.PARAMS["m"].
        p: edge probability, required exactly for erdos_renyi, in (0, 1]
            (edge_probability_error).
        seed: master seed for the topology stream (erdos_renyi only).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown topology kind {kind!r} (known: {', '.join(KINDS)})")
    check_fields({"m": PARAMS["m"]}, {"m": m})
    error = edge_probability_error(kind, p)
    if error is not None:
        raise ValueError(f"p {error}")

    if kind == "complete":
        return Graph(~np.eye(m, dtype=bool), kind)
    if kind != "erdos_renyi":
        # the path's links (i, i + 1); a ring of three or more closes (0, m - 1)
        upper = np.eye(m, k=1, dtype=bool)
        if kind == "ring" and m > 2:
            upper[0, m - 1] = True
        return Graph(upper | upper.T, kind)

    # one uniform draw per pair i < j, in row-major order
    gen = derive_stream(StreamKey(seed, "topology"))
    pairs = np.triu_indices(m, k=1)
    for _ in range(MAX_RETRIES):
        adjacency = np.zeros((m, m), dtype=bool)
        adjacency[pairs] = gen.random(pairs[0].size) < p
        adjacency |= adjacency.T
        if is_connected(adjacency):
            return Graph(adjacency, kind, p)
    raise DisconnectedTopologyError(
        f"disconnected topology: no connected Erdos-Renyi(m={m}, p={p}) draw "
        f"within {MAX_RETRIES} retries (seed {seed})"
    )


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Symmetric doubly stochastic matrix with its spectral summary.

    lambda2 is the second largest eigenvalue and gamma = 1 - lambda2 the
    spectral gap. For m = 1 there is no second eigenvalue; lambda2 is 0
    by convention (a single agent is always in consensus). Mixing matrices
    compare by identity, as graphs do.
    """

    w: np.ndarray
    lambda2: float
    gamma: float
    # eigvalsh of the symmetric part (w + w^T) / 2, which lambda2 is read from
    eigenvalues: np.ndarray = field(repr=False)
    graph: Graph | None = None

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @classmethod
    def from_matrix(cls, w: np.ndarray, graph: Graph | None = None) -> "MixingMatrix":
        """Wrap a matrix with the eigenvalues of its symmetric part and lambda2.

        The matrix is taken as-is; use validate_mixing to test whether it
        actually satisfies the mixing assumptions.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
        # Kept apart from gossip's eigh: eigh's eigenvalues differ from
        # eigvalsh's in the last bits, and lambda2 feeds the calculator.
        eigs = np.linalg.eigvalsh((w + w.T) / 2.0)
        lam2 = 0.0 if w.shape[0] == 1 else float(np.sort(eigs)[-2])
        return cls(w=w, lambda2=lam2, gamma=1.0 - lam2, eigenvalues=eigs, graph=graph)


def metropolis_mixing(g: Graph) -> MixingMatrix:
    """Lazy Metropolis mixing matrix for a connected graph.

    Off-diagonal weight for edge (i, j) is 1 / (2 * (1 + max(deg_i, deg_j)));
    the diagonal absorbs the remainder so rows sum to one. The lazy (I + W')/2
    step keeps all eigenvalues in [0, 1].
    """
    if not is_connected(g.adjacency):
        raise ValueError("metropolis_mixing requires a connected graph")
    deg = g.adjacency.sum(axis=1)
    i, j = np.nonzero(g.adjacency)
    base = np.zeros((g.m, g.m), dtype=np.float64)
    base[i, j] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(base, 1.0 - base.sum(axis=1))
    w = (np.eye(g.m) + base) / 2.0
    return MixingMatrix.from_matrix(w, graph=g)


class ClauseResult(NamedTuple):
    passed: bool
    violation: float


class ValidationReport(NamedTuple):
    """Outcome of validate_mixing, one clause per mixing assumption."""

    clauses: dict[str, ClauseResult]
    lambda2: float
    gamma: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses.values())


def validate_mixing(mix: MixingMatrix) -> ValidationReport:
    """Check the mixing assumptions clause by clause.

    Clauses: symmetry, non-negative entries, sparsity pattern matching the
    graph (skipped when no graph is attached), row and column sums equal to
    one within 1e-12, eigenvalues in [0, 1] within 1e-10, and a
    one-dimensional nullspace of I - W.
    """
    w = mix.w
    m = w.shape[0]
    clauses: dict[str, ClauseResult] = {}

    asym = float(np.abs(w - w.T).max()) if m > 1 else 0.0
    clauses["symmetry"] = ClauseResult(asym <= _SYMMETRY_TOL, asym)

    neg = float(max(0.0, -w.min()))
    clauses["nonnegative"] = ClauseResult(neg <= 1e-12, neg)

    if mix.graph is not None:
        # over the pairs i < j: a missing edge weight counts as 1.0, a stray
        # off-edge entry as its magnitude
        pairs = np.triu_indices(m, k=1)
        adjacent, weights = mix.graph.adjacency[pairs], w[pairs]
        missing = bool((weights[adjacent] == 0.0).any())
        stray = np.abs(weights[~adjacent])
        stray = stray[stray > 1e-15]
        worst = max(1.0 if missing else 0.0, float(stray.max()) if stray.size else 0.0)
        clauses["sparsity_pattern"] = ClauseResult(not missing and stray.size == 0, worst)

    row_err = float(np.abs(w.sum(axis=1) - 1.0).max())
    col_err = float(np.abs(w.sum(axis=0) - 1.0).max())
    stoch = max(row_err, col_err)
    clauses["doubly_stochastic"] = ClauseResult(stoch <= 1e-12, stoch)

    eigs = mix.eigenvalues
    low = float(max(0.0, -eigs.min()))
    high = float(max(0.0, eigs.max() - 1.0))
    range_err = max(low, high)
    clauses["eigenvalue_range"] = ClauseResult(range_err <= 1e-10, range_err)

    near_one = int(np.sum(eigs >= 1.0 - _NULLSPACE_TOL))
    clauses["nullspace_dimension"] = ClauseResult(near_one == 1, float(near_one - 1))

    return ValidationReport(clauses=clauses, lambda2=mix.lambda2, gamma=mix.gamma)
