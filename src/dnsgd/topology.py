"""Communication graphs and doubly stochastic mixing matrices.

A graph is a symmetric boolean adjacency matrix with a zero diagonal.
Supported kinds: ring, path, complete, and connected Erdos-Renyi
(resampled until connected, bounded retries). Mixing matrices use lazy
Metropolis weights, which are symmetric, doubly stochastic, and
positive semidefinite on any connected graph. Graphs, connectivity and
weights are built with array operations.

Each mixing matrix holds one spectrum, which lambda2, gamma, the contraction
and gossip's gains all read. A ring or path of at least three agents takes it
in closed form: its lazy-Metropolis matrix is the n-ring's circulant stencil
(1/6, 2/3, 1/6) (n = m), or that stencil on the path's mirror image (n = 2m),
so its eigenvalues are 2/3 + cos(2 pi j / n) / 3, and neither its adjacency
nor W is built unless something reads them. Every other matrix takes one eigh,
whose eigenvectors gossip mixes with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .problems import PARAMS, Param, check_fields
from .streams import derive_stream

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

    Graph(adjacency, kind) holds the adjacency it is given. A ring, path or
    complete graph from build_topology holds none: it is its kind and its
    size m, and builds its adjacency when first read. Graphs compare
    by identity; compare adjacency matrices with np.array_equal.
    """

    given: np.ndarray | None
    kind: str
    size: int = 0

    @property
    def m(self) -> int:
        return self.size if self.given is None else self.given.shape[0]

    @functools.cached_property
    def adjacency(self) -> np.ndarray:
        if self.given is not None:
            return self.given
        if self.kind == "complete":
            return ~np.eye(self.m, dtype=bool)
        # the path's links (i, i + 1); a ring of three or more closes (0, m - 1)
        upper = np.eye(self.m, k=1, dtype=bool)
        if self.kind == "ring" and self.m > 2:
            upper[0, self.m - 1] = True
        return upper | upper.T

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

    if kind != "erdos_renyi":
        return Graph(None, kind, size=m)

    # one uniform draw per pair i < j, in row-major order
    gen = derive_stream(seed, "topology")
    pairs = np.triu_indices(m, k=1)
    for _ in range(MAX_RETRIES):
        adjacency = np.zeros((m, m), dtype=bool)
        adjacency[pairs] = gen.random(pairs[0].size) < p
        adjacency |= adjacency.T
        if is_connected(adjacency):
            return Graph(adjacency, kind)
    raise DisconnectedTopologyError(
        f"disconnected topology: no connected Erdos-Renyi(m={m}, p={p}) draw "
        f"within {MAX_RETRIES} retries (seed {seed})"
    )


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Symmetric doubly stochastic matrix with its one spectral decomposition.

    eigenvalues are ascending. lambda2, the second largest, and the spectral
    gap gamma = 1 - lambda2 are read from them; for m = 1 there is no second
    eigenvalue, and lambda2 is 0 by convention (a single agent is always in
    consensus). Mixing matrices compare by identity, as graphs do.

    A closed-form mixing matrix (dense is None) is a ring or path of at least
    three agents from metropolis_mixing: its eigenvalues are the closed form,
    its eigenbasis is the real Fourier basis of the ring or of the path's
    mirror image, and w is built from its graph only when read. Every other one
    holds its matrix and one eigh of the symmetric part: the eigenvalues, and
    the eigenvectors (columns) gossip mixes with.
    """

    eigenvalues: np.ndarray = field(repr=False)
    graph: Graph | None = None
    dense: np.ndarray | None = field(default=None, repr=False)
    eigenvectors: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda2(self) -> float:
        return 0.0 if self.m == 1 else float(self.eigenvalues[-2])

    @property
    def gamma(self) -> float:
        return 1.0 - self.lambda2

    @property
    def closed_form(self) -> bool:
        return self.dense is None

    @functools.cached_property
    def w(self) -> np.ndarray:
        return _metropolis_weights(self.graph.adjacency) if self.dense is None else self.dense

    @classmethod
    def from_matrix(cls, w: np.ndarray, graph: Graph | None = None) -> "MixingMatrix":
        """Wrap a matrix with one eigh of its symmetric part.

        The matrix is taken as-is; use validate_mixing to test whether it
        actually satisfies the mixing assumptions.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
        eigs, vecs = np.linalg.eigh((w + w.T) / 2.0)
        return cls(eigs, graph=graph, dense=w, eigenvectors=vecs)


def _ring_spectrum(n: int) -> np.ndarray:
    """The lazy-Metropolis n-ring's eigenvalue at each rfft frequency j = 0..n // 2.

    2/3 + cos(2 pi j / n) / 3, exactly 1 at j = 0; frequency n - j shares the
    value of j.
    """
    return 2.0 / 3.0 + np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n) / 3.0


def _metropolis_weights(adjacency: np.ndarray) -> np.ndarray:
    deg = adjacency.sum(axis=1)
    i, j = np.nonzero(adjacency)
    m = adjacency.shape[0]
    base = np.zeros((m, m), dtype=np.float64)
    base[i, j] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(base, 1.0 - base.sum(axis=1))
    return (np.eye(m) + base) / 2.0


def metropolis_mixing(g: Graph) -> MixingMatrix:
    """Lazy Metropolis mixing matrix for a connected graph.

    Off-diagonal weight for edge (i, j) is 1 / (2 * (1 + max(deg_i, deg_j)));
    the diagonal absorbs the remainder so rows sum to one. The lazy (I + W')/2
    step keeps all eigenvalues in [0, 1].

    A ring or path from build_topology (no given adjacency) of at least three
    agents gets its closed-form spectrum: eigenvalues 2/3 + cos(2 pi j / m) / 3
    (ring, frequencies j and m - j sharing a value) or 2/3 + cos(pi j / m) / 3,
    j < m (path), and lambda2 at j = 1. Its graph is connected by construction,
    and no m x m array is built. Any other graph takes MixingMatrix.from_matrix.
    """
    if g.given is None and g.kind in ("ring", "path") and g.m >= 3:
        n = g.m if g.kind == "ring" else 2 * g.m
        j = np.arange(g.m)
        return MixingMatrix(np.sort(_ring_spectrum(n)[np.minimum(j, n - j)]), graph=g)
    if not is_connected(g.adjacency):
        raise ValueError("metropolis_mixing requires a connected graph")
    return MixingMatrix.from_matrix(_metropolis_weights(g.adjacency), graph=g)


class ClauseResult(NamedTuple):
    passed: bool
    violation: float


class ValidationReport(NamedTuple):
    """Outcome of validate_mixing, one clause per mixing assumption."""

    clauses: dict[str, ClauseResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses.values())


def validate_mixing(mix: MixingMatrix) -> ValidationReport:
    """Check the mixing assumptions clause by clause.

    Clauses: symmetry, non-negative entries, sparsity pattern matching the
    graph (skipped when no graph is attached), row and column sums equal to
    one within 1e-12, eigenvalues in [0, 1] within 1e-10, and a
    one-dimensional nullspace of I - W. The checks read the dense W, built
    if the mixing matrix has a closed form, and the eigenvalue clauses read
    eigvalsh of its symmetric part, not mix.eigenvalues, so they check the
    spectrum a run mixes with independently.
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

    eigs = np.linalg.eigvalsh((w + w.T) / 2.0)
    low = float(max(0.0, -eigs.min()))
    high = float(max(0.0, eigs.max() - 1.0))
    range_err = max(low, high)
    clauses["eigenvalue_range"] = ClauseResult(range_err <= 1e-10, range_err)

    near_one = int(np.sum(eigs >= 1.0 - _NULLSPACE_TOL))
    clauses["nullspace_dimension"] = ClauseResult(near_one == 1, float(near_one - 1))

    return ValidationReport(clauses=clauses)
