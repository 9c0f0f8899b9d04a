"""Communication graphs and doubly stochastic mixing matrices.

Supported graph kinds: ring, path, complete, and connected Erdos-Renyi
(resampled until connected, bounded retries). Mixing matrices use lazy
Metropolis weights, which are symmetric, doubly stochastic, and
positive semidefinite on any connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .streams import StreamKey, derive_stream

KINDS = ("ring", "path", "complete", "erdos_renyi")

# Erdos-Renyi draws tried before a disconnected topology is reported.
MAX_RETRIES = 100

# Eigenvalues within this distance of 1.0 count as the consensus eigenvalue
# when checking that null(I - W) is one-dimensional.
_NULLSPACE_TOL = 1e-8

# Largest |w_ij - w_ji| that still counts as a symmetric matrix.
_SYMMETRY_TOL = 1e-12


class DisconnectedTopologyError(ValueError):
    """Raised when a connected graph cannot be produced."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph on agents 0..m-1 with edges stored as (i, j), i < j."""

    m: int
    edges: frozenset[tuple[int, int]]
    kind: str
    p: float | None = None


def degrees(g: Graph) -> np.ndarray:
    deg = np.zeros(g.m, dtype=np.int64)
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def is_connected(m: int, edges: frozenset[tuple[int, int]]) -> bool:
    """Breadth-first connectivity check."""
    if m <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(m)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * m
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    nxt.append(v)
        frontier = nxt
    return count == m


def _ring_edges(m: int) -> set[tuple[int, int]]:
    if m == 1:
        return set()
    if m == 2:
        return {(0, 1)}
    return {(i, (i + 1) % m) if i + 1 < m else (0, m - 1) for i in range(m)}


def _path_edges(m: int) -> set[tuple[int, int]]:
    return {(i, i + 1) for i in range(m - 1)}


def _complete_edges(m: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(m) for j in range(i + 1, m)}


def build_topology(
    kind: str,
    m: int,
    p: float | None = None,
    seed: int = 0,
) -> Graph:
    """Build a connected graph of the requested kind.

    Args:
        kind: one of ring, path, complete, erdos_renyi.
        m: number of agents, >= 1.
        p: edge probability, required exactly for erdos_renyi, in (0, 1].
        seed: master seed for the topology stream (erdos_renyi only).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown topology kind {kind!r} (known: {', '.join(KINDS)})")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"agent count must be a positive integer, got {m!r}")
    if kind == "erdos_renyi":
        if p is None or not (0.0 < p <= 1.0):
            raise ValueError("erdos_renyi requires edge probability p in (0, 1]")
    elif p is not None:
        raise ValueError(f"edge probability p only applies to erdos_renyi, not {kind!r}")

    if kind == "ring":
        return Graph(m, frozenset(_ring_edges(m)), kind)
    if kind == "path":
        return Graph(m, frozenset(_path_edges(m)), kind)
    if kind == "complete":
        return Graph(m, frozenset(_complete_edges(m)), kind)

    gen = derive_stream(StreamKey(seed, "topology", 0, 0))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for _ in range(MAX_RETRIES):
        draws = gen.random(len(pairs))
        edges = frozenset(pair for pair, u in zip(pairs, draws) if u < p)
        if is_connected(m, edges):
            return Graph(m, edges, kind, p)
    raise DisconnectedTopologyError(
        f"disconnected topology: no connected Erdos-Renyi(m={m}, p={p}) draw "
        f"within {MAX_RETRIES} retries (seed {seed})"
    )


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic matrix with its spectral summary.

    lambda2 is the second largest eigenvalue and gamma = 1 - lambda2 the
    spectral gap. For m = 1 there is no second eigenvalue; lambda2 is 0
    by convention (a single agent is always in consensus).
    """

    w: np.ndarray
    lambda2: float
    gamma: float
    graph: Graph | None = field(default=None, compare=False)
    # gossip.acc_gossip's gain vectors p_k(eigenvalues), keyed by the depth k
    acc_gains: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and orthonormal eigenvectors of w, from one eigh.

        eigh reads one triangle only, so a non-symmetric w is rejected
        rather than diagonalised wrongly.
        """
        asym = float(np.abs(self.w - self.w.T).max())
        if asym > _SYMMETRY_TOL:
            raise ValueError(
                f"spectral gossip needs a symmetric mixing matrix, "
                f"got max |w_ij - w_ji| = {asym:.3g}"
            )
        return np.linalg.eigh(self.w)

    @classmethod
    def from_matrix(cls, w: np.ndarray, graph: Graph | None = None) -> "MixingMatrix":
        """Wrap an externally supplied matrix, computing its spectrum.

        The matrix is taken as-is; use validate_mixing to test whether it
        actually satisfies the mixing assumptions. Accelerated gossip reads
        the spectrum, so it raises ValueError on a non-symmetric matrix.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
        lam2 = _second_eigenvalue(w)
        return cls(w=w, lambda2=lam2, gamma=1.0 - lam2, graph=graph)


def _second_eigenvalue(w: np.ndarray) -> float:
    # Kept apart from MixingMatrix.spectrum: eigh's eigenvalues differ from
    # eigvalsh's in the last bits, and lambda2 feeds the calculator.
    if w.shape[0] == 1:
        return 0.0
    eigs = np.linalg.eigvalsh((w + w.T) / 2.0)
    return float(np.sort(eigs)[-2])


def metropolis_mixing(g: Graph) -> MixingMatrix:
    """Lazy Metropolis mixing matrix for a connected graph.

    Off-diagonal weight for edge (i, j) is 1 / (2 * (1 + max(deg_i, deg_j)));
    the diagonal absorbs the remainder so rows sum to one. The lazy (I + W')/2
    step keeps all eigenvalues in [0, 1].
    """
    if not is_connected(g.m, g.edges):
        raise ValueError("metropolis_mixing requires a connected graph")
    deg = degrees(g)
    base = np.zeros((g.m, g.m), dtype=np.float64)
    for i, j in g.edges:
        wij = 1.0 / (1.0 + max(deg[i], deg[j]))
        base[i, j] = wij
        base[j, i] = wij
    np.fill_diagonal(base, 1.0 - base.sum(axis=1))
    w = (np.eye(g.m) + base) / 2.0
    lam2 = _second_eigenvalue(w)
    return MixingMatrix(w=w, lambda2=lam2, gamma=1.0 - lam2, graph=g)


@dataclass(frozen=True)
class ClauseResult:
    passed: bool
    violation: float


@dataclass(frozen=True)
class ValidationReport:
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
        edge_set = mix.graph.edges
        worst = 0.0
        ok = True
        for i in range(m):
            for j in range(i + 1, m):
                on_edge = (i, j) in edge_set
                if on_edge and w[i, j] == 0.0:
                    ok = False
                    worst = max(worst, 1.0)
                if not on_edge and abs(w[i, j]) > 1e-15:
                    ok = False
                    worst = max(worst, abs(float(w[i, j])))
        clauses["sparsity_pattern"] = ClauseResult(ok, worst)

    ones = np.ones(m)
    row_err = float(np.abs(w @ ones - ones).max())
    col_err = float(np.abs(ones @ w - ones).max())
    stoch = max(row_err, col_err)
    clauses["doubly_stochastic"] = ClauseResult(stoch <= 1e-12, stoch)

    eigs = np.linalg.eigvalsh((w + w.T) / 2.0)
    low = float(max(0.0, -eigs.min()))
    high = float(max(0.0, eigs.max() - 1.0))
    range_err = max(low, high)
    clauses["eigenvalue_range"] = ClauseResult(range_err <= 1e-10, range_err)

    near_one = int(np.sum(eigs >= 1.0 - _NULLSPACE_TOL))
    clauses["nullspace_dimension"] = ClauseResult(near_one == 1, float(near_one - 1))

    return ValidationReport(clauses=clauses, lambda2=mix.lambda2, gamma=mix.gamma)
