"""Graphs and Metropolis mixing matrices against hand-computed oracles.

The edge-set builders, the list breadth-first search and the per-edge
Metropolis loop below are the earlier implementation of the topology
module, kept as references: the array version must give the same graphs,
the same Erdos-Renyi retries and bit-identical W and lambda2.
"""

import math

import numpy as np
import pytest

from dnsgd.streams import StreamKey, derive_stream
from dnsgd.topology import (
    MAX_RETRIES,
    ClauseResult,
    DisconnectedTopologyError,
    Graph,
    MixingMatrix,
    build_topology,
    metropolis_mixing,
    validate_mixing,
)


def reference_is_connected(m, edges):
    """Breadth-first search over adjacency lists."""
    if m <= 1:
        return True
    adj = [[] for _ in range(m)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * m
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    nxt.append(v)
        frontier = nxt
    return count == m


def reference_edges(kind, m, p=None, seed=0):
    """The edge set {(i, j), i < j} of build_topology(kind, m, p, seed)."""
    if kind == "ring":
        if m == 1:
            return set()
        if m == 2:
            return {(0, 1)}
        return {(i, (i + 1) % m) if i + 1 < m else (0, m - 1) for i in range(m)}
    if kind == "path":
        return {(i, i + 1) for i in range(m - 1)}
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if kind == "complete":
        return set(pairs)
    gen = derive_stream(StreamKey(seed, "topology", 0, 0))
    for _ in range(MAX_RETRIES):
        draws = gen.random(len(pairs))
        edges = {pair for pair, u in zip(pairs, draws) if u < p}
        if reference_is_connected(m, edges):
            return edges
    raise DisconnectedTopologyError(
        f"disconnected topology: no connected Erdos-Renyi(m={m}, p={p}) draw "
        f"within {MAX_RETRIES} retries (seed {seed})"
    )


def reference_metropolis(m, edges):
    """Lazy Metropolis W, one edge at a time, and its lambda2."""
    deg = np.zeros(m, dtype=np.int64)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    base = np.zeros((m, m), dtype=np.float64)
    for i, j in edges:
        wij = 1.0 / (1.0 + max(deg[i], deg[j]))
        base[i, j] = wij
        base[j, i] = wij
    np.fill_diagonal(base, 1.0 - base.sum(axis=1))
    w = (np.eye(m) + base) / 2.0
    lam2 = 0.0 if m == 1 else float(np.sort(np.linalg.eigvalsh((w + w.T) / 2.0))[-2])
    return w, lam2


def graph_edges(g):
    """The pairs i < j that g's adjacency marks, as the reference edge set."""
    i, j = np.nonzero(np.triu(g.adjacency, k=1))
    return set(zip(i.tolist(), j.tolist()))


def assert_matches_reference(kind, m, p=None, seed=0):
    try:
        edges = reference_edges(kind, m, p, seed)
    except DisconnectedTopologyError as expected:
        with pytest.raises(DisconnectedTopologyError) as got:
            build_topology(kind, m, p=p, seed=seed)
        assert str(got.value) == str(expected)
        return
    g = build_topology(kind, m, p=p, seed=seed)
    adj = g.adjacency
    assert adj.dtype == bool and adj.shape == (m, m)
    assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
    assert graph_edges(g) == edges and g.num_edges == len(edges)
    mix = metropolis_mixing(g)
    w, lam2 = reference_metropolis(m, edges)
    assert mix.w.tobytes() == w.tobytes(), (kind, m, p, seed)
    assert mix.lambda2 == lam2 and mix.gamma == 1.0 - lam2
    assert mix.eigenvalues.tobytes() == np.linalg.eigvalsh((w + w.T) / 2.0).tobytes()


@pytest.mark.parametrize("kind", ["ring", "path", "complete"])
def test_deterministic_kinds_match_reference(kind):
    for m in [*range(1, 41), 64, 256]:
        assert_matches_reference(kind, m)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 12, 16, 30, 64])
def test_erdos_renyi_matches_reference(m):
    for p in (0.05, 0.2, 0.35, 0.6, 1.0):
        for seed in range(12):
            assert_matches_reference("erdos_renyi", m, p, seed)

# Lazy Metropolis ring on 4 agents: every degree is 2, so the raw Metropolis
# weight is 1/3 per edge and the lazy version W = (I + W')/2 has 2/3 on the
# diagonal and 1/6 per neighbor. Its eigenvalues follow from the circulant
# structure: (1 + 1/3 + (2/3) cos(2 pi k / 4)) / 2 for k = 0..3.
RING4_W = np.array(
    [
        [2 / 3, 1 / 6, 0.0, 1 / 6],
        [1 / 6, 2 / 3, 1 / 6, 0.0],
        [0.0, 1 / 6, 2 / 3, 1 / 6],
        [1 / 6, 0.0, 1 / 6, 2 / 3],
    ]
)
RING4_EIGS = np.array([1 / 3, 2 / 3, 2 / 3, 1.0])


def test_ring4_metropolis_entries_exact():
    mix = metropolis_mixing(build_topology("ring", 4))
    assert np.allclose(mix.w, RING4_W, atol=1e-15)


def test_ring4_eigenvalues_and_gap():
    mix = metropolis_mixing(build_topology("ring", 4))
    eigs = np.sort(np.linalg.eigvalsh(mix.w))
    assert np.allclose(eigs, RING4_EIGS, atol=1e-12)
    assert mix.lambda2 == pytest.approx(2 / 3, abs=1e-12)
    assert mix.gamma == pytest.approx(1 / 3, abs=1e-12)


def test_complete2_matrix_frozen():
    mix = metropolis_mixing(build_topology("complete", 2))
    assert np.allclose(mix.w, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)
    assert mix.lambda2 == pytest.approx(0.5, abs=1e-14)


def test_mixing_matrices_compare_by_identity():
    a = metropolis_mixing(build_topology("ring", 4))
    b = metropolis_mixing(build_topology("ring", 4))
    assert np.array_equal(a.w, b.w)
    assert a != b and not a == b
    assert a == a


def test_ring_gap_closed_form():
    # gamma(ring m) = (1 - cos(2 pi / m)) / 3 for the lazy Metropolis ring
    for m in (4, 8, 16, 32):
        mix = metropolis_mixing(build_topology("ring", m))
        expect = (1.0 - math.cos(2.0 * math.pi / m)) / 3.0
        assert mix.gamma == pytest.approx(expect, rel=1e-10)


def test_ring_gap_strictly_decreasing_in_m():
    gaps = [metropolis_mixing(build_topology("ring", m)).gamma for m in (4, 8, 16, 32)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_path_edges_and_degrees():
    g = build_topology("path", 5)
    assert graph_edges(g) == {(0, 1), (1, 2), (2, 3), (3, 4)}
    assert g.num_edges == 4
    assert g.adjacency.sum(axis=1).tolist() == [1, 2, 2, 2, 1]


def test_single_agent_degenerate():
    g = build_topology("ring", 1)
    assert g.adjacency.tolist() == [[False]] and g.num_edges == 0
    mix = metropolis_mixing(g)
    assert mix.w.shape == (1, 1)
    assert mix.w[0, 0] == 1.0
    assert mix.lambda2 == 0.0
    assert validate_mixing(mix).passed


def test_erdos_renyi_connected_by_independent_bfs():
    for seed in range(10):
        g = build_topology("erdos_renyi", 12, p=0.3, seed=seed)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert not g.adjacency.diagonal().any()
        assert reference_is_connected(g.m, graph_edges(g))


def test_erdos_renyi_deterministic_in_seed():
    a = build_topology("erdos_renyi", 10, p=0.4, seed=5)
    b = build_topology("erdos_renyi", 10, p=0.4, seed=5)
    c = build_topology("erdos_renyi", 10, p=0.4, seed=6)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert not np.array_equal(a.adjacency, c.adjacency)


def test_erdos_renyi_validation_sweep():
    for seed in range(100):
        g = build_topology("erdos_renyi", 10, p=0.35, seed=seed)
        report = validate_mixing(metropolis_mixing(g))
        assert report.passed, f"seed {seed}: {report.clauses}"


def test_erdos_renyi_hopeless_probability_raises():
    with pytest.raises(DisconnectedTopologyError, match="disconnected topology"):
        build_topology("erdos_renyi", 30, p=1e-6, seed=0)


def test_identity_matrix_fails_nullspace_clause():
    report = validate_mixing(MixingMatrix.from_matrix(np.eye(4)))
    assert not report.passed
    assert not report.clauses["nullspace_dimension"].passed
    # the other algebraic clauses hold for the identity
    assert report.clauses["symmetry"].passed
    assert report.clauses["doubly_stochastic"].passed


def test_nonstochastic_matrix_fails():
    w = np.array([[0.9, 0.2], [0.2, 0.9]])
    report = validate_mixing(MixingMatrix.from_matrix(w))
    assert not report.clauses["doubly_stochastic"].passed


def test_sparsity_clause_catches_offpattern_entry():
    g = build_topology("ring", 4)
    w = RING4_W.copy()
    # put mass on the non-edge (0, 2) while keeping the matrix symmetric
    w[0, 2] = w[2, 0] = 1 / 6
    w[0, 0] = w[2, 2] = 1 / 2
    report = validate_mixing(MixingMatrix.from_matrix(w, graph=g))
    assert not report.clauses["sparsity_pattern"].passed
    assert report.clauses["sparsity_pattern"].violation == 1 / 6


def test_sparsity_clause_with_missing_and_stray_weights():
    g = build_topology("ring", 4)
    w = RING4_W.copy()
    w[0, 1] = w[1, 0] = 0.0  # the edge (0, 1) carries no weight
    w[1, 3] = w[3, 1] = 0.25  # the non-edge (1, 3) does
    sparsity = validate_mixing(MixingMatrix.from_matrix(w, graph=g)).clauses["sparsity_pattern"]
    assert not sparsity.passed
    assert sparsity.violation == 1.0  # a missing weight counts as 1.0
    w[1, 3] = w[3, 1] = 1.5  # a stray entry above 1.0 sets the violation
    sparsity = validate_mixing(MixingMatrix.from_matrix(w, graph=g)).clauses["sparsity_pattern"]
    assert (sparsity.passed, sparsity.violation) == (False, 1.5)
    clean = validate_mixing(MixingMatrix.from_matrix(RING4_W, graph=g))
    assert clean.clauses["sparsity_pattern"] == ClauseResult(True, 0.0)


def test_metropolis_requires_connected_graph():
    adjacency = np.zeros((4, 4), dtype=bool)
    adjacency[0, 1] = adjacency[1, 0] = True
    g = Graph(adjacency, kind="path")
    with pytest.raises(ValueError, match="connected"):
        metropolis_mixing(g)


def test_argument_validation():
    with pytest.raises(ValueError, match="unknown topology kind"):
        build_topology("torus", 4)
    with pytest.raises(ValueError, match="positive integer"):
        build_topology("ring", 0)
    with pytest.raises(ValueError, match="edge probability"):
        build_topology("erdos_renyi", 4)
    with pytest.raises(ValueError, match="edge probability"):
        build_topology("erdos_renyi", 4, p=1.5)
    with pytest.raises(ValueError, match="only applies"):
        build_topology("ring", 4, p=0.5)


def test_complete_graph_fast_mixing():
    mix = metropolis_mixing(build_topology("complete", 16))
    assert mix.gamma > metropolis_mixing(build_topology("ring", 16)).gamma
