"""Graphs and Metropolis mixing matrices against hand-computed oracles."""

import math

import numpy as np
import pytest

from dnsgd.topology import (
    ClauseResult,
    DisconnectedTopologyError,
    Graph,
    MixingMatrix,
    build_topology,
    degrees,
    is_connected,
    metropolis_mixing,
    validate_mixing,
)

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
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
    assert degrees(g).tolist() == [1, 2, 2, 2, 1]


def test_single_agent_degenerate():
    g = build_topology("ring", 1)
    assert g.edges == frozenset()
    mix = metropolis_mixing(g)
    assert mix.w.shape == (1, 1)
    assert mix.w[0, 0] == 1.0
    assert mix.lambda2 == 0.0
    assert validate_mixing(mix).passed


def test_erdos_renyi_connected_by_independent_bfs():
    for seed in range(10):
        g = build_topology("erdos_renyi", 12, p=0.3, seed=seed)
        assert is_connected(g.m, g.edges)
        for i, j in g.edges:
            assert 0 <= i < j < g.m


def test_erdos_renyi_deterministic_in_seed():
    a = build_topology("erdos_renyi", 10, p=0.4, seed=5)
    b = build_topology("erdos_renyi", 10, p=0.4, seed=5)
    c = build_topology("erdos_renyi", 10, p=0.4, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


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
    g = Graph(m=4, edges=frozenset({(0, 1)}), kind="path")
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
