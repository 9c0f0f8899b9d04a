"""Update rules: hand-simulated trajectories, counters, and failure modes."""

import numpy as np
import pytest

from dnsgd.hyperparams import HyperParams
from dnsgd.optimizers import (
    ALGORITHMS,
    NonFiniteStateError,
    dnasa_schedule,
    normalize_rows,
    run,
)
from dnsgd.problems import make_exp_pair, make_poly_even, make_quadratic
from dnsgd.topology import build_topology, metropolis_mixing

RING4 = metropolis_mixing(build_topology("ring", 4))


def _hp(**kw):
    base = dict(eta=0.05, b=1, big_t=30, k_inner=3, k_init=2, epsilon=0.1)
    base.update(kw)
    return HyperParams(**base)


def test_normalize_rows_frozen():
    out = normalize_rows(np.array([[3.0, 4.0]]))
    assert out.tolist() == [[0.6, 0.8]]
    mixed = normalize_rows(np.array([[0.0, 0.0], [0.0, -2.0], [1e-15, 0.0]]))
    assert mixed[0].tolist() == [0.0, 0.0]
    assert mixed[1].tolist() == [0.0, -1.0]
    assert mixed[2].tolist() == [0.0, 0.0]  # below the norm cutoff
    with pytest.raises(ValueError, match="finite"):
        normalize_rows(np.array([[np.inf, 0.0]]))


def test_dnsgd_single_agent_hand_simulation():
    # one agent, gossip is the identity, noiseless quadratic f(x) = x^2 / 2:
    # the tracker equals the gradient and each step moves by eta * sign(x),
    # so from 2.0 with eta = 0.5 the iterates are 2, 1.5, 1, 0.5, 0, 0.
    p = make_quadratic(d=1, curvature=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    mix = metropolis_mixing(build_topology("ring", 1))
    hp = _hp(eta=0.5, big_t=5, k_inner=1, k_init=1)
    traj = run("dnsgd", p, hp, mix, np.array([2.0]), master_seed=1)
    assert [row.f_mean for row in traj.rows] == [2.0, 1.125, 0.5, 0.125, 0.0, 0.0]
    assert [row.grad_norm_mean for row in traj.rows] == [2.0, 1.5, 1.0, 0.5, 0.0, 0.0]
    # a single agent is always at consensus, so phi collapses to f
    assert [row.phi for row in traj.rows] == [row.f_mean for row in traj.rows]
    assert [row.samples_per_agent for row in traj.rows] == [1, 2, 3, 4, 5, 6]
    assert [row.comm_rounds for row in traj.rows] == [1, 3, 5, 7, 9, 11]


def test_dsgd_single_agent_geometric_decay():
    p = make_quadratic(d=1, curvature=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    mix = metropolis_mixing(build_topology("ring", 1))
    hp = _hp(eta=0.1, big_t=3)
    traj = run("dsgd", p, hp, mix, np.array([1.0]), master_seed=1)
    x = 1.0
    for row in traj.rows:
        assert row.grad_norm_mean == pytest.approx(x, rel=1e-14)
        x = x - 0.1 * x
    assert [row.comm_rounds for row in traj.rows] == [0, 1, 2, 3]


def test_dnsgd_mean_update_identity():
    # gossip preserves column means, so the averaged iterate must follow
    # xbar' = xbar - eta * mean(normalize_rows(V)) up to floating point
    p = make_quadratic(d=3, curvature=1.0, m=4, zeta=0.8, sigma=0.0, seed=2)
    hp = _hp(eta=0.04, big_t=25, k_inner=4, k_init=3)
    traj = run("dnsgd", p, hp, RING4, np.full(3, 1.5), master_seed=9, snapshot_every=1)
    for t in range(hp.big_t):
        x_t, v_t = traj.snapshots[t]
        x_next, _ = traj.snapshots[t + 1]
        predicted = x_t.mean(axis=0) - hp.eta * normalize_rows(v_t).mean(axis=0)
        assert np.allclose(x_next.mean(axis=0), predicted, atol=1e-10)
        # normalized directions bound the mean displacement by eta
        step = np.linalg.norm(x_next.mean(axis=0) - x_t.mean(axis=0))
        assert step <= hp.eta * (1.0 + 1e-12)


def test_tracker_identity_all_tracked_algorithms():
    p = make_exp_pair(d=4, rate=1.0, m=4, zeta=0.2, sigma=0.5, seed=5)
    hp = _hp(eta=0.02, b=3, big_t=40)
    for alg in ("dnsgd", "dsgt", "dnasa"):
        traj = run(alg, p, hp, RING4, np.full(4, 0.5), master_seed=17)
        assert traj.tracker_drift_max <= 1e-8, alg


def test_run_is_deterministic_per_seed():
    p = make_exp_pair(d=3, rate=1.0, m=4, zeta=0.2, sigma=0.7, seed=5)
    hp = _hp(big_t=10, b=2)
    x0 = np.full(3, 0.8)
    a = run("dnsgd", p, hp, RING4, x0, master_seed=42)
    b = run("dnsgd", p, hp, RING4, x0, master_seed=42)
    assert a.rows == b.rows
    assert np.array_equal(a.agent_grad_norms, b.agent_grad_norms)
    assert np.array_equal(a.output_indices, b.output_indices)
    c = run("dnsgd", p, hp, RING4, x0, master_seed=43)
    assert a.rows[1:] != c.rows[1:]


def test_dsgt_removes_heterogeneity_floor():
    # with constant steps on a heterogeneous noiseless problem, plain
    # diffusion stalls at a consensus floor while tracking converges;
    # thresholds were frozen from an observed run (0.0855 vs 2.1e-9)
    p = make_quadratic(d=3, curvature=1.0, m=4, zeta=1.0, sigma=0.0, seed=8)
    hp = _hp(eta=0.05, big_t=400)
    x0 = np.full(3, 1.0)
    dsgd = run("dsgd", p, hp, RING4, x0, master_seed=5, snapshot_every=0)
    dsgt = run("dsgt", p, hp, RING4, x0, master_seed=5, snapshot_every=0)
    assert dsgd.rows[-1].grad_norm_agent_max > 0.01
    assert dsgd.rows[-1].cons_x > 0.01
    assert dsgt.rows[-1].grad_norm_agent_max < 1e-6
    assert dsgt.rows[-1].cons_x < 1e-12


def test_divergence_raises_non_finite():
    p = make_poly_even(d=2, power=4, scale=1.0, m=2, zeta=0.0, sigma=0.0, seed=1)
    mix = metropolis_mixing(build_topology("complete", 2))
    hp = _hp(eta=1e6, big_t=20)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError, match="non-finite"):
            run("dsgd", p, hp, mix, np.full(2, 1.0), master_seed=3)


def test_dnasa_schedule_frozen():
    assert dnasa_schedule(0.5, 16, 1) == 0.5
    assert dnasa_schedule(0.5, 16, 10000) == pytest.approx(0.002, rel=1e-15)
    with pytest.raises(ValueError, match="starts at 1"):
        dnasa_schedule(0.5, 16, 0)


def test_dnasa_step_respects_schedule():
    p = make_quadratic(d=3, curvature=1.0, m=4, zeta=0.5, sigma=0.0, seed=2)
    hp = _hp(eta=0.5, big_t=12)
    traj = run("dnasa", p, hp, RING4, np.full(3, 2.0), master_seed=6, snapshot_every=1)
    for t in range(hp.big_t):
        x_t, _ = traj.snapshots[t]
        x_next, _ = traj.snapshots[t + 1]
        step = np.linalg.norm(x_next.mean(axis=0) - x_t.mean(axis=0))
        assert step <= dnasa_schedule(hp.eta, p.m, t + 1) * (1.0 + 1e-12)


def test_degenerate_horizon_records_initial_state_only():
    p = make_quadratic(d=2, curvature=1.0, m=4, zeta=0.3, sigma=0.0, seed=2)
    hp = _hp(big_t=0)
    for alg in ALGORITHMS:
        traj = run(alg, p, hp, RING4, np.zeros(2), master_seed=1)
        assert len(traj.rows) == 1
        assert traj.big_t == 0
        assert traj.output_indices is None


def test_counters_per_algorithm():
    p = make_quadratic(d=2, curvature=1.0, m=4, zeta=0.3, sigma=0.0, seed=2)
    hp = _hp(b=7, big_t=4, k_inner=5, k_init=3)
    expected_comm = {
        "dnsgd": lambda t: 3 + 10 * t,
        "dsgd": lambda t: t,
        "dsgt": lambda t: 2 * t,
        "dnasa": lambda t: 2 * t,
    }
    for alg in ALGORITHMS:
        traj = run(alg, p, hp, RING4, np.zeros(2), master_seed=1)
        for t, row in enumerate(traj.rows):
            assert row.samples_per_agent == 7 * (t + 1)
            assert row.comm_rounds == expected_comm[alg](t), alg


def test_box_exit_counting():
    p = make_quadratic(
        d=2, curvature=1.0, m=4, zeta=0.0, sigma=0.0, seed=2, box_radius=0.5
    )
    hp = _hp(eta=0.3, big_t=3)
    traj = run("dnsgd", p, hp, RING4, np.full(2, 0.6), master_seed=1)
    assert traj.box_exits >= 1
    assert traj.first_box_exit_t == 0


def test_run_argument_validation():
    p = make_quadratic(d=2, curvature=1.0, m=4, zeta=0.3, sigma=0.0, seed=2)
    hp = _hp()
    with pytest.raises(ValueError, match="unknown algorithm"):
        run("adam", p, hp, RING4, np.zeros(2), master_seed=1)
    other = metropolis_mixing(build_topology("ring", 8))
    with pytest.raises(ValueError, match="couples"):
        run("dnsgd", p, hp, other, np.zeros(2), master_seed=1)
    with pytest.raises(ValueError, match="snapshot_every"):
        run("dnsgd", p, hp, RING4, np.zeros(2), master_seed=1, snapshot_every=-1)
    with pytest.raises(ValueError, match="shape"):
        run("dnsgd", p, hp, RING4, np.zeros(3), master_seed=1)
    with pytest.raises(ValueError, match="finite"):
        run("dnsgd", p, hp, RING4, np.array([np.nan, 0.0]), master_seed=1)
