"""Potential function, stationarity summaries, and the verification checks."""

import dataclasses
import math

import numpy as np
import pytest

from dnsgd.analysis import (
    lyapunov_phi,
    state_metrics,
    stationarity_summary,
    verify_consensus_bound,
    verify_descent,
)
from dnsgd.gossip import consensus_error, contraction_rho
from dnsgd.hyperparams import lyapunov_constants, theoretical_hyperparams
from dnsgd.optimizers import run
from dnsgd.problems import (
    f_base,
    grad_base,
    grad_local,
    make_exp_pair,
    make_poly_even,
    make_quadratic,
)
from dnsgd.topology import build_topology, metropolis_mixing

QUAD = make_quadratic(d=5, curvature=1.0, m=4, zeta=0.5, sigma=0.0, seed=3)
RING4 = metropolis_mixing(build_topology("ring", 4))


def _guard_mode_params(t_override=None):
    x0 = np.full(QUAD.d, 0.6)
    g0 = sum(
        float(np.dot(g, g))
        for g in (grad_local(QUAD, i, x0) for i in range(QUAD.m))
    )
    th = theoretical_hyperparams(
        epsilon=0.12, l0=QUAD.l0, l1=QUAD.l1, zeta=QUAD.zeta, sigma=0.0,
        m=QUAD.m, gamma=RING4.gamma, delta_f_estimate=f_base(QUAD, x0),
        g0_norm_sq=g0, k_mode="guard",
    )
    hp = th.hp
    if t_override is not None:
        hp = dataclasses.replace(hp, big_t=t_override)
    return hp, th, x0


def test_phi_of_consensus_state_is_objective_value():
    xbar = np.array([0.3, -0.2, 0.0, 1.0, -0.5])
    x = np.tile(xbar, (QUAD.m, 1))
    v = np.tile(np.ones(QUAD.d), (QUAD.m, 1))
    phi = lyapunov_phi(x, v, QUAD, eta=0.05)
    assert phi == pytest.approx(f_base(QUAD, xbar), abs=1e-12)


def test_phi_matches_hand_formula():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(QUAD.m, QUAD.d))
    v = rng.normal(size=(QUAD.m, QUAD.d))
    eta = 0.07
    m0, m1 = lyapunov_constants(QUAD.l0, QUAD.l1, QUAD.zeta)
    xbar = x.mean(axis=0)
    expected = (
        f_base(QUAD, xbar)
        + (3.0 * eta / 2.0) * (m0 + m1 * np.linalg.norm(grad_base(QUAD, xbar)))
        * consensus_error(x)
        + (2.0 * eta / 2.0) * consensus_error(v)
    )
    assert lyapunov_phi(x, v, QUAD, eta) == pytest.approx(expected, rel=1e-14)


def test_phi_dominates_objective_infimum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=(QUAD.m, QUAD.d))
        v = rng.normal(size=(QUAD.m, QUAD.d))
        assert lyapunov_phi(x, v, QUAD, 0.02) >= QUAD.f_star


def test_phi_validation():
    x = np.zeros((QUAD.m, QUAD.d))
    with pytest.raises(ValueError, match="eta"):
        lyapunov_phi(x, x, QUAD, 0.0)
    with pytest.raises(ValueError, match="shape"):
        lyapunov_phi(np.zeros((2, QUAD.d)), x, QUAD, 0.1)


STACK_PROBLEMS = [
    QUAD,
    make_exp_pair(d=3, rate=1.0, m=4, zeta=0.4, sigma=0.0, seed=1),
    make_poly_even(d=10, power=4, scale=0.5, m=256, zeta=0.3, sigma=0.0, seed=2),
]


@pytest.mark.parametrize("p", STACK_PROBLEMS, ids=lambda p: f"{p.family}-m{p.m}")
def test_stacked_state_metrics_equal_per_state_calls(p):
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.5, 1.5, size=(7, p.m, p.d))
    v = rng.normal(size=(7, p.m, p.d))
    stacked = state_metrics(x, v, p, 0.03)
    singles = [state_metrics(x[i], v[i], p, 0.03) for i in range(len(x))]
    for name in ("f_mean", "grad_norm_mean", "cons_x", "cons_v", "phi"):
        assert getattr(stacked, name).shape == (7,)
        assert getattr(stacked, name).tolist() == [getattr(sm, name) for sm in singles], name
        assert all(type(getattr(sm, name)) is float for sm in singles)
    assert np.array_equal(stacked.agent_grad_norms, [sm.agent_grad_norms for sm in singles])
    with pytest.raises(ValueError, match="shape"):
        state_metrics(x, v[:6], p, 0.03)
    with pytest.raises(ValueError, match="shape"):
        state_metrics(x[None], v[None], p, 0.03)


def test_state_metrics_fields_consistent():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(QUAD.m, QUAD.d))
    v = rng.normal(size=(QUAD.m, QUAD.d))
    sm = state_metrics(x, v, QUAD, 0.05)
    xbar = x.mean(axis=0)
    assert sm.f_mean == pytest.approx(f_base(QUAD, xbar), rel=1e-14)
    assert sm.grad_norm_mean == pytest.approx(
        np.linalg.norm(grad_base(QUAD, xbar)), rel=1e-14
    )
    assert sm.cons_x == pytest.approx(consensus_error(x), rel=1e-14)
    assert sm.cons_v == pytest.approx(consensus_error(v), rel=1e-14)
    assert lyapunov_phi(x, v, QUAD, 0.05) == sm.phi
    assert sm.agent_grad_norms.shape == (QUAD.m,)
    # the metrics CSV digests depend on these norms matching the per-row norm exactly
    per_row = [np.linalg.norm(grad_base(QUAD, x[i])) for i in range(QUAD.m)]
    assert np.array_equal(sm.agent_grad_norms, per_row)


def test_deterministic_descent_on_guarded_run():
    hp, th, x0 = _guard_mode_params(t_override=300)
    assert th.guard.ok
    traj = run("dnsgd", QUAD, hp, RING4, x0, master_seed=7, snapshot_every=0)
    report = verify_descent([traj], QUAD, hp.eta, th.l_f, mode="deterministic")
    assert report.passed
    assert report.observed <= 1e-9
    assert report.n_seeds == 1


def test_consensus_bound_on_guarded_run():
    hp, th, x0 = _guard_mode_params(t_override=200)
    traj = run("dnsgd", QUAD, hp, RING4, x0, master_seed=7, snapshot_every=0)
    report = verify_consensus_bound(traj, th.rho_actual, QUAD.m, hp.eta)
    assert report.passed
    assert report.checked == 200
    assert report.bound == pytest.approx(
        th.rho_actual * QUAD.m * hp.eta / (1.0 - th.rho_actual), rel=1e-15
    )
    # a deeper gossip sweep must fit inside its own tighter radius
    deep_hp = dataclasses.replace(hp, k_inner=hp.k_inner + 15)
    deep_rho = contraction_rho(1.0 - RING4.gamma, deep_hp.k_inner)
    assert deep_rho < th.rho_actual
    deep = run("dnsgd", QUAD, deep_hp, RING4, x0, master_seed=7, snapshot_every=0)
    deep_report = verify_consensus_bound(deep, deep_rho, QUAD.m, hp.eta)
    assert deep_report.passed
    assert deep_report.bound < report.bound


def test_consensus_bound_rejects_expanding_rho():
    hp, _, x0 = _guard_mode_params(t_override=1)
    traj = run("dnsgd", QUAD, hp, RING4, x0, master_seed=7, snapshot_every=0)
    for rho in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match="rho"):
            verify_consensus_bound(traj, rho, QUAD.m, hp.eta)


def test_stochastic_descent_seed_average():
    p = make_exp_pair(d=4, rate=1.0, m=4, zeta=0.2, sigma=0.5, seed=5)
    th = theoretical_hyperparams(
        epsilon=0.3, l0=p.l0, l1=p.l1, zeta=p.zeta, sigma=p.sigma, m=p.m,
        gamma=RING4.gamma, delta_f_estimate=1.0, t_cap=300,
    )
    x0 = np.full(p.d, 1.2)
    trajs = [
        run("dnsgd", p, th.hp, RING4, x0, master_seed=100 + s, snapshot_every=0)
        for s in range(10)
    ]
    report = verify_descent(trajs, p, th.hp.eta, th.l_f, mode="stochastic")
    assert report.passed
    assert report.n_seeds == 10
    assert report.observed <= report.bound
    # the bound is the telescoped potential drop plus the smoothness floor
    delta_phi = np.mean([t.metrics.phi[0] for t in trajs]) - p.f_star
    expected = 8.0 * delta_phi / (5.0 * th.hp.eta * 300) + 1.2 * th.hp.eta * th.l_f
    assert report.bound == pytest.approx(expected, rel=1e-12)


def test_descent_mode_validation():
    hp, th, x0 = _guard_mode_params(t_override=2)
    traj = run("dnsgd", QUAD, hp, RING4, x0, master_seed=7, snapshot_every=0)
    with pytest.raises(ValueError, match="trajectory"):
        verify_descent([], QUAD, hp.eta, th.l_f)
    with pytest.raises(ValueError, match="mode"):
        verify_descent([traj], QUAD, hp.eta, th.l_f, mode="typo")
    short = run(
        "dnsgd", QUAD, dataclasses.replace(hp, big_t=1), RING4, x0,
        master_seed=7, snapshot_every=0,
    )
    with pytest.raises(ValueError, match="length"):
        verify_descent([traj, short], QUAD, hp.eta, th.l_f, mode="stochastic")


def test_stationarity_summary_identities():
    hp, _, x0 = _guard_mode_params(t_override=50)
    traj = run("dnsgd", QUAD, hp, RING4, x0, master_seed=21, snapshot_every=0)
    summ = stationarity_summary(traj)
    eligible = traj.metrics.grad_norm_mean[:50].tolist()
    assert summ.avg_grad_mean == pytest.approx(np.mean(eligible), rel=1e-14)
    assert summ.min_grad_mean == min(eligible)
    assert summ.min_grad_mean <= summ.avg_grad_mean
    expected_max = max(
        traj.metrics.agent_grad_norms[t_i, i] for i, t_i in enumerate(traj.output_indices)
    )
    assert summ.agent_max_at_output == pytest.approx(expected_max, rel=1e-14)
    assert (traj.output_indices >= 0).all()
    assert (traj.output_indices < 50).all()


def test_stationarity_summary_degenerate_run():
    hp, _, x0 = _guard_mode_params(t_override=0)
    traj = run("dnsgd", QUAD, hp, RING4, x0, master_seed=21, snapshot_every=0)
    assert traj.big_t == 0
    assert traj.output_indices is None
    summ = stationarity_summary(traj)
    assert summ.min_grad_mean == summ.avg_grad_mean == traj.metrics.grad_norm_mean[0]
    assert summ.agent_max_at_output == pytest.approx(
        traj.metrics.agent_grad_norms[0].max(), rel=1e-14
    )


def test_consensus_bound_empty_tail():
    hp, th, x0 = _guard_mode_params(t_override=0)
    traj = run("dnsgd", QUAD, hp, RING4, x0, master_seed=3, snapshot_every=0)
    report = verify_consensus_bound(traj, th.rho_actual, QUAD.m, hp.eta)
    assert report.passed
    assert report.checked == 0


def test_phi_recorded_rows_match_recomputation():
    # the runner's phi column must be reproducible from its snapshots
    hp, _, x0 = _guard_mode_params(t_override=20)
    traj = run("dnsgd", QUAD, hp, RING4, x0, master_seed=13, snapshot_every=1)
    for t, (x, v) in traj.snapshots.items():
        assert traj.metrics.phi[t] == pytest.approx(
            lyapunov_phi(x, v, QUAD, hp.eta), rel=1e-14
        )
        assert traj.metrics.cons_x[t] == pytest.approx(consensus_error(x), rel=1e-14)
    assert math.isfinite(traj.metrics.phi[-1])
