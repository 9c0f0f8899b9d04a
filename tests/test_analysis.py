"""Potential function, stationarity summaries, and the verification checks."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import stepped_states

from dnsgd.analysis import (
    state_metrics,
    stationarity_summary,
    verify_consensus_bound,
    verify_descent,
)
from dnsgd.gossip import consensus_error, contraction
from dnsgd.hyperparams import lyapunov_constants, theoretical_hyperparams
from dnsgd.optimizers import run
from dnsgd.problems import f_base, grad_base, make_problem
from dnsgd.topology import build_topology, metropolis_mixing

QUAD = make_problem("quadratic", d=5, curvature=1.0, m=4, zeta=0.5, sigma=0.0, seed=3)
RING4 = metropolis_mixing(build_topology("ring", 4))


def _guard_mode_params(t_override=None):
    x0 = np.full(QUAD.d, 0.6)
    g0 = sum(float(np.dot(g, g)) for g in grad_base(QUAD, x0) + QUAD.offsets)
    th = theoretical_hyperparams(QUAD, RING4, 0.12, f_base(QUAD, x0), g0_norm_sq=g0)
    hp = th.hp
    if t_override is not None:
        hp = dataclasses.replace(hp, big_t=t_override)
    return hp, th, x0


def test_phi_of_consensus_state_is_objective_value():
    xbar = np.array([0.3, -0.2, 0.0, 1.0, -0.5])
    x = np.tile(xbar, (QUAD.m, 1))
    v = np.tile(np.ones(QUAD.d), (QUAD.m, 1))
    phi = state_metrics(x[None], v[None], QUAD, eta=0.05).phi[0]
    assert phi == pytest.approx(f_base(QUAD, xbar), abs=1e-12)


def test_phi_matches_hand_formula():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(QUAD.m, QUAD.d))
    v = rng.normal(size=(QUAD.m, QUAD.d))
    eta = 0.07
    m0, m1 = lyapunov_constants(QUAD)
    xbar = x.mean(axis=0)
    expected = (
        f_base(QUAD, xbar)
        + (3.0 * eta / 2.0) * (m0 + m1 * np.linalg.norm(grad_base(QUAD, xbar)))
        * consensus_error(x)
        + (2.0 * eta / 2.0) * consensus_error(v)
    )
    assert state_metrics(x[None], v[None], QUAD, eta).phi[0] == pytest.approx(expected, rel=1e-14)


def test_phi_dominates_objective_infimum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=(QUAD.m, QUAD.d))
        v = rng.normal(size=(QUAD.m, QUAD.d))
        assert state_metrics(x[None], v[None], QUAD, 0.02).phi[0] >= QUAD.f_star


def test_phi_validation():
    x = np.zeros((1, QUAD.m, QUAD.d))
    with pytest.raises(ValueError, match="eta"):
        state_metrics(x, x, QUAD, 0.0)
    with pytest.raises(ValueError, match="shape"):
        state_metrics(np.zeros((1, 2, QUAD.d)), x, QUAD, 0.1)
    # a single (m, d) state is not a stack
    with pytest.raises(ValueError, match=rf"stacks of shape \(n, {QUAD.m}, {QUAD.d}\)"):
        state_metrics(x[0], x[0], QUAD, 0.1)


STACK_PROBLEMS = [
    QUAD,
    make_problem("exp_pair", d=3, rate=1.0, m=4, zeta=0.4, sigma=0.0, seed=1),
    make_problem("poly_even", d=10, power=4, scale=0.5, m=256, zeta=0.3, sigma=0.0, seed=2),
]


@pytest.mark.parametrize("p", STACK_PROBLEMS, ids=lambda p: f"{p.family}-m{p.m}")
def test_stacked_state_metrics_equal_per_state_calls(p):
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.5, 1.5, size=(7, p.m, p.d))
    v = rng.normal(size=(7, p.m, p.d))
    stacked = state_metrics(x, v, p, 0.03)
    singles = [state_metrics(x[i : i + 1], v[i : i + 1], p, 0.03) for i in range(len(x))]
    for name in ("f_mean", "grad_norm_mean", "cons_x", "cons_v", "phi"):
        assert getattr(stacked, name).shape == (7,)
        assert getattr(stacked, name).tolist() == [getattr(sm, name)[0] for sm in singles], name
    assert np.array_equal(stacked.agent_grad_norms, [sm.agent_grad_norms[0] for sm in singles])
    with pytest.raises(ValueError, match="shape"):
        state_metrics(x, v[:6], p, 0.03)
    with pytest.raises(ValueError, match="shape"):
        state_metrics(x[None], v[None], p, 0.03)


def test_state_metrics_fields_consistent():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(QUAD.m, QUAD.d))
    v = rng.normal(size=(QUAD.m, QUAD.d))
    sm = state_metrics(x[None], v[None], QUAD, 0.05)
    xbar = x.mean(axis=0)
    assert sm.f_mean[0] == pytest.approx(f_base(QUAD, xbar), rel=1e-14)
    assert sm.grad_norm_mean[0] == pytest.approx(
        np.linalg.norm(grad_base(QUAD, xbar)), rel=1e-14
    )
    assert sm.cons_x[0] == pytest.approx(consensus_error(x), rel=1e-14)
    assert sm.cons_v[0] == pytest.approx(consensus_error(v), rel=1e-14)
    assert state_metrics(x[None], v[None], QUAD, 0.05).phi == sm.phi
    assert sm.agent_grad_norms.shape == (1, QUAD.m)
    # the metrics CSV digests depend on these norms matching the per-row norm exactly
    per_row = [np.linalg.norm(grad_base(QUAD, x[i])) for i in range(QUAD.m)]
    assert np.array_equal(sm.agent_grad_norms[0], per_row)


def test_deterministic_descent_on_guarded_run():
    hp, th, x0 = _guard_mode_params(t_override=300)
    assert th.guard.ok
    traj = run("dnsgd", QUAD, hp, RING4, x0, seeds=[7])
    report = verify_descent(traj, QUAD, hp.eta, mode="deterministic")
    assert report.passed
    assert report.observed <= 1e-9
    assert report.n_seeds == 1


def test_consensus_bound_on_guarded_run():
    hp, th, x0 = _guard_mode_params(t_override=200)
    traj = run("dnsgd", QUAD, hp, RING4, x0, seeds=[7])
    report = verify_consensus_bound(traj, th.guard.rho, QUAD.m, hp.eta)
    assert report.passed
    assert report.checked == 200
    assert report.bound == pytest.approx(
        th.guard.rho * QUAD.m * hp.eta / (1.0 - th.guard.rho), rel=1e-15
    )
    # a deeper gossip sweep must fit inside its own tighter radius
    deep_hp = dataclasses.replace(hp, k_inner=hp.k_inner + 15)
    deep_rho = contraction(RING4, deep_hp.k_inner)
    assert deep_rho < th.guard.rho
    deep = run("dnsgd", QUAD, deep_hp, RING4, x0, seeds=[7])
    deep_report = verify_consensus_bound(deep, deep_rho, QUAD.m, hp.eta)
    assert deep_report.passed
    assert deep_report.bound < report.bound


def test_consensus_bound_rejects_expanding_rho():
    hp, _, x0 = _guard_mode_params(t_override=1)
    traj = run("dnsgd", QUAD, hp, RING4, x0, seeds=[7])
    for rho in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match="rho"):
            verify_consensus_bound(traj, rho, QUAD.m, hp.eta)


def test_stochastic_descent_seed_average():
    p = make_problem("exp_pair", d=4, rate=1.0, m=4, zeta=0.2, sigma=0.5, seed=5)
    x0 = np.full(p.d, 1.2)
    g0 = sum(float(np.dot(g, g)) for g in grad_base(p, x0) + p.offsets)
    th = theoretical_hyperparams(p, RING4, 0.3, 1.0, g0_norm_sq=g0, t_cap=300)
    traj = run("dnsgd", p, th.hp, RING4, x0, seeds=range(100, 110))
    report = verify_descent(traj, p, th.hp.eta, mode="stochastic")
    assert report.passed
    assert report.n_seeds == 10
    assert report.observed <= report.bound
    # the bound is the telescoped potential drop plus the smoothness floor
    delta_phi = np.mean(traj.metrics.phi[:, 0]) - p.f_star
    expected = 8.0 * delta_phi / (5.0 * th.hp.eta * 300) + 1.2 * th.hp.eta * th.l_f
    assert report.bound == pytest.approx(expected, rel=1e-12)


def test_descent_mode_validation():
    hp, th, x0 = _guard_mode_params(t_override=2)
    traj = run("dnsgd", QUAD, hp, RING4, x0, seeds=[7])
    with pytest.raises(ValueError, match="mode"):
        verify_descent(traj, QUAD, hp.eta, mode="typo")
    single = run("dnsgd", QUAD, dataclasses.replace(hp, big_t=0), RING4, x0, seeds=[7])
    with pytest.raises(ValueError, match="big_t >= 1"):
        verify_descent(single, QUAD, hp.eta, mode="stochastic")


def test_stationarity_summary_identities():
    hp, _, x0 = _guard_mode_params(t_override=50)
    traj = run("dnsgd", QUAD, hp, RING4, x0, seeds=[21, 22])
    summ = stationarity_summary(traj)
    assert summ.min_grad_mean.shape == summ.avg_grad_mean.shape == (2,)
    assert summ.agent_max_at_output.shape == (2,)
    for s in range(2):
        eligible = traj.metrics.grad_norm_mean[s, :50].tolist()
        assert summ.avg_grad_mean[s] == pytest.approx(np.mean(eligible), rel=1e-14)
        assert summ.min_grad_mean[s] == min(eligible)
        assert summ.min_grad_mean[s] <= summ.avg_grad_mean[s]
        expected_max = max(
            traj.metrics.agent_grad_norms[s, t_i, i]
            for i, t_i in enumerate(traj.output_indices[s])
        )
        assert summ.agent_max_at_output[s] == pytest.approx(expected_max, rel=1e-14)
    assert traj.output_indices.shape == (2, QUAD.m)
    assert (traj.output_indices >= 0).all()
    assert (traj.output_indices < 50).all()


def test_stationarity_summary_degenerate_run():
    hp, _, x0 = _guard_mode_params(t_override=0)
    traj = run("dnsgd", QUAD, hp, RING4, x0, seeds=[21])
    assert traj.big_t == 0
    assert traj.output_indices is None
    summ = stationarity_summary(traj)
    assert summ.min_grad_mean == summ.avg_grad_mean == traj.metrics.grad_norm_mean[0]
    assert summ.agent_max_at_output == pytest.approx(
        traj.metrics.agent_grad_norms[0, 0].max(), rel=1e-14
    )


def test_consensus_bound_empty_tail():
    hp, th, x0 = _guard_mode_params(t_override=0)
    traj = run("dnsgd", QUAD, hp, RING4, x0, seeds=[3])
    report = verify_consensus_bound(traj, th.guard.rho, QUAD.m, hp.eta)
    assert report.passed
    assert report.checked == 0


def test_phi_recorded_rows_match_recomputation():
    # the runner's phi column must be reproducible from every state it stepped through
    hp, _, x0 = _guard_mode_params(t_override=20)
    traj = run("dnsgd", QUAD, hp, RING4, x0, seeds=[13])
    states = stepped_states("dnsgd", QUAD, hp, RING4, x0, 13)
    assert [s.t for s in states] == list(range(hp.big_t + 1))
    for t, s in enumerate(states):
        assert traj.metrics.phi[0, t] == pytest.approx(
            state_metrics(s.x[None], s.v[None], QUAD, hp.eta).phi[0], rel=1e-14
        )
        assert traj.metrics.cons_x[0, t] == pytest.approx(consensus_error(s.x), rel=1e-14)
    assert math.isfinite(traj.metrics.phi[0, -1])


@pytest.mark.parametrize("eta", [math.nan, math.inf, -1.0])
def test_eta_is_held_to_its_field_rule(eta):
    # a NaN eta once gave a NaN phi, and a passing descent check with observed 0.0
    hp, th, x0 = _guard_mode_params(t_override=5)
    traj = run("dnsgd", QUAD, hp, RING4, x0, seeds=[7])
    x = np.zeros((1, QUAD.m, QUAD.d))
    message = rf"^eta must be a finite number > 0, got {eta!r}$"
    with pytest.raises(ValueError, match=message):
        state_metrics(x, x, QUAD, eta)
    with pytest.raises(ValueError, match=message):
        verify_consensus_bound(traj, th.guard.rho, QUAD.m, eta)
    for mode in ("deterministic", "stochastic"):
        with pytest.raises(ValueError, match=message):
            verify_descent(traj, QUAD, eta, mode)
