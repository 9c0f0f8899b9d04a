"""Calculator and guard: frozen hand-derived values plus invariant sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnsgd.gossip import contraction_rho
from dnsgd.hyperparams import (
    HyperParams,
    choose_k_for_guard,
    lyapunov_constants,
    rho_guard,
    theoretical_hyperparams,
)


def test_lyapunov_constants_frozen():
    m0, m1 = lyapunov_constants(1.0, 0.0, 0.7)
    assert m0 == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert m1 == 0.0
    m0, m1 = lyapunov_constants(3.0, 4.0, 2.0)
    # sqrt(2 (9 + 16 * 4)) = sqrt(146)
    assert m0 == pytest.approx(math.sqrt(146.0), rel=1e-15)
    assert m1 == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-15)


def test_eta_frozen_smooth_case():
    th = theoretical_hyperparams(
        epsilon=0.1, l0=1.0, l1=1.0, zeta=0.0, sigma=0.0, m=4, gamma=0.5,
        delta_f_estimate=1.0,
    )
    # l_f = 1, so eta = min(0.1 / 5, 1 / 2) = 0.02
    assert th.hp.eta == pytest.approx(0.02, abs=1e-15)
    assert th.l_f == 1.0
    assert th.hp.b == 1  # noiseless


def test_batch_and_horizon_frozen_noise_dominant():
    # l0 = 1, l1 = 0: only the first branch of each max is active
    th = theoretical_hyperparams(
        epsilon=0.5, l0=1.0, l1=0.0, zeta=0.0, sigma=1.0, m=4, gamma=0.5,
        delta_f_estimate=2.0,
    )
    # b = ceil(256 * 25 / (4 * 0.25)) = 6400
    assert th.hp.b == 6400
    # T = ceil(8 * 5 * 4 / 0.25) = 640
    assert th.hp.big_t == 640
    assert th.t_uncapped == 640
    assert th.delta_phi == 4.0


def test_batch_and_horizon_frozen_l1_dominant():
    # large epsilon flips both maxima to their l1 branches
    th = theoretical_hyperparams(
        epsilon=2.0, l0=0.0, l1=2.0, zeta=0.5, sigma=1.0, m=4, gamma=0.5,
        delta_f_estimate=1.0,
    )
    assert th.l_f == 1.0
    # b2 = 1024 * 4 * 1 / (4 * 1) = 1024 beats b1 = 256 * 25 / (4 * 4) = 400
    assert th.hp.b == 1024
    # t2 = 16 * 2 * 2 / 2 = 32 beats t1 = 8 * 5 * 2 / 4 = 20
    assert th.hp.big_t == 32
    # eta = min(2 / 5, 1 / 4) hits the 1 / (2 l1) cap
    assert th.hp.eta == pytest.approx(0.25, abs=1e-15)


def test_quadratic_guard_mode_frozen():
    # ring m = 4 has gamma = 1/3; this is the descent-check configuration
    th = theoretical_hyperparams(
        epsilon=0.12, l0=1.0, l1=0.0, zeta=0.5, sigma=0.0, m=4, gamma=1.0 / 3.0,
        delta_f_estimate=0.9, g0_norm_sq=4 * 0.9 * 2.0, k_mode="guard",
    )
    assert th.hp.eta == pytest.approx(0.024, abs=1e-15)
    assert th.hp.big_t == 5000
    assert th.hp.k_inner == 29
    assert th.guard.ok
    assert th.rho_actual <= th.guard.min_threshold
    # the recorded guard is rho_guard at the chosen hyperparameters
    assert th.guard == rho_guard(th.rho_actual, th.hp.eta, 1.0, 0.0, 0.5, 0.0, th.hp.b, 4)


def test_k_inner_floor_keeps_rho_below_half():
    # the c_k log(m)/sqrt(gamma) formula alone would give k = 2 for m = 2,
    # whose worst-case contraction factor exceeds 1; the floor raises it
    th = theoretical_hyperparams(
        epsilon=0.3, l0=1.0, l1=0.0, zeta=0.0, sigma=0.0, m=2, gamma=0.5,
        delta_f_estimate=1.0,
    )
    assert th.hp.k_inner == 9
    assert th.rho_actual <= 0.5
    assert contraction_rho(0.5, 2) > 1.0


def test_t_cap_records_uncapped_value():
    th = theoretical_hyperparams(
        epsilon=0.05, l0=1.0, l1=0.0, zeta=0.0, sigma=0.0, m=4, gamma=0.5,
        delta_f_estimate=5.0, t_cap=1000,
    )
    assert th.hp.big_t == 1000
    assert th.t_uncapped > 1000


def test_k_init_shrinks_to_one_without_drive():
    th = theoretical_hyperparams(
        epsilon=0.1, l0=1.0, l1=0.0, zeta=0.0, sigma=0.0, m=4, gamma=0.5,
        delta_f_estimate=1.0, g0_norm_sq=0.0,
    )
    assert th.hp.k_init == 1


def test_k_init_grows_with_initial_gradient_energy():
    common = dict(
        epsilon=0.1, l0=1.0, l1=0.0, zeta=0.0, sigma=0.0, m=4, gamma=0.1,
        delta_f_estimate=0.05,
    )
    small = theoretical_hyperparams(**common, g0_norm_sq=1.0)
    large = theoretical_hyperparams(**common, g0_norm_sq=1e6)
    assert large.hp.k_init >= small.hp.k_init
    assert large.hp.k_init > 1


def test_calculator_invariants_random_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        epsilon = float(rng.uniform(0.01, 1.0))
        l0 = float(rng.uniform(0.0, 5.0))
        l1 = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.7 else 0.0
        zeta = float(rng.uniform(0.0, 2.0))
        if l0 + l1 * zeta <= 0.0:
            l0 = 0.5
        sigma = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0
        m = int(rng.integers(1, 33))
        gamma = float(rng.uniform(0.01, 1.0))
        delta_f = float(rng.uniform(0.1, 10.0))
        th = theoretical_hyperparams(
            epsilon=epsilon, l0=l0, l1=l1, zeta=zeta, sigma=sigma, m=m,
            gamma=gamma, delta_f_estimate=delta_f,
        )
        hp = th.hp
        l_f = l0 + l1 * zeta
        assert hp.eta <= epsilon / (4.0 * l_f + 1.0) * (1.0 + 1e-12)
        if l1 > 0:
            assert hp.eta <= 1.0 / (2.0 * l1) * (1.0 + 1e-12)
        assert hp.b >= 1 and isinstance(hp.b, int)
        if sigma == 0.0:
            assert hp.b == 1
        else:
            b1 = 256.0 * (4.0 * l_f + 1.0) ** 2 * sigma**2 / (m * l_f**2 * epsilon**2)
            assert hp.b >= b1 - 1.0
        assert hp.big_t >= 1
        assert hp.k_inner >= 1 and hp.k_init >= 1
        assert th.rho_actual == contraction_rho(1.0 - gamma, hp.k_inner)
        assert th.rho_actual <= 0.5  # formula mode floors the depth
        m0, m1 = lyapunov_constants(l0, l1, zeta)
        assert th.m0 == m0 and th.m1 == m1


def test_calculator_validation():
    good = dict(
        epsilon=0.1, l0=1.0, l1=0.0, zeta=0.0, sigma=0.0, m=4, gamma=0.5,
        delta_f_estimate=1.0,
    )
    for bad in (
        dict(good, epsilon=0.0),
        dict(good, gamma=0.0),
        dict(good, gamma=1.5),
        dict(good, m=0),
        dict(good, m=2.5),
        dict(good, l0=-1.0),
        dict(good, delta_f_estimate=0.0),
        dict(good, l0=0.0),  # l_f = 0
        dict(good, k_mode="magic"),
        dict(good, rho_max=1.0),
    ):
        with pytest.raises(ValueError):
            theoretical_hyperparams(**bad)


def test_rho_guard_frozen_pass_and_fail():
    # the guard-mode quadratic configuration passes
    ok = rho_guard(0.0174, 0.024, 1.0, 0.0, 0.5, 0.0, 1, 4)
    assert ok.ok
    assert all(ok.conditions.values())
    # a contraction factor close to 1/2 fails the weight conditions even
    # though the v_weight clause itself allows it
    bad = rho_guard(0.4986, 0.0523, 0.4, 1.0 / math.log(2.0), 0.2, 0.1, 235, 8)
    assert not bad.ok
    assert bad.conditions["v_weight"]
    assert not bad.conditions["x_weight"]
    assert bad.min_threshold < 0.4986


def test_rho_guard_zero_rho_reduces_to_noise_floor():
    # at rho = 0 every consensus-leakage condition holds; only the raw
    # noise floor can fail
    g = rho_guard(0.0, 0.1, 1.0, 0.0, 0.0, 0.0, 1, 4)
    assert g.ok
    noisy = rho_guard(0.0, 0.1, 1.0, 0.0, 0.0, 10.0, 1, 1)
    assert not noisy.ok
    assert not noisy.conditions["noise_floor"]


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.6),
    st.floats(min_value=0.2, max_value=0.8),
)
def test_rho_guard_monotone_in_rho(rho, shrink):
    params = dict(eta=0.05, l0=1.0, l1=1.5, zeta=0.5, sigma=0.3, b=500, m=8)
    if rho_guard(rho, **params).ok:
        assert rho_guard(rho * shrink, **params).ok


def test_choose_k_for_guard_is_minimal():
    lam2 = 2.0 / 3.0
    k = choose_k_for_guard(lam2, 0.024, 1.0, 0.0, 0.5, 0.0, 1, 4)
    assert k == 29
    assert rho_guard(contraction_rho(lam2, k), 0.024, 1.0, 0.0, 0.5, 0.0, 1, 4).ok
    assert not rho_guard(contraction_rho(lam2, k - 1), 0.024, 1.0, 0.0, 0.5, 0.0, 1, 4).ok


def test_choose_k_for_guard_infeasible_noise_floor():
    with pytest.raises(ValueError, match="noise floor"):
        choose_k_for_guard(0.5, 0.02, 1.0, 0.0, 0.0, 10.0, 1, 1)


def test_hyperparams_validation():
    good = dict(eta=0.1, b=1, big_t=0, k_inner=1, k_init=1, epsilon=0.1)
    HyperParams(**good)  # big_t = 0 is allowed: record only the start state
    for bad in (
        dict(good, eta=0.0),
        dict(good, b=0),
        dict(good, big_t=-1),
        dict(good, k_inner=0),
        dict(good, k_init=0),
        dict(good, epsilon=0.0),
        dict(good, b=True),
    ):
        with pytest.raises(ValueError):
            HyperParams(**bad)
