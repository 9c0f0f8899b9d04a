"""Calculator and guard: frozen hand-derived values plus invariant sweeps."""

import functools
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnsgd import hyperparams
from dnsgd.gossip import RHO_FLOOR, contraction
from dnsgd.hyperparams import (
    RHO_SEARCH_MAX,
    HyperParams,
    _shallowest_depth,
    choose_k_for_guard,
    lyapunov_constants,
    rho_guard,
    theoretical_hyperparams,
)
from dnsgd.problems import make_problem
from dnsgd.topology import KINDS, build_topology, metropolis_mixing

BASE = make_problem("quadratic", d=1, curvature=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)


def problem(l0, l1, zeta, sigma, m):
    """A problem record with these constants, the only fields the calculator and the guard read."""
    return BASE._replace(l0=l0, l1=l1, zeta=zeta, sigma=sigma, m=m)


@functools.cache
def mixing(kind, m):
    """The Metropolis mixing matrix of a kind of graph on m agents (Erdos-Renyi at p = 1/2).

    Complete graphs have gamma = 1/2 at any m >= 2, the 4-ring gamma = 1/3 and
    the 4-path gamma = 0.098.
    """
    return metropolis_mixing(build_topology(kind, m, p=0.5 if kind == "erdos_renyi" else None))


def test_lyapunov_constants_frozen():
    m0, m1 = lyapunov_constants(problem(1.0, 0.0, 0.7, 0.0, 1))
    assert m0 == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert m1 == 0.0
    m0, m1 = lyapunov_constants(problem(3.0, 4.0, 2.0, 0.0, 1))
    # sqrt(2 (9 + 16 * 4)) = sqrt(146)
    assert m0 == pytest.approx(math.sqrt(146.0), rel=1e-15)
    assert m1 == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-15)


def test_eta_frozen_smooth_case():
    th = theoretical_hyperparams(
        problem(1.0, 1.0, 0.0, 0.0, 4), mixing("complete", 4), epsilon=0.1,
        delta_f_estimate=1.0, g0_norm_sq=1.0,
    )
    # l_f = 1, so eta = min(0.1 / 5, 1 / 2) = 0.02
    assert th.hp.eta == pytest.approx(0.02, abs=1e-15)
    assert th.l_f == 1.0
    assert th.hp.b == 1  # noiseless


def test_batch_and_horizon_frozen_noise_dominant():
    # l0 = 1, l1 = 0: only the first branch of each max is active
    th = theoretical_hyperparams(
        problem(1.0, 0.0, 0.0, 1.0, 4), mixing("complete", 4), epsilon=0.5,
        delta_f_estimate=2.0, g0_norm_sq=1.0,
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
        problem(0.0, 2.0, 0.5, 1.0, 4), mixing("complete", 4), epsilon=2.0,
        delta_f_estimate=1.0, g0_norm_sq=1.0,
    )
    assert th.l_f == 1.0
    # b2 = 1024 * 4 * 1 / (4 * 1) = 1024 beats b1 = 256 * 25 / (4 * 4) = 400
    assert th.hp.b == 1024
    # t2 = 16 * 2 * 2 / 2 = 32 beats t1 = 8 * 5 * 2 / 4 = 20
    assert th.hp.big_t == 32
    # eta = min(2 / 5, 1 / 4) hits the 1 / (2 l1) cap
    assert th.hp.eta == pytest.approx(0.25, abs=1e-15)


def test_quadratic_guard_mode_frozen():
    # the descent-check configuration, on the 4-ring
    p = problem(1.0, 0.0, 0.5, 0.0, 4)
    th = theoretical_hyperparams(
        p, mixing("ring", 4), epsilon=0.12, delta_f_estimate=0.9, g0_norm_sq=4 * 0.9 * 2.0
    )
    assert th.hp.eta == pytest.approx(0.024, abs=1e-15)
    assert th.hp.big_t == 5000
    assert th.hp.k_inner == 6
    assert th.guard.ok
    assert th.guard.rho <= th.guard.min_threshold
    # the recorded guard is rho_guard at the chosen hyperparameters
    assert th.guard == rho_guard(th.guard.rho, p, th.hp.eta, th.hp.b)


def test_k_inner_floor_keeps_rho_below_half():
    # the C_K log(m)/sqrt(gamma) formula alone would give k = 2 for m = 2,
    # whose contraction fails the guard; the guard's depth raises it
    ring2, p = mixing("ring", 2), problem(1.0, 0.0, 0.0, 0.0, 2)
    th = theoretical_hyperparams(p, ring2, epsilon=0.3, delta_f_estimate=1.0, g0_norm_sq=1.0)
    assert th.hp.k_inner == 4
    assert th.guard.rho == contraction(ring2, 4) <= 0.5
    assert th.guard.ok
    assert not rho_guard(contraction(ring2, 2), p, th.hp.eta, th.hp.b).ok


def test_t_cap_records_uncapped_value():
    th = theoretical_hyperparams(
        problem(1.0, 0.0, 0.0, 0.0, 4), mixing("complete", 4), epsilon=0.05,
        delta_f_estimate=5.0, g0_norm_sq=1.0, t_cap=1000,
    )
    assert th.hp.big_t == 1000
    assert th.t_uncapped > 1000


def test_k_init_shrinks_to_one_without_drive():
    th = theoretical_hyperparams(
        problem(1.0, 0.0, 0.0, 0.0, 4), mixing("complete", 4), epsilon=0.1,
        delta_f_estimate=1.0, g0_norm_sq=0.0,
    )
    assert th.hp.k_init == 1


def test_k_init_grows_with_initial_gradient_energy():
    common = dict(
        p=problem(1.0, 0.0, 0.0, 0.0, 4), mix=mixing("path", 4), epsilon=0.1,
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
        mix = mixing(KINDS[rng.integers(len(KINDS))], m)
        delta_f = float(rng.uniform(0.1, 10.0))
        p = problem(l0, l1, zeta, sigma, m)
        th = theoretical_hyperparams(
            p, mix, epsilon=epsilon, delta_f_estimate=delta_f,
            g0_norm_sq=float(rng.uniform(0.0, 10.0)),
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
        assert th.guard.rho == contraction(mix, hp.k_inner)
        assert th.guard.rho <= 0.5
        assert th.guard.ok  # the depth is at least the guard's
        m0, m1 = lyapunov_constants(p)
        assert th.m0 == m0 and th.m1 == m1


def test_calculator_validation():
    # the problem's constants were held to their rules by make_problem, and the
    # spectrum by metropolis_mixing
    good = dict(
        p=problem(1.0, 0.0, 0.0, 0.0, 4), mix=mixing("complete", 4), epsilon=0.1,
        delta_f_estimate=1.0, g0_norm_sq=1.0,
    )
    for bad in (
        dict(good, epsilon=0.0),
        dict(good, delta_f_estimate=0.0),
        dict(good, g0_norm_sq=-1.0),
        dict(good, g0_norm_sq=math.inf),
    ):
        with pytest.raises(ValueError):
            theoretical_hyperparams(**bad)


def test_rho_guard_frozen_pass_and_fail():
    # the quadratic descent configuration passes
    ok = rho_guard(0.0174, problem(1.0, 0.0, 0.5, 0.0, 4), 0.024, 1)
    assert ok.ok
    assert all(ok.conditions.values())
    # a contraction factor close to 1/2 fails the weight conditions even
    # though the v_weight clause itself allows it
    bad = rho_guard(0.4986, problem(0.4, 1.0 / math.log(2.0), 0.2, 0.1, 8), 0.0523, 235)
    assert not bad.ok
    assert bad.conditions["v_weight"]
    assert not bad.conditions["x_weight"]
    assert bad.min_threshold < 0.4986


def test_rho_guard_zero_rho_reduces_to_noise_floor():
    # at rho = 0 every consensus-leakage condition holds; only the raw
    # noise floor can fail
    g = rho_guard(0.0, problem(1.0, 0.0, 0.0, 0.0, 4), 0.1, 1)
    assert g.ok
    noisy = rho_guard(0.0, problem(1.0, 0.0, 0.0, 10.0, 1), 0.1, 1)
    assert not noisy.ok
    assert not noisy.conditions["noise_floor"]
    assert noisy.thresholds["noise_floor"] < 0.0  # the budget left for rho is negative


def reference_rho_guard_conditions(rho, eta, l0, l1, zeta, sigma, b, m):
    """rho_guard's six conditions as the inequalities they were before thresholds set them."""
    l_f = l0 + l1 * zeta
    m0, m1 = math.sqrt(2.0 * (l0 * l0 + l1 * l1 * zeta * zeta)), math.sqrt(2.0) * l1
    m2 = (rho + 1.0) * l_f + rho * l_f * l1 * eta
    m3 = rho * l1 * (l1 * eta + 1.0) + l1
    sq2, sqm = math.sqrt(2.0), math.sqrt(m)
    x_denom = 3.0 * (m0 + m1 * l_f * eta) + 2.0 * m2
    grad_denom = 3.0 * m1 * (1.0 + l1 * eta) + 2.0 * m3
    noise = 2.0 * sigma / math.sqrt(m * b)
    return {
        "x_weight": 2.0 * sq2 * m0 + rho * x_denom <= 3.0 * m0,
        "grad_weight": 2.0 * sq2 * m1 + rho * grad_denom <= 3.0 * m1,
        "v_weight": rho <= 0.5,
        "grad_coeff": rho * sqm * eta * grad_denom <= 0.125,
        "noise_floor": noise + rho * sqm * eta * x_denom <= eta * l_f / 4.0,
        "tracker_recursion": rho <= 1.0 / (1.0 + m * eta * l1),
    }


# Mixing matrices for the property tests: every kind, from 2 to 256 agents.
SEARCH_MIXES = [(kind, m) for kind in KINDS for m in (2, 4, 8, 16, 64, 256)]


@st.composite
def guard_arguments(draw):
    """rho_guard's arguments; rho is 0, any float in [0, 1] or the rho of a gossip depth."""
    mix = mixing(*draw(st.sampled_from(SEARCH_MIXES)))
    rho = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=2000).map(lambda k: contraction(mix, k)),
    ))
    return (
        rho,
        draw(st.floats(min_value=1e-4, max_value=1.0)),  # eta
        draw(st.floats(min_value=1e-3, max_value=10.0)),  # l0, clear of underflow in eta * l_f / 4
        draw(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0))),  # l1, as l0
        draw(st.floats(min_value=0.0, max_value=3.0)),  # zeta
        draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0))),  # sigma
        draw(st.integers(min_value=1, max_value=10**5)),  # b
        draw(st.integers(min_value=1, max_value=1024)),  # m
    )


@settings(max_examples=300, deadline=None)
@given(guard_arguments())
# rho = 0 with the noise over its budget: the noise_floor threshold is negative
@example((0.0, 0.1, 1.0, 0.0, 0.0, 10.0, 1, 1))
def test_rho_guard_conditions_are_their_thresholds(args):
    rho, eta, l0, l1, zeta, sigma, b, m = args
    guard = rho_guard(rho, problem(l0, l1, zeta, sigma, m), eta, b)
    assert guard.conditions == reference_rho_guard_conditions(*args)
    assert guard.conditions == {name: rho <= limit for name, limit in guard.thresholds.items()}
    assert guard.ok == all(guard.conditions.values())


def test_failing_property_test_reports_its_example(tmp_path):
    # a failing @given test imports libcst to explain its example; under the
    # project's warning filters that import must not turn into an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(n):
            assert n < 10
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
    )
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.6),
    st.floats(min_value=0.2, max_value=0.8),
)
def test_rho_guard_monotone_in_rho(rho, shrink):
    p = problem(1.0, 1.5, 0.5, 0.3, 8)
    if rho_guard(rho, p, 0.05, 500).ok:
        assert rho_guard(rho * shrink, p, 0.05, 500).ok


def test_rho_guard_holds_eta_and_b_to_their_rules():
    p = problem(1.0, 0.0, 0.5, 0.0, 4)
    for eta, b in ((math.nan, 1), (math.inf, 1), (0.0, 1), (0.024, 0), (0.024, 1.0)):
        with pytest.raises(ValueError, match=r"^(eta|b) must be"):
            rho_guard(0.1, p, eta, b)
    with pytest.raises(ValueError, match="^eta must be"):
        choose_k_for_guard(mixing("ring", 4), p, math.nan, 1)


def test_choose_k_for_guard_is_minimal(monkeypatch):
    ring4 = mixing("ring", 4)
    p = problem(1.0, 0.0, 0.5, 0.0, 4)
    k = choose_k_for_guard(ring4, p, 0.024, 1)
    assert k == 6
    assert rho_guard(contraction(ring4, k), p, 0.024, 1).ok
    assert not rho_guard(contraction(ring4, k - 1), p, 0.024, 1).ok
    # from a start, the smallest passing depth at or above it
    assert [choose_k_for_guard(ring4, p, 0.024, 1, start=s) for s in (1, 5, 6, 9)] == [6, 6, 6, 9]
    # K_MAX itself is a candidate depth; one below it, none passes
    monkeypatch.setattr(hyperparams, "K_MAX", 6)
    assert choose_k_for_guard(ring4, p, 0.024, 1) == 6
    monkeypatch.setattr(hyperparams, "K_MAX", 5)
    with pytest.raises(ValueError, match="no gossip depth up to 5 passes rho_guard"):
        choose_k_for_guard(ring4, p, 0.024, 1)


def test_choose_k_for_guard_infeasible_noise_floor():
    with pytest.raises(ValueError, match="noise floor"):
        choose_k_for_guard(mixing("ring", 1), problem(1.0, 0.0, 0.0, 10.0, 1), 0.02, 1)


@functools.cache
def _contractions(mix, k_max):
    return [contraction(mix, k) for k in range(1, k_max + 1)]


def _first_passing_depth(mix, passes):
    """The depth search from depth 1 as a linear scan: the first k in [1, K_MAX]
    whose contraction passes and, past depth 1, is at most RHO_SEARCH_MAX; or None."""
    rhos = _contractions(mix, hyperparams.K_MAX)
    return next(
        (k for k, rho in enumerate(rhos, 1)
         if (k == 1 or rho <= RHO_SEARCH_MAX) and passes(rho)), None
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [2, 4, 8, 16, 64, 256])
def test_depth_search_matches_linear_scan(kind, m, monkeypatch):
    # contraction rises above 1 at small depths on long rings and paths, so a
    # target above RHO_SEARCH_MAX would make the passing depths no tail; past
    # its start the search caps every target there, and finds what a linear scan finds
    monkeypatch.setattr(hyperparams, "K_MAX", 8192)
    mix = mixing(kind, m)
    for target in (2.0, 1.1, 1.0, 0.6, 0.5, 0.3, 1e-2, 1e-5, 1e-9, RHO_FLOOR, RHO_FLOOR / 2):
        passes = functools.partial(float.__ge__, target)
        expected = _first_passing_depth(mix, passes)
        if expected is None:
            with pytest.raises(ValueError, match="no gossip depth up to 8192 passes the target"):
                _shallowest_depth(mix, passes, "the target")
        else:
            assert _shallowest_depth(mix, passes, "the target") == expected, target


@settings(max_examples=300, deadline=None)
@given(
    mix_key=st.sampled_from([key for key in SEARCH_MIXES if key[1] <= 64]),
    eta=st.floats(min_value=1e-4, max_value=1.0),
    l0=st.floats(min_value=0.0, max_value=10.0),
    l1=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
    zeta=st.floats(min_value=0.0, max_value=3.0),
    sigma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
    b=st.integers(min_value=1, max_value=10**5),
)
def test_choose_k_for_guard_bisection_matches_linear_scan(
    mix_key, eta, l0, l1, zeta, sigma, b
):
    if l0 + l1 * zeta < 1e-3:  # keep eta * l_f / 4 clear of underflow
        l0 = 1.0
    mix = mixing(*mix_key)
    p = problem(l0, l1, zeta, sigma, mix.m)
    # a short limit keeps the scan cheap and makes some draws infeasible
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperparams, "K_MAX", 512)
        expected = _first_passing_depth(mix, lambda rho: rho_guard(rho, p, eta, b).ok)
        if expected is None:
            with pytest.raises(ValueError):
                choose_k_for_guard(mix, p, eta, b)
        else:
            assert choose_k_for_guard(mix, p, eta, b) == expected


def test_hyperparams_validation():
    good = dict(eta=0.1, b=1, big_t=0, k_inner=1, k_init=1, epsilon=0.1)
    HyperParams(**good)  # big_t = 0 is allowed: record only the start state
    for bad in (
        dict(good, eta=0.0),
        dict(good, eta=math.inf),
        dict(good, epsilon=math.nan),
        dict(good, b=0),
        dict(good, big_t=-1),
        dict(good, k_inner=0),
        dict(good, k_init=0),
        dict(good, epsilon=0.0),
        dict(good, b=True),
    ):
        with pytest.raises(ValueError):
            HyperParams(**bad)
