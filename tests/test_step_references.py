"""The bound optimizer step against the checked paths it replaced.

The step of update_rule calls gossip, oracle and normalization kernels that
do not check their input. The references below are the public functions
that check (acc_gossip, plain_gossip, sample_grad) and row normalization
through np.linalg.norm, with a fresh derive_stream(seed, "oracle") read
one (m, d) block per iteration. States and normalized rows must equal theirs
bit for bit. That run hands the step the same noise blocks is tested here
too; that its chunked draws across several metrics blocks give the same
trajectories is tested in test_optimizers
(test_stacked_noisy_run_matches_reference_across_noise_chunks).
"""

import numpy as np
import pytest
from conftest import stepped_states

from dnsgd import optimizers
from dnsgd.gossip import acc_gossip, plain_gossip
from dnsgd.hyperparams import HyperParams
from dnsgd.optimizers import EPS_NORM, METHODS, _unit_rows, dnasa_schedule, run
from dnsgd.problems import make_problem, sample_grad
from dnsgd.streams import derive_stream
from dnsgd.topology import build_topology, metropolis_mixing

RING5 = metropolis_mixing(build_topology("ring", 5))
PROBLEMS = {
    "exp_pair": make_problem("exp_pair", d=3, rate=1.0, m=5, zeta=0.3, sigma=0.4, seed=11),
    "poly_even": make_problem(
        "poly_even", d=3, power=4, scale=0.5, m=5, zeta=0.3, sigma=0.4, seed=12
    ),
}
HP = HyperParams(eta=0.05, b=3, big_t=40, k_inner=4, k_init=2, epsilon=0.1)


def reference_normalize_rows(v):
    """Row normalization as it was: np.linalg.norm and a boolean row mask."""
    v = np.asarray(v, dtype=np.float64)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    out = np.zeros_like(v)
    keep = norms[:, 0] > EPS_NORM
    out[keep] = v[keep] / norms[keep]
    return out


def reference_states(algorithm, p, hp, w, x0, seed):
    """(X, V, G) at t = 0..big_t, from the checked public maps and the seed's oracle stream."""
    method = METHODS[algorithm]
    rng = derive_stream(seed, "oracle")

    def mix(y):
        return acc_gossip(y, w, hp.k_inner) if method.accelerated else plain_gossip(y, w, 1)

    x = np.tile(x0, (p.m, 1))
    g = sample_grad(p, x, hp.b, rng)
    v = acc_gossip(g, w, hp.k_init) if method.accelerated else g.copy()
    states = [(x, v, g)]
    for t in range(1, hp.big_t + 1):
        eta = dnasa_schedule(hp.eta, p.m, t) if method.scheduled else hp.eta
        direction = reference_normalize_rows(v) if method.normalized else v
        x = mix(x - eta * direction)
        g_next = sample_grad(p, x, hp.b, rng)
        if not method.tracked:
            v = g_next
        elif method.accelerated:
            v = mix(v + g_next - g)
        else:
            v = mix(v) + g_next - g
        g = g_next
        states.append((x, v, g))
    return states


@pytest.mark.parametrize("family", sorted(PROBLEMS))
@pytest.mark.parametrize("algorithm", sorted(METHODS))
def test_stepped_states_match_reference(algorithm, family):
    p = PROBLEMS[family]
    x0 = np.array([0.9, -0.4, 1.2])
    states = stepped_states(algorithm, p, HP, RING5, x0, 17)
    expected = reference_states(algorithm, p, HP, RING5, x0, 17)
    assert len(states) == len(expected)
    for s, (x, v, g) in zip(states, expected):
        assert s.x.tobytes() == x.tobytes()
        assert s.v.tobytes() == v.tobytes()
        assert s.g_prev.tobytes() == g.tobytes()


@pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
def test_runner_noise_blocks_are_derive_stream_draws(monkeypatch, seed):
    p = PROBLEMS["exp_pair"]
    bind = optimizers.update_rule
    blocks = []

    def recording_rule(*args):
        init, step = bind(*args)

        def recorded_init(x, noise):
            blocks.append(noise.copy())
            return init(x, noise)

        def recorded_step(s, noise):
            blocks.append(noise.copy())
            return step(s, noise)

        return recorded_init, recorded_step

    monkeypatch.setattr(optimizers, "update_rule", recording_rule)
    run("dnsgd", p, HP, RING5, np.full(p.d, 0.5), [seed])
    assert len(blocks) == HP.big_t + 1
    # iteration t's block is the t-th consecutive (m, d) draw of a fresh
    # oracle stream, scaled as sample_grad scales it
    fresh = derive_stream(seed, "oracle")
    scale = p.sigma / np.sqrt(HP.b * p.d)
    for block in blocks:
        assert block.shape == (1, p.m, p.d)
        assert block[0].tobytes() == (fresh.standard_normal((p.m, p.d)) * scale).tobytes()


@pytest.mark.parametrize("d", [1, 10, 257])
def test_normalize_rows_matches_reference(d):
    rng = np.random.default_rng(d)
    scales = 10.0 ** rng.uniform(-15.0, 15.0, size=(300, 1))
    eps_row = np.zeros(d)
    eps_row[0] = EPS_NORM
    rows = np.vstack([
        rng.standard_normal((300, d)) * scales,
        np.zeros((2, d)),
        -np.zeros((1, d)),
        eps_row,  # norm exactly EPS_NORM: zeroed
        -eps_row,
        np.nextafter(eps_row, 1.0),  # the next float above: normalized
        np.full(d, EPS_NORM / np.sqrt(d)),  # norm EPS_NORM up to rounding
        np.full(d, 1e-300),
    ])
    assert _unit_rows(rows).tobytes() == reference_normalize_rows(rows).tobytes()


def test_normalize_rows_matches_reference_on_overflowing_norms():
    # finite rows whose squared norm overflows normalize to (signed) zeros in both
    rows = np.array([[1e200, -1e200, 3.0], [-1e300, 0.0, 0.0], [1.0, 2.0, 2.0]])
    with np.errstate(over="ignore"):
        assert _unit_rows(rows).tobytes() == reference_normalize_rows(rows).tobytes()
