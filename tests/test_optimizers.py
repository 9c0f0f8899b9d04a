"""Update rules: hand-simulated trajectories, counters, and failure modes."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import stepped_states

from dnsgd import optimizers, streams
from dnsgd.hyperparams import HyperParams, lyapunov_constants
from dnsgd.optimizers import (
    ALGORITHMS,
    METRICS_BLOCK_FLOATS,
    NonFiniteStateError,
    _unit_rows,
    dnasa_schedule,
    run,
)
from dnsgd.problems import f_base, grad_base, make_problem
from dnsgd.streams import StreamKey, derive_stream
from dnsgd.topology import build_topology, metropolis_mixing

RING4 = metropolis_mixing(build_topology("ring", 4))


def _hp(**kw):
    base = dict(eta=0.05, b=1, big_t=30, k_inner=3, k_init=2, epsilon=0.1)
    base.update(kw)
    return HyperParams(**base)


def test_normalize_rows_frozen():
    out = _unit_rows(np.array([[3.0, 4.0]]))
    assert out.tolist() == [[0.6, 0.8]]
    mixed = _unit_rows(np.array([[0.0, 0.0], [0.0, -2.0], [1e-15, 0.0]]))
    assert mixed[0].tolist() == [0.0, 0.0]
    assert mixed[1].tolist() == [0.0, -1.0]
    assert mixed[2].tolist() == [0.0, 0.0]  # below the norm cutoff


def test_dnsgd_single_agent_hand_simulation():
    # one agent, gossip is the identity, noiseless quadratic f(x) = x^2 / 2:
    # the tracker equals the gradient and each step moves by eta * sign(x),
    # so from 2.0 with eta = 0.5 the iterates are 2, 1.5, 1, 0.5, 0, 0.
    p = make_problem("quadratic", d=1, curvature=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    mix = metropolis_mixing(build_topology("ring", 1))
    hp = _hp(eta=0.5, big_t=5, k_inner=1, k_init=1)
    traj = run("dnsgd", p, hp, mix, np.array([2.0]), seeds=[1])
    assert traj.metrics.f_mean.tolist() == [[2.0, 1.125, 0.5, 0.125, 0.0, 0.0]]
    assert traj.metrics.grad_norm_mean.tolist() == [[2.0, 1.5, 1.0, 0.5, 0.0, 0.0]]
    # a single agent is always at consensus, so phi collapses to f
    assert np.array_equal(traj.metrics.phi, traj.metrics.f_mean)
    assert traj.samples_per_agent.tolist() == [1, 2, 3, 4, 5, 6]
    assert traj.comm_rounds.tolist() == [1, 3, 5, 7, 9, 11]


def test_dsgd_single_agent_geometric_decay():
    p = make_problem("quadratic", d=1, curvature=1.0, m=1, zeta=0.0, sigma=0.0, seed=0)
    mix = metropolis_mixing(build_topology("ring", 1))
    hp = _hp(eta=0.1, big_t=3)
    traj = run("dsgd", p, hp, mix, np.array([1.0]), seeds=[1])
    x = 1.0
    for grad_norm in traj.metrics.grad_norm_mean[0]:
        assert grad_norm == pytest.approx(x, rel=1e-14)
        x = x - 0.1 * x
    assert traj.comm_rounds.tolist() == [0, 1, 2, 3]


def test_dnsgd_mean_update_identity():
    # gossip preserves column means, so the averaged iterate must follow
    # xbar' = xbar - eta * mean(_unit_rows(V)) up to floating point
    p = make_problem("quadratic", d=3, curvature=1.0, m=4, zeta=0.8, sigma=0.0, seed=2)
    hp = _hp(eta=0.04, big_t=25, k_inner=4, k_init=3)
    states = stepped_states("dnsgd", p, hp, RING4, np.full(3, 1.5), 9)
    for t in range(hp.big_t):
        x_t, v_t = states[t].x, states[t].v
        x_next = states[t + 1].x
        predicted = x_t.mean(axis=0) - hp.eta * _unit_rows(v_t).mean(axis=0)
        assert np.allclose(x_next.mean(axis=0), predicted, atol=1e-10)
        # normalized directions bound the mean displacement by eta
        step = np.linalg.norm(x_next.mean(axis=0) - x_t.mean(axis=0))
        assert step <= hp.eta * (1.0 + 1e-12)


def test_tracker_identity_all_tracked_algorithms():
    p = make_problem("exp_pair", d=4, rate=1.0, m=4, zeta=0.2, sigma=0.5, seed=5)
    hp = _hp(eta=0.02, b=3, big_t=40)
    for alg in ("dnsgd", "dsgt", "dnasa"):
        traj = run(alg, p, hp, RING4, np.full(4, 0.5), seeds=[17])
        assert traj.tracker_drifts.max() <= 1e-8, alg


def test_run_is_deterministic_per_seed():
    p = make_problem("exp_pair", d=3, rate=1.0, m=4, zeta=0.2, sigma=0.7, seed=5)
    hp = _hp(big_t=10, b=2)
    x0 = np.full(3, 0.8)
    a = run("dnsgd", p, hp, RING4, x0, seeds=[42])
    b = run("dnsgd", p, hp, RING4, x0, seeds=[42])
    cols_a, cols_b = recorded_columns(a), recorded_columns(b)
    for name in COLUMNS:
        assert np.array_equal(cols_a[name], cols_b[name]), name
    assert np.array_equal(a.output_grad_norms, b.output_grad_norms)
    assert np.array_equal(a.output_indices, b.output_indices)
    c = run("dnsgd", p, hp, RING4, x0, seeds=[43])
    assert not np.array_equal(a.metrics.phi[0, 1:], c.metrics.phi[0, 1:])


def test_dsgt_removes_heterogeneity_floor():
    # with constant steps on a heterogeneous noiseless problem, plain
    # diffusion stalls at a consensus floor while tracking converges;
    # thresholds were frozen from an observed run (0.0855 vs 2.1e-9)
    p = make_problem("quadratic", d=3, curvature=1.0, m=4, zeta=1.0, sigma=0.0, seed=8)
    hp = _hp(eta=0.05, big_t=400)
    x0 = np.full(3, 1.0)
    dsgd = run("dsgd", p, hp, RING4, x0, seeds=[5])
    dsgt = run("dsgt", p, hp, RING4, x0, seeds=[5])
    assert dsgd.metrics.grad_norm_agent_max[0, -1] > 0.01
    assert dsgd.metrics.cons_x[0, -1] > 0.01
    assert dsgt.metrics.grad_norm_agent_max[0, -1] < 1e-6
    assert dsgt.metrics.cons_x[0, -1] < 1e-12


def test_divergence_raises_non_finite():
    p = make_problem("poly_even", d=2, power=4, scale=1.0, m=2, zeta=0.0, sigma=0.0, seed=1)
    mix = metropolis_mixing(build_topology("complete", 2))
    hp = _hp(eta=1e6, big_t=20)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError, match="non-finite"):
            run("dsgd", p, hp, mix, np.full(2, 1.0), seeds=[3])


def test_exp_range_exit_is_a_divergence():
    p = make_problem("exp_pair", d=4, rate=1.0, m=4, zeta=0.5, sigma=0.0, seed=3)
    hp = _hp(eta=50.0, big_t=400, k_inner=1, k_init=1)
    with pytest.raises(NonFiniteStateError, match=r"safe range .* at iteration 2, agent 0$"):
        run("dsgd", p, hp, RING4, np.full(4, 0.6), seeds=[7])
    # a start point out of range is bad input, not a divergence
    with pytest.raises(ValueError, match="safe range"):
        run("dsgd", p, hp, RING4, np.full(4, 701.0), seeds=[7])


def test_dnasa_schedule_frozen():
    assert dnasa_schedule(0.5, 16, 1) == 0.5
    assert dnasa_schedule(0.5, 16, 10000) == pytest.approx(0.002, rel=1e-15)
    with pytest.raises(ValueError, match="starts at 1"):
        dnasa_schedule(0.5, 16, 0)


def test_dnasa_step_respects_schedule():
    p = make_problem("quadratic", d=3, curvature=1.0, m=4, zeta=0.5, sigma=0.0, seed=2)
    hp = _hp(eta=0.5, big_t=12)
    states = stepped_states("dnasa", p, hp, RING4, np.full(3, 2.0), 6)
    for t in range(hp.big_t):
        x_t = states[t].x
        x_next = states[t + 1].x
        step = np.linalg.norm(x_next.mean(axis=0) - x_t.mean(axis=0))
        assert step <= dnasa_schedule(hp.eta, p.m, t + 1) * (1.0 + 1e-12)


def test_degenerate_horizon_records_initial_state_only():
    p = make_problem("quadratic", d=2, curvature=1.0, m=4, zeta=0.3, sigma=0.0, seed=2)
    hp = _hp(big_t=0)
    for alg in ALGORITHMS:
        traj = run(alg, p, hp, RING4, np.zeros(2), seeds=[1])
        assert traj.metrics.phi.shape == (1, 1) and traj.comm_rounds.shape == (1,)
        assert traj.big_t == 0
        assert traj.output_indices is None


# Communication rounds after iteration t, written out per algorithm: dnsgd
# gossips the tracker k_init times at the start, then mixes the iterates and
# the tracker k_inner times each per step; the others spend one plain W round
# per mixed matrix.
EXPECTED_COMM = {
    "dnsgd": lambda hp, t: hp.k_init + 2 * hp.k_inner * t,
    "dsgd": lambda hp, t: t,
    "dsgt": lambda hp, t: 2 * t,
    "dnasa": lambda hp, t: 2 * t,
}


def test_counters_per_algorithm():
    p = make_problem("quadratic", d=2, curvature=1.0, m=4, zeta=0.3, sigma=0.0, seed=2)
    hp = _hp(b=7, big_t=4, k_inner=5, k_init=3)
    assert EXPECTED_COMM["dnsgd"](hp, np.arange(3)).tolist() == [3, 13, 23]
    for alg in ALGORITHMS:
        traj = run(alg, p, hp, RING4, np.zeros(2), seeds=[1])
        t = np.arange(hp.big_t + 1)
        assert np.array_equal(traj.samples_per_agent, 7 * (t + 1))
        assert np.array_equal(traj.comm_rounds, EXPECTED_COMM[alg](hp, t)), alg
        assert traj.samples_per_agent.dtype == traj.comm_rounds.dtype == np.int64


def test_box_exit_counting():
    p = make_problem(
        "quadratic", d=2, curvature=1.0, m=4, zeta=0.0, sigma=0.0, seed=2, box_radius=0.5
    )
    hp = _hp(eta=0.3, big_t=3)
    traj = run("dnsgd", p, hp, RING4, np.full(2, 0.6), seeds=[1])
    assert traj.box_exits.shape == (1,) and traj.box_exits[0] >= 1
    # the start point is outside the box, so the initial state counts
    start = run("dnsgd", p, _hp(eta=0.3, big_t=0), RING4, np.full(2, 0.6), seeds=[1])
    assert start.box_exits.tolist() == [1]


def test_run_argument_validation():
    p = make_problem("quadratic", d=2, curvature=1.0, m=4, zeta=0.3, sigma=0.0, seed=2)
    hp = _hp()
    with pytest.raises(ValueError, match="unknown algorithm"):
        run("adam", p, hp, RING4, np.zeros(2), seeds=[1])
    other = metropolis_mixing(build_topology("ring", 8))
    with pytest.raises(ValueError, match="couples"):
        run("dnsgd", p, hp, other, np.zeros(2), seeds=[1])
    # state snapshots were removed with their keyword
    with pytest.raises(TypeError, match="snapshot_every"):
        run("dnsgd", p, hp, RING4, np.zeros(2), seeds=[1], snapshot_every=1)
    with pytest.raises(ValueError, match="shape"):
        run("dnsgd", p, hp, RING4, np.zeros(3), seeds=[1])
    with pytest.raises(ValueError, match="finite"):
        run("dnsgd", p, hp, RING4, np.array([np.nan, 0.0]), seeds=[1])
    with pytest.raises(ValueError, match="at least one seed"):
        run("dnsgd", p, hp, RING4, np.zeros(2), seeds=[])


# --- the recorded trajectory against a per-iteration reference ------------------

def _block_len(p):
    return max(1, METRICS_BLOCK_FLOATS // (p.m * p.d))


def reference_state_metrics(x, v, p, eta):
    """One state's metrics, computed point by point."""
    m0, m1 = lyapunov_constants(p)
    xbar = x.mean(axis=0)
    f_mean = f_base(p, xbar)
    grad_norm = float(np.linalg.norm(grad_base(p, xbar), axis=-1))
    g = grad_base(p, x)
    cons_x = float(np.linalg.norm(np.ravel(x - x.mean(axis=0, keepdims=True)), axis=-1))
    cons_v = float(np.linalg.norm(np.ravel(v - v.mean(axis=0, keepdims=True)), axis=-1))
    sqm = math.sqrt(p.m)
    phi = f_mean + (3.0 * eta / sqm) * (m0 + m1 * grad_norm) * cons_x + (2.0 * eta / sqm) * cons_v
    return f_mean, grad_norm, np.linalg.norm(g, axis=-1), cons_x, cons_v, phi


# the columns a run records per state, in metrics CSV order
COLUMNS = (
    "t", "f_mean", "grad_norm_mean", "grad_norm_agent_max", "cons_x", "cons_v", "phi",
    "samples_per_agent", "comm_rounds",
)


def reference_run(algorithm, p, hp, w, x0, master_seed):
    """run, with every state's metrics recorded one state at a time."""
    cols = {name: [] for name in COLUMNS}
    drifts, agent_norms = [], []
    box_exits = 0
    first_exit = None
    for s in stepped_states(algorithm, p, hp, w, x0, master_seed):
        f_mean, grad_norm, agent, cons_x, cons_v, phi = reference_state_metrics(
            s.x, s.v, p, hp.eta
        )
        values = (
            s.t, f_mean, grad_norm, float(agent.max()), cons_x, cons_v, phi,
            hp.b * (s.t + 1), EXPECTED_COMM[algorithm](hp, s.t),
        )
        for name, value in zip(COLUMNS, values):
            cols[name].append(value)
        agent_norms.append(agent)
        vbar = s.v.mean(axis=0)
        gbar = s.g_prev.mean(axis=0)
        scale = max(1.0, float(np.linalg.norm(gbar, axis=-1)))
        drifts.append(float(np.linalg.norm(vbar - gbar, axis=-1)) / scale)
        if np.abs(s.x).max() > p.box_radius:
            box_exits += 1
            if first_exit is None:
                first_exit = s.t
    output_indices = (
        derive_stream(StreamKey(master_seed, "output_draw")).integers(0, hp.big_t, size=p.m)
        if hp.big_t > 0 else None
    )
    return {name: np.array(col) for name, col in cols.items()}, np.array(agent_norms), \
        np.array(drifts), output_indices, box_exits, first_exit


def recorded_columns(traj, s=0):
    """The columns of COLUMNS as run recorded them for the seed in row s."""
    m = traj.metrics
    return {
        "t": np.arange(traj.big_t + 1), "f_mean": m.f_mean[s],
        "grad_norm_mean": m.grad_norm_mean[s],
        "grad_norm_agent_max": m.grad_norm_agent_max[s], "cons_x": m.cons_x[s],
        "cons_v": m.cons_v[s], "phi": m.phi[s], "samples_per_agent": traj.samples_per_agent,
        "comm_rounds": traj.comm_rounds,
    }


def _assert_row_matches_reference(traj, s, algorithm, p, hp, w, x0, seed):
    """Row s of traj equals the reference run of seed; returns its first box exit and count."""
    cols, agent_norms, drifts, output_indices, box_exits, first_exit = reference_run(
        algorithm, p, hp, w, x0, seed
    )
    for name, col in recorded_columns(traj, s).items():
        assert col.shape == cols[name].shape, name
        assert col.dtype.kind == cols[name].dtype.kind, name
        assert np.array_equal(col, cols[name]), name
    assert np.array_equal(traj.tracker_drifts[s], drifts)
    assert traj.tracker_drifts.shape == (traj.num_seeds, *drifts.shape)
    if output_indices is None:
        assert traj.output_indices is None
        draws = np.zeros(p.m, dtype=np.int64)  # a big_t = 0 run keeps its initial state's norms
    else:
        assert traj.output_indices.shape == (traj.num_seeds, p.m)
        assert np.array_equal(traj.output_indices[s], output_indices)
        draws = output_indices
    # each agent's norm at its own output draw, the only per-agent norms a run keeps
    assert traj.output_grad_norms.shape == (traj.num_seeds, p.m)
    assert np.array_equal(traj.output_grad_norms[s], agent_norms[draws, np.arange(p.m)])
    assert traj.box_exits.shape == (traj.num_seeds,)
    assert traj.box_exits[s] == box_exits
    return first_exit, box_exits


def _assert_matches_reference(algorithm, p, hp, w, x0, seed):
    """run on [seed] equals the reference; returns the reference's first box exit and count."""
    traj = run(algorithm, p, hp, w, x0, [seed])
    assert traj.num_seeds == 1
    return _assert_row_matches_reference(traj, 0, algorithm, p, hp, w, x0, seed)


D_WIDE = 256  # with m = 4, a metrics block holds 16 states

WIDE_PROBLEMS = {
    "exp_pair": lambda: make_problem(
        "exp_pair", d=D_WIDE, rate=1.0, m=4, zeta=0.3, sigma=0.5, seed=5
    ),
    "poly_even": lambda: make_problem(
        "poly_even", d=D_WIDE, power=4, scale=0.5, m=4, zeta=0.3, sigma=0.5, seed=5
    ),
    "quadratic": lambda: make_problem(
        "quadratic", d=D_WIDE, curvature=1.0, m=4, zeta=0.3, sigma=0.5, seed=5
    ),
}


@pytest.mark.parametrize("family", sorted(WIDE_PROBLEMS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_matches_per_iteration_reference(algorithm, family):
    p = WIDE_PROBLEMS[family]()
    block = _block_len(p)
    hp = _hp(eta=0.02, b=2, big_t=2 * block + 3, k_inner=3, k_init=2)
    _assert_matches_reference(algorithm, p, hp, RING4, np.full(D_WIDE, 0.5), 11)


@pytest.mark.parametrize("horizon", ["0", "1", "B-1", "B", "2B+3"])
def test_run_matches_reference_at_block_edges(horizon):
    p = WIDE_PROBLEMS["exp_pair"]()
    block = _block_len(p)
    big_t = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "2B+3": 2 * block + 3}[horizon]
    hp = _hp(eta=0.02, b=2, big_t=big_t, k_inner=3, k_init=2)
    _assert_matches_reference("dnsgd", p, hp, RING4, np.full(D_WIDE, 0.5), 3)


def test_run_matches_reference_with_first_box_exit_in_second_block():
    # a near-flat quadratic with large noise: the iterates random-walk out of the box
    p = make_problem(
        "quadratic", d=D_WIDE, curvature=1e-3, m=4, zeta=0.0, sigma=16.0, seed=3, box_radius=0.6
    )
    block = _block_len(p)
    hp = _hp(eta=0.1, big_t=2 * block + 3)
    first_exit, box_exits = _assert_matches_reference("dsgd", p, hp, RING4, np.zeros(D_WIDE), 5)
    assert block < first_exit < 2 * block
    assert box_exits > 1


@pytest.mark.parametrize("algorithm", ["dnsgd", "dsgd"])
def test_run_matches_reference_on_large_ring(algorithm):
    p = make_problem("exp_pair", d=10, rate=1.0, m=256, zeta=0.2, sigma=0.5, seed=2)
    mix = metropolis_mixing(build_topology("ring", 256))
    block = _block_len(p)
    assert block == 6
    hp = _hp(eta=0.02, b=1, big_t=2 * block + 3, k_inner=40, k_init=5)
    _assert_matches_reference(algorithm, p, hp, mix, np.full(10, 0.5), 8)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_rows_do_not_depend_on_the_batching_of_seeds(algorithm):
    # each seed crosses a metrics block boundary and ends in a partial block
    p = WIDE_PROBLEMS["exp_pair"]()
    hp = _hp(eta=0.02, b=2, big_t=_block_len(p) + 5, k_inner=3, k_init=2)
    x0 = np.full(D_WIDE, 0.5)
    seeds = [11, 2**64 - 1, 0]
    batch = run(algorithm, p, hp, RING4, x0, seeds)
    assert batch.metrics.phi.shape == batch.tracker_drifts.shape == (3, hp.big_t + 1)
    assert batch.output_indices.shape == (3, p.m) and batch.box_exits.shape == (3,)
    for s, seed in enumerate(seeds):
        alone = run(algorithm, p, hp, RING4, x0, [seed])
        for name in alone.metrics._fields:
            row, expected = getattr(batch.metrics, name)[s], getattr(alone.metrics, name)[0]
            assert row.tobytes() == expected.tobytes(), (seed, name)
        assert batch.tracker_drifts[s].tobytes() == alone.tracker_drifts[0].tobytes()
        assert batch.output_indices[s].tobytes() == alone.output_indices[0].tobytes()
        assert batch.output_grad_norms[s].tobytes() == alone.output_grad_norms[0].tobytes()
        assert batch.box_exits[s] == alone.box_exits[0]
        assert np.array_equal(batch.samples_per_agent, alone.samples_per_agent)
        assert np.array_equal(batch.comm_rounds, alone.comm_rounds)


def test_stream_derivations_per_run_do_not_grow_with_big_t(monkeypatch):
    """A run derives two streams per seed, its oracle stream and its output
    draw, at any length: derive_stream calls, wherever a module imported it
    by name, and SeedSequence constructions are counted at two run lengths."""
    p = make_problem("quadratic", d=3, curvature=1.0, m=4, zeta=0.3, sigma=0.5, seed=2)
    counts = {"derive_stream": 0, "SeedSequence": 0}
    derive, seed_sequence = streams.derive_stream, np.random.SeedSequence

    def counting_derive(key):
        counts["derive_stream"] += 1
        return derive(key)

    def counting_seed_sequence(*args, **kwargs):
        counts["SeedSequence"] += 1
        return seed_sequence(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dnsgd") and getattr(module, "derive_stream", None) is derive:
            monkeypatch.setattr(module, "derive_stream", counting_derive)
    monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
    seeds = [4, 5, 6]
    for big_t in (10, 1000):
        counts.update(derive_stream=0, SeedSequence=0)
        run("dnsgd", p, _hp(big_t=big_t), RING4, np.full(3, 0.5), seeds=seeds)
        assert counts == {"derive_stream": 2 * len(seeds), "SeedSequence": 2 * len(seeds)}


def test_stacked_noisy_run_matches_reference_across_noise_chunks():
    # run draws each seed's oracle noise a metrics block of iterations at a
    # time, for all seeds of the stack; every row must equal the reference,
    # which draws one (m, d) block per iteration from a fresh oracle stream
    p = WIDE_PROBLEMS["exp_pair"]()
    assert p.sigma > 0.0
    seeds = [0, 17, 2**64 - 1]
    chunk = METRICS_BLOCK_FLOATS // (len(seeds) * p.m * p.d)
    hp = _hp(eta=0.02, b=2, big_t=2 * chunk + 3, k_inner=3, k_init=2)
    x0 = np.full(D_WIDE, 0.5)
    traj = run("dnsgd", p, hp, RING4, x0, seeds)
    for s, seed in enumerate(seeds):
        _assert_row_matches_reference(traj, s, "dnsgd", p, hp, RING4, x0, seed)


def test_run_moves_all_seeds_in_one_step_call(monkeypatch):
    # the bound step of update_rule is called once per iteration with the
    # (S, m, d) stack of all seeds, so big_t times at any seed count
    p = make_problem("exp_pair", d=3, rate=1.0, m=4, zeta=0.3, sigma=0.4, seed=5)
    hp = _hp(eta=0.05, b=2, big_t=25, k_inner=3, k_init=2)
    x0 = np.full(3, 0.5)
    bind = optimizers.update_rule
    shapes = []

    def counting_rule(*args):
        init, step = bind(*args)

        def counted_step(s, noise):
            shapes.append(s.x.shape)
            return step(s, noise)

        return init, counted_step

    monkeypatch.setattr(optimizers, "update_rule", counting_rule)
    seeds = [4, 9, 2**64 - 1]
    alone = {}
    for batch in [[seed] for seed in seeds] + [seeds]:
        shapes.clear()
        traj = run("dnsgd", p, hp, RING4, x0, batch)
        assert shapes == [(len(batch), p.m, p.d)] * hp.big_t
        if len(batch) == 1:
            alone[batch[0]] = traj
    for s, seed in enumerate(seeds):
        for name in traj.metrics._fields:
            row = getattr(traj.metrics, name)[s]
            assert row.tobytes() == getattr(alone[seed].metrics, name)[0].tobytes(), name
        assert traj.tracker_drifts[s].tobytes() == alone[seed].tracker_drifts[0].tobytes()


# dsgd on a noisy quartic near its stability edge: each seed diverges at an
# iteration of its own (seed 5 at 32, seed 7 at 34, seed 4 at 10)
NOISY_QUARTIC = dict(d=3, power=4, scale=0.5, m=4, zeta=0.3, sigma=12.0, seed=5)


def _divergence(seeds):
    p = make_problem("poly_even", **NOISY_QUARTIC)
    hp = _hp(eta=0.3, b=1, big_t=80, k_inner=1, k_init=1)
    with pytest.raises(NonFiniteStateError) as err:
        run("dsgd", p, hp, RING4, np.full(3, 0.5), seeds=seeds)
    return str(err.value)


def test_stacked_run_reports_the_earliest_diverging_seed():
    alone = {seed: _divergence([seed]) for seed in (5, 7, 4)}
    iteration = {
        seed: int(re.search(r"at iteration (\d+), agent \d+$", line).group(1))
        for seed, line in alone.items()
    }
    assert iteration[4] < iteration[5] < iteration[7]
    # row 2 diverges first: its one-seed line, with the row named
    where = f"at iteration {iteration[4]}, "
    assert _divergence([5, 7, 4]) == alone[4].replace(where, where + "seed 2, ")
    # a tie goes to the lowest row
    assert _divergence([4, 4]) == alone[4].replace(where, where + "seed 0, ")


def test_run_memory_does_not_hold_per_agent_history():
    # on a 256-agent ring (FFT gossip) with 2 seeds, 200 more states may add
    # their (S, big_t + 1) columns, far less than the 819 KB that an
    # (S, big_t + 1, m) array of per-agent norms would add
    p = make_problem("quadratic", d=10, curvature=1.0, m=256, zeta=0.2, sigma=0.5, seed=2)
    mix = metropolis_mixing(build_topology("ring", 256))
    run("dnsgd", p, _hp(big_t=1), mix, np.full(10, 0.5), seeds=[1, 2])  # first-call set-up
    peaks = []
    for big_t in (200, 400):
        hp = _hp(eta=0.02, b=1, big_t=big_t, k_inner=3, k_init=2)
        tracemalloc.start()
        try:
            traj = run("dnsgd", p, hp, mix, np.full(10, 0.5), seeds=[1, 2])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert traj.output_grad_norms.shape == (2, 256)
    history = 2 * 200 * 256 * 8
    assert peaks[1] - peaks[0] < history / 8, peaks
