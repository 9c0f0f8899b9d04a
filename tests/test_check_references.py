"""The checks on metric columns against the per-state loops they replaced.

verify_descent, verify_consensus_bound, stationarity_summary and the sweep's
first-hit search reduce a trajectory's (S, big_t + 1) metric columns over
seeds and states with numpy. The reference functions below are the same
checks written as loops over the seeds and the states, one row at a time.
Every report field must equal theirs exactly.
"""

import math
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest

from dnsgd.analysis import (
    ConsensusBoundReport,
    DescentReport,
    MetricColumns,
    Trajectory,
    stationarity_summary,
    verify_consensus_bound,
    verify_descent,
)
from dnsgd.harness import _first_hits

Row = namedtuple("Row", "t phi grad_norm_mean cons_x")

ETA = 0.05
L_F = 1.3
# verify_descent reads only f_star and, through lf_effective, l_f = l0 + l1 * zeta = L_F
PROBLEM = SimpleNamespace(f_star=0.25, l0=L_F, l1=0.0, zeta=0.0)


def _rows(traj, s):
    """The states of seed s, one Row each."""
    m = traj.metrics
    return [
        Row(*values) for values in zip(
            range(traj.big_t + 1), m.phi[s].tolist(), m.grad_norm_mean[s].tolist(),
            m.cons_x[s].tolist(),
        )
    ]


def reference_stationarity_summary(traj):
    """(min_grad_mean, avg_grad_mean, agent_max_at_output), each a list over the seeds."""
    mins, avgs, outs = [], [], []
    for s in range(traj.num_seeds):
        rows = _rows(traj, s)
        eligible = [row.grad_norm_mean for row in rows[: max(traj.big_t, 1)]]
        mins.append(min(eligible))
        avgs.append(float(np.mean(eligible)))
        outs.append(max(traj.output_grad_norms[s].tolist()))
    return mins, avgs, outs


def reference_consensus_bound(traj, rho, m, eta):
    bound = rho * m * eta / (1.0 - rho)
    worst_cons = -math.inf
    worst_t = 0
    checked = 0
    for s in range(traj.num_seeds):
        for row in _rows(traj, s)[1:]:
            checked += 1
            if row.cons_x > worst_cons:
                worst_cons = row.cons_x
                worst_t = row.t
    if checked == 0:
        return ConsensusBoundReport(True, bound, 0.0, 0, 0)
    return ConsensusBoundReport(worst_cons <= bound, bound, worst_cons, worst_t, checked)


def reference_descent(traj, p, eta, l_f, mode, tol=1e-9):
    n_seeds = traj.num_seeds
    if mode == "deterministic":
        worst = -math.inf
        worst_t = 0
        worst_seed = 0
        for s in range(n_seeds):
            rows = _rows(traj, s)
            for row, nxt in zip(rows, rows[1:]):
                allowed = row.phi - (5.0 * eta / 8.0) * row.grad_norm_mean
                allowed += 0.75 * eta * eta * l_f
                margin = nxt.phi - allowed
                if margin > worst:
                    worst = margin
                    worst_t = row.t
                    worst_seed = s
        if worst == -math.inf:
            worst = 0.0
        return DescentReport(
            passed=worst <= tol, mode=mode, bound=tol, observed=worst,
            worst_t=worst_t, worst_seed=worst_seed, n_seeds=n_seeds,
        )
    big_t = traj.big_t
    delta_phi = float(np.mean([_rows(traj, s)[0].phi for s in range(n_seeds)])) - p.f_star
    bound = 8.0 * delta_phi / (5.0 * eta * big_t) + 1.2 * eta * l_f
    observed = float(np.mean([
        np.mean([row.grad_norm_mean for row in _rows(traj, s)[:big_t]]) for s in range(n_seeds)
    ]))
    return DescentReport(
        passed=observed <= bound, mode=mode, bound=bound, observed=observed,
        worst_t=-1, worst_seed=-1, n_seeds=n_seeds,
    )


def reference_first_hits(traj, target):
    """The first state reaching target on each seed that reaches it, in seed order."""
    hits = []
    for s in range(traj.num_seeds):
        for row in _rows(traj, s):
            if row.grad_norm_mean <= target:
                hits.append(row.t)
                break
    return hits


def _traj(rng, big_t, n_seeds=3, m=3, **columns):
    """A trajectory with random metric columns; keyword arguments replace columns.

    A replacement column of big_t + 1 entries is given to every seed. The
    agent norms are drawn for every state, and the trajectory keeps them as a
    run does: their agent maximum and the norms at each agent's output draw.
    """
    shape = (n_seeds, big_t + 1)
    agent_norms = rng.uniform(0.0, 2.0, (*shape, m))
    output_indices = rng.integers(0, big_t, size=(n_seeds, m)) if big_t > 0 else None
    draws = np.zeros((n_seeds, m), dtype=np.int64) if big_t == 0 else output_indices
    seeds, agents = np.indices(draws.shape)
    metrics = {
        "f_mean": rng.normal(size=shape),
        "grad_norm_mean": rng.uniform(0.0, 2.0, shape),
        "grad_norm_agent_max": agent_norms.max(axis=2),
        "cons_x": rng.uniform(0.0, 1e-3, shape),
        "cons_v": rng.uniform(0.0, 1e-3, shape),
        "phi": 1.0 + rng.uniform(0.0, 0.1, shape).cumsum(axis=1)[:, ::-1],
    }
    for name, column in columns.items():
        column = np.asarray(column, dtype=np.float64)
        metrics[name] = np.broadcast_to(column, (n_seeds, *column.shape)).copy()
    n = big_t + 1
    return Trajectory(
        metrics=MetricColumns(**metrics),
        samples_per_agent=3 * np.arange(1, n + 1),
        comm_rounds=2 + 5 * np.arange(n),
        tracker_drifts=np.zeros(shape),
        output_indices=output_indices,
        output_grad_norms=agent_norms[seeds, draws, agents],
        box_exits=np.zeros(n_seeds, dtype=np.int64),
    )


def _one_seed(traj, s):
    """Seed s of traj as a trajectory of its own."""
    rows = slice(s, s + 1)
    return Trajectory(
        metrics=MetricColumns(*(col[rows] for col in traj.metrics)),
        samples_per_agent=traj.samples_per_agent,
        comm_rounds=traj.comm_rounds,
        tracker_drifts=traj.tracker_drifts[rows],
        output_indices=None if traj.output_indices is None else traj.output_indices[rows],
        output_grad_norms=traj.output_grad_norms[rows],
        box_exits=traj.box_exits[rows],
    )


def _assert_all_checks_match(traj):
    """Every check on traj, and on each of its seeds alone, equals its reference."""
    for run in [traj] + [_one_seed(traj, s) for s in range(traj.num_seeds)]:
        st = stationarity_summary(run)
        fields = (st.min_grad_mean, st.avg_grad_mean, st.agent_max_at_output)
        for got, expected in zip(fields, reference_stationarity_summary(run)):
            assert got.shape == (run.num_seeds,)
            assert got.tolist() == expected
        for rho in (0.0, 0.3, 0.999):
            assert verify_consensus_bound(run, rho, 4, ETA) == reference_consensus_bound(
                run, rho, 4, ETA
            )
        targets = (-1.0, 0.5, 1.0, float(run.metrics.grad_norm_mean[0, -1]), 5.0)
        for target in targets:
            assert _first_hits(run, target).tolist() == reference_first_hits(run, target)
        assert verify_descent(run, PROBLEM, ETA, "deterministic") == reference_descent(
            run, PROBLEM, ETA, L_F, "deterministic"
        )
        if run.big_t >= 1:
            assert verify_descent(run, PROBLEM, ETA, "stochastic") == reference_descent(
                run, PROBLEM, ETA, L_F, "stochastic"
            )


@pytest.mark.parametrize("big_t", [0, 1, 2, 7, 60])
def test_random_columns_match_reference(big_t):
    rng = np.random.default_rng(100 + big_t)
    for _ in range(5):
        _assert_all_checks_match(_traj(rng, big_t))


def test_tied_maxima_keep_the_first():
    rng = np.random.default_rng(3)
    n = 7
    # with phi constant, equal gradient norms give equal descent margins
    tied = dict(
        phi=np.full(n, 2.0), grad_norm_mean=[0.4, 0.9, 0.2, 0.9, 0.9, 0.2, 0.9],
        cons_x=[5.0, 1.0, 3.0, 3.0, 2.0, 3.0, 0.5], grad_norm_agent_max=np.ones(n),
    )
    traj = _traj(rng, n - 1, **tied)
    _assert_all_checks_match(traj)
    det = verify_descent(traj, PROBLEM, ETA, "deterministic")
    assert (det.worst_seed, det.worst_t) == (0, 1)
    cons = verify_consensus_bound(traj, 0.5, 4, ETA)
    assert (cons.worst_cons, cons.worst_t, cons.checked) == (3.0, 2, 18)
    hits = _first_hits(traj, 0.2)
    assert hits.tolist() == [2, 2, 2]
    assert (traj.samples_per_agent[hits[0]], traj.comm_rounds[hits[0]]) == (9, 12)


def test_worst_trajectory_is_a_later_one():
    rng = np.random.default_rng(11)
    traj = _traj(rng, 12, n_seeds=4)
    traj.metrics.phi[2, 5] += 1.0  # a potential increase from t = 4 to t = 5 on seed 2
    traj.metrics.cons_x[3, 7] = 1.0
    _assert_all_checks_match(traj)
    det = verify_descent(traj, PROBLEM, ETA, "deterministic")
    assert (det.worst_seed, det.worst_t, det.passed) == (2, 4, False)
    cons = verify_consensus_bound(traj, 0.5, 4, ETA)
    assert (cons.worst_cons, cons.worst_t, cons.passed) == (1.0, 7, False)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_margins_are_skipped_like_the_loop():
    rng = np.random.default_rng(5)
    # inf - inf margins are nan; the loop never took one as its worst
    traj = _traj(rng, 3, n_seeds=1, phi=[1.0, math.inf, math.inf, 0.5])
    _assert_all_checks_match(traj)
    det = verify_descent(traj, PROBLEM, ETA, "deterministic")
    assert (det.observed, det.worst_t, det.passed) == (math.inf, 0, False)


def test_unreached_target_gives_none():
    # the sweep turns a point where no seed hits its target into a nan row
    # (test_harness.test_sweep_unreachable_target_yields_nan_row)
    rng = np.random.default_rng(2)
    traj = _traj(rng, 9, grad_norm_mean=np.linspace(3.0, 2.0, 10))
    traj.metrics.grad_norm_mean[1] += 1.0  # seed 1 never gets to 2.0
    assert _first_hits(traj, 1.0).tolist() == reference_first_hits(traj, 1.0) == []
    hits = _first_hits(traj, 2.0)
    assert hits.tolist() == reference_first_hits(traj, 2.0) == [9, 9]
    assert (traj.samples_per_agent[9], traj.comm_rounds[9]) == (30, 47)
