"""The checks on metric columns against the per-state loops they replaced.

verify_descent, verify_consensus_bound, stationarity_summary and the sweep's
first-hit search reduce a trajectory's metric columns with numpy. The
reference functions below are the same checks written as loops over the
states, one row at a time. Every report field must equal theirs exactly.
"""

import math
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest

from dnsgd.analysis import (
    ConsensusBoundReport,
    DescentReport,
    StateMetrics,
    StationaritySummary,
    Trajectory,
    stationarity_summary,
    verify_consensus_bound,
    verify_descent,
)
from dnsgd.harness import _first_hit

Row = namedtuple("Row", "t phi grad_norm_mean cons_x samples_per_agent comm_rounds")

ETA = 0.05
L_F = 1.3
PROBLEM = SimpleNamespace(f_star=0.25)  # verify_descent reads only f_star


def _rows(traj):
    m = traj.metrics
    return [
        Row(*values) for values in zip(
            range(traj.big_t + 1), m.phi.tolist(), m.grad_norm_mean.tolist(), m.cons_x.tolist(),
            traj.samples_per_agent.tolist(), traj.comm_rounds.tolist(),
        )
    ]


def reference_stationarity_summary(traj):
    rows = _rows(traj)
    if traj.big_t == 0:
        row = rows[0]
        return StationaritySummary(
            min_grad_mean=row.grad_norm_mean,
            avg_grad_mean=row.grad_norm_mean,
            agent_max_at_output=float(traj.metrics.agent_grad_norms[0].max()),
        )
    eligible = [row.grad_norm_mean for row in rows[: traj.big_t]]
    if traj.output_indices is None:
        agent_max = float(traj.metrics.agent_grad_norms[0].max())
    else:
        per_agent = [
            float(traj.metrics.agent_grad_norms[t_i, i])
            for i, t_i in enumerate(traj.output_indices)
        ]
        agent_max = max(per_agent)
    return StationaritySummary(
        min_grad_mean=min(eligible),
        avg_grad_mean=float(np.mean(eligible)),
        agent_max_at_output=agent_max,
    )


def reference_consensus_bound(traj, rho, m, eta):
    bound = rho * m * eta / (1.0 - rho)
    worst_cons = -math.inf
    worst_t = 0
    checked = 0
    for row in _rows(traj)[1:]:
        checked += 1
        if row.cons_x > worst_cons:
            worst_cons = row.cons_x
            worst_t = row.t
    if checked == 0:
        return ConsensusBoundReport(True, bound, 0.0, 0, 0)
    return ConsensusBoundReport(worst_cons <= bound, bound, worst_cons, worst_t, checked)


def reference_descent(trajs, p, eta, l_f, mode, tol=1e-9):
    if mode == "deterministic":
        worst = -math.inf
        worst_t = 0
        worst_traj = 0
        for idx, traj in enumerate(trajs):
            rows = _rows(traj)
            for row, nxt in zip(rows, rows[1:]):
                allowed = row.phi - (5.0 * eta / 8.0) * row.grad_norm_mean
                allowed += 0.75 * eta * eta * l_f
                margin = nxt.phi - allowed
                if margin > worst:
                    worst = margin
                    worst_t = row.t
                    worst_traj = idx
        if worst == -math.inf:
            worst = 0.0
        return DescentReport(
            passed=worst <= tol, mode=mode, bound=tol, observed=worst,
            worst_t=worst_t, worst_traj=worst_traj, n_seeds=len(trajs),
        )
    big_t = trajs[0].big_t
    delta_phi = float(np.mean([_rows(traj)[0].phi for traj in trajs])) - p.f_star
    bound = 8.0 * delta_phi / (5.0 * eta * big_t) + 1.2 * eta * l_f
    observed = float(
        np.mean([np.mean([row.grad_norm_mean for row in _rows(traj)[:big_t]]) for traj in trajs])
    )
    return DescentReport(
        passed=observed <= bound, mode=mode, bound=bound, observed=observed,
        worst_t=-1, worst_traj=-1, n_seeds=len(trajs),
    )


def reference_first_hit(traj, target):
    for row in _rows(traj):
        if row.grad_norm_mean <= target:
            return row.samples_per_agent, row.comm_rounds
    return None


def _traj(rng, big_t, m=3, **columns):
    """A trajectory with random metric columns; keyword arguments replace columns."""
    n = big_t + 1
    metrics = {
        "f_mean": rng.normal(size=n),
        "grad_norm_mean": rng.uniform(0.0, 2.0, n),
        "agent_grad_norms": rng.uniform(0.0, 2.0, (n, m)),
        "cons_x": rng.uniform(0.0, 1e-3, n),
        "cons_v": rng.uniform(0.0, 1e-3, n),
        "phi": 1.0 + rng.uniform(0.0, 0.1, n).cumsum()[::-1],
    }
    metrics.update({k: np.asarray(v, dtype=np.float64) for k, v in columns.items()})
    return Trajectory(
        algorithm="dnsgd",
        metrics=StateMetrics(**metrics),
        samples_per_agent=3 * np.arange(1, n + 1),
        comm_rounds=2 + 5 * np.arange(n),
        tracker_drifts=np.zeros(n),
        output_indices=rng.integers(0, big_t, size=m) if big_t > 0 else None,
    )


def _assert_all_checks_match(trajs):
    """Every check on trajs, and on each trajectory alone, equals its reference."""
    for traj in trajs:
        assert stationarity_summary(traj) == reference_stationarity_summary(traj)
        for rho in (0.0, 0.3, 0.999):
            assert verify_consensus_bound(traj, rho, 4, ETA) == reference_consensus_bound(
                traj, rho, 4, ETA
            )
        targets = (-1.0, 0.5, 1.0, float(traj.metrics.grad_norm_mean[-1]), 5.0)
        for target in targets:
            assert _first_hit(traj, target) == reference_first_hit(traj, target)
        for subset in ([traj], trajs):
            assert verify_descent(subset, PROBLEM, ETA, L_F, "deterministic") == reference_descent(
                subset, PROBLEM, ETA, L_F, "deterministic"
            )
    if trajs[0].big_t >= 1 and len({traj.big_t for traj in trajs}) == 1:
        assert verify_descent(trajs, PROBLEM, ETA, L_F, "stochastic") == reference_descent(
            trajs, PROBLEM, ETA, L_F, "stochastic"
        )


@pytest.mark.parametrize("big_t", [0, 1, 2, 7, 60])
def test_random_columns_match_reference(big_t):
    rng = np.random.default_rng(100 + big_t)
    for _ in range(5):
        _assert_all_checks_match([_traj(rng, big_t) for _ in range(3)])


def test_mixed_lengths_match_reference():
    rng = np.random.default_rng(7)
    _assert_all_checks_match([_traj(rng, big_t) for big_t in (0, 1, 5, 2)])


def test_tied_maxima_keep_the_first():
    rng = np.random.default_rng(3)
    n = 7
    # with phi constant, equal gradient norms give equal descent margins
    tied = dict(
        phi=np.full(n, 2.0), grad_norm_mean=[0.4, 0.9, 0.2, 0.9, 0.9, 0.2, 0.9],
        cons_x=[5.0, 1.0, 3.0, 3.0, 2.0, 3.0, 0.5], agent_grad_norms=np.ones((n, 3)),
    )
    trajs = [_traj(rng, n - 1, **tied) for _ in range(3)]
    _assert_all_checks_match(trajs)
    det = verify_descent(trajs, PROBLEM, ETA, L_F, "deterministic")
    assert (det.worst_traj, det.worst_t) == (0, 1)
    cons = verify_consensus_bound(trajs[0], 0.5, 4, ETA)
    assert (cons.worst_cons, cons.worst_t, cons.checked) == (3.0, 2, 6)
    assert _first_hit(trajs[0], 0.2) == (9, 12)


def test_worst_trajectory_is_a_later_one():
    rng = np.random.default_rng(11)
    trajs = [_traj(rng, 12) for _ in range(4)]
    jump = trajs[2].metrics.phi
    jump[5] += 1.0  # a potential increase from t = 4 to t = 5
    _assert_all_checks_match(trajs)
    det = verify_descent(trajs, PROBLEM, ETA, L_F, "deterministic")
    assert (det.worst_traj, det.worst_t, det.passed) == (2, 4, False)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_margins_are_skipped_like_the_loop():
    rng = np.random.default_rng(5)
    # inf - inf margins are nan; the loop never took one as its worst
    traj = _traj(rng, 3, phi=[1.0, math.inf, math.inf, 0.5])
    _assert_all_checks_match([traj])
    det = verify_descent([traj], PROBLEM, ETA, L_F, "deterministic")
    assert (det.observed, det.worst_t, det.passed) == (math.inf, 0, False)


def test_unreached_target_gives_none():
    # the sweep turns a point where no seed hits its target into a nan row
    # (test_harness.test_sweep_unreachable_target_yields_nan_row)
    rng = np.random.default_rng(2)
    traj = _traj(rng, 9, grad_norm_mean=np.linspace(3.0, 2.0, 10))
    assert _first_hit(traj, 1.0) is None
    assert reference_first_hit(traj, 1.0) is None
    assert _first_hit(traj, 2.0) == reference_first_hit(traj, 2.0) == (30, 47)
