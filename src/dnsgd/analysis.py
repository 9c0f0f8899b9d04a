"""Per-iteration metrics, the Lyapunov potential, and verification checks.

The potential combines the average objective value with gradient-weighted
consensus penalties:

    phi = f(xbar) + (3 eta / sqrt(m)) (m0 + m1 ||grad f(xbar)||) ||X - 1 xbar||
        + (2 eta / sqrt(m)) ||V - 1 vbar||

with (m0, m1) = lyapunov_constants(p). state_metrics computes it
with the other recorded metrics for a stack of states (n, m, d); the runner
calls it once per block of iterations and stores the stacked result as the
trajectory's metric columns, one row per seed of the run, with each block's
per-agent norms reduced to their agent maximum and to the norms at the
seed's output draws. A Trajectory holds those columns and the run's
counters, not the states; the potential of a given state (X, V) is
state_metrics(X[None], V[None], p, eta).phi[0]. The
checks reduce the columns over seeds and iterations at once: verify_descent
checks the one-step decrease inequality implied by the theory, either per
iteration on noiseless runs or in seed-averaged form; verify_consensus_bound
checks the steady-state consensus radius rho * m * eta / (1 - rho) on every
seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .gossip import consensus_error
from .hyperparams import FIELDS, lyapunov_constants
from .problems import ProblemInstance, _row_norms, check_fields, f_base, grad_base, lf_effective


class MetricColumns(NamedTuple):
    """A run's recorded metrics, in metrics CSV order: each (S, big_t + 1), row s is seed s.

    grad_norm_agent_max[s, t] is max_i ||grad f(x_i^t)||, with the global objective.
    """

    f_mean: np.ndarray
    grad_norm_mean: np.ndarray
    grad_norm_agent_max: np.ndarray
    cons_x: np.ndarray
    cons_v: np.ndarray
    phi: np.ndarray


class Trajectory(NamedTuple):
    """Everything a run records, as columns over its S seeds and states t = 0..big_t.

    Each metric column has shape (S, big_t + 1), and so has tracker_drifts.
    The int counters samples_per_agent and comm_rounds, shape (big_t + 1,),
    are the same for every seed. output_indices holds each seed's uniform
    draws over {0, ..., big_t - 1}, shape (S, m), or None when big_t = 0.
    output_grad_norms[s, i] is ||grad f(x_i^t)|| on seed s at agent i's
    output draw t = output_indices[s, i], or at t = 0 when big_t = 0: the
    only per-agent norms a run keeps. box_exits counts each seed's states
    outside the problem's box.
    """

    metrics: MetricColumns
    samples_per_agent: np.ndarray
    comm_rounds: np.ndarray
    tracker_drifts: np.ndarray
    output_indices: np.ndarray | None
    output_grad_norms: np.ndarray
    box_exits: np.ndarray

    @property
    def num_seeds(self) -> int:
        return self.metrics.phi.shape[0]

    @property
    def big_t(self) -> int:
        return self.metrics.phi.shape[1] - 1


class StateMetrics(NamedTuple):
    """Metrics of n states: (n,) arrays, agent norms (n, m)."""

    f_mean: np.ndarray
    grad_norm_mean: np.ndarray
    agent_grad_norms: np.ndarray
    cons_x: np.ndarray
    cons_v: np.ndarray
    phi: np.ndarray


def state_metrics(x: np.ndarray, v: np.ndarray, p: ProblemInstance, eta: float) -> StateMetrics:
    """Metrics of a stack of states (n, m, d), one entry per state along the first axis.

    Each metric is computed once for the whole stack; one state is a stack of
    one. Norms are problems._row_norms over (flattened) rows, numpy's
    pairwise sum, so a stacked call equals the per-state calls exactly.
    eta is held to hyperparams.FIELDS["eta"].
    """
    check_fields({"eta": FIELDS["eta"]}, {"eta": eta})
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (p.m, p.d) or v.shape != x.shape:
        raise ValueError(f"state matrices must be stacks of shape (n, {p.m}, {p.d})")
    n = x.shape[0]
    m0, m1 = lyapunov_constants(p)
    xbar = x.mean(axis=1)
    f_mean = f_base(p, xbar)
    grad_norm = _row_norms(grad_base(p, xbar))
    agent = _row_norms(grad_base(p, x.reshape(n * p.m, p.d))).reshape(n, p.m)
    cons_x = consensus_error(x)
    cons_v = consensus_error(v)
    sqm = math.sqrt(p.m)
    phi = f_mean + (3.0 * eta / sqm) * (m0 + m1 * grad_norm) * cons_x + (2.0 * eta / sqm) * cons_v
    return StateMetrics(
        f_mean=f_mean, grad_norm_mean=grad_norm, agent_grad_norms=agent,
        cons_x=cons_x, cons_v=cons_v, phi=phi,
    )


class StationaritySummary(NamedTuple):
    """Gradient-norm summary of a run, one (S,) array entry per seed.

    avg_grad_mean averages ||grad f(xbar^t)|| over the output-eligible
    iterations t = 0..big_t-1 and therefore equals the expected gradient
    norm at a uniformly drawn output iterate. agent_max_at_output is the
    largest of the agents' norms at their own sampled output iterates.
    """

    min_grad_mean: np.ndarray
    avg_grad_mean: np.ndarray
    agent_max_at_output: np.ndarray


def stationarity_summary(traj: Trajectory) -> StationaritySummary:
    """A big_t = 0 run has only its initial state to summarize."""
    eligible = traj.metrics.grad_norm_mean[:, : max(traj.big_t, 1)]
    return StationaritySummary(
        min_grad_mean=eligible.min(axis=1),
        avg_grad_mean=np.mean(eligible, axis=1),
        agent_max_at_output=traj.output_grad_norms.max(axis=1),
    )


class ConsensusBoundReport(NamedTuple):
    """Steady-state consensus radius check for normalized-step runs, over all seeds."""

    passed: bool
    bound: float
    worst_cons: float
    worst_t: int
    checked: int


def verify_consensus_bound(traj: Trajectory, rho: float, m: int, eta: float) -> ConsensusBoundReport:
    """Check cons_x <= rho * m * eta / (1 - rho) for every seed and every t >= 1.

    Requires rho < 1; the bound follows from the gossip contraction plus the
    fact that normalized steps move each row by at most eta, which is held
    to hyperparams.FIELDS["eta"]. rho is at least gossip.RHO_FLOOR, an
    absolute floor that assumes iterates of order one, while a mix's rounding
    grows with the state: on the 8-ring quadratic (d 10, zeta 0.2, sigma 0.1,
    eta 0.05, b 16, T 50, k_inner = k_init = 300, 2 seeds) a healthy run
    passes from x0 = 100 (9.9e-14 against a 4e-13 bound) and fails from
    x0 = 500 (4.6e-13) and x0 = 1000 (9.7e-13).
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"the consensus bound needs rho in [0, 1), got {rho}")
    check_fields({"eta": FIELDS["eta"]}, {"eta": eta})
    bound = rho * m * eta / (1.0 - rho)
    cons = traj.metrics.cons_x[:, 1:]
    if cons.size == 0:
        return ConsensusBoundReport(True, bound, 0.0, 0, 0)
    # the first of tied maxima, in seed order
    seed, worst = np.unravel_index(np.argmax(cons), cons.shape)
    worst_cons = float(cons[seed, worst])
    return ConsensusBoundReport(worst_cons <= bound, bound, worst_cons, int(worst) + 1, cons.size)


class DescentReport(NamedTuple):
    passed: bool
    mode: str
    bound: float
    observed: float
    worst_t: int
    worst_seed: int
    n_seeds: int


def verify_descent(
    traj: Trajectory, p: ProblemInstance, eta: float, mode: str = "deterministic", tol: float = 1e-9
) -> DescentReport:
    """Check the one-step decrease property of the potential, with l_f = lf_effective(p).

    deterministic mode (noiseless runs): for every seed and every consecutive
    pair of states,

        phi[t+1] <= phi[t] - (5 eta / 8) ||grad f(xbar^t)|| + (3/4) eta^2 l_f + tol.

    observed reports the worst violation margin (positive means a violation
    larger than tol), at its first seed and iteration.

    stochastic mode: the seed average of the time-averaged gradient norm over
    t = 0..T-1 must not exceed 8 delta_phi / (5 eta T) + (6/5) eta l_f, where
    delta_phi is the seed-averaged initial potential minus the objective
    infimum. Meant for >= 10 seeds; valid when the run's contraction factor
    passes rho_guard.

    eta is held to hyperparams.FIELDS["eta"].
    """
    check_fields({"eta": FIELDS["eta"]}, {"eta": eta})
    phi, grad = traj.metrics.phi, traj.metrics.grad_norm_mean
    l_f = lf_effective(p)
    n_seeds = traj.num_seeds
    if mode == "deterministic":
        allowed = phi[:, :-1] - (5.0 * eta / 8.0) * grad[:, :-1]
        allowed += 0.75 * eta * eta * l_f
        margin = phi[:, 1:] - allowed
        margin[np.isnan(margin)] = -math.inf  # skipped, as by a loop of > comparisons
        worst, worst_seed, worst_t = 0.0, 0, 0
        if margin.size:
            seed, t = np.unravel_index(np.argmax(margin), margin.shape)
            if margin[seed, t] > -math.inf:
                worst, worst_seed, worst_t = float(margin[seed, t]), int(seed), int(t)
        return DescentReport(
            passed=worst <= tol, mode=mode, bound=tol, observed=worst,
            worst_t=worst_t, worst_seed=worst_seed, n_seeds=n_seeds,
        )
    if mode == "stochastic":
        big_t = traj.big_t
        if big_t < 1:
            raise ValueError("stochastic descent check needs big_t >= 1")
        delta_phi = float(np.mean(phi[:, 0])) - p.f_star
        bound = 8.0 * delta_phi / (5.0 * eta * big_t) + 1.2 * eta * l_f
        observed = float(np.mean(np.mean(grad[:, :big_t], axis=1)))
        return DescentReport(
            passed=observed <= bound, mode=mode, bound=bound, observed=observed,
            worst_t=-1, worst_seed=-1, n_seeds=n_seeds,
        )
    raise ValueError(f"mode must be 'deterministic' or 'stochastic', got {mode!r}")
