"""Decentralized optimizer updates and the trajectory runner.

All four algorithms run one update rule. Each agent keeps a row of the
iterate matrix X, a tracker row V and its last minibatch gradient row G:

    init:  X = 1 x0^T,  G = minibatch gradients at x0,  V = mix0(G)
    step:  X <- mix(X - eta_t dir(V))
           G' = minibatch gradients at the new local iterates
           V <- tracker update from V, G and G'

and differs only in the settings of its METHODS entry:

    accelerated  mix = acc_gossip(., k_inner), mix0 = acc_gossip(., k_init);
                 otherwise mix = one plain gossip round W, mix0 = identity
    normalized   dir(V) = normalize_rows(V); otherwise dir(V) = V
    tracked      V <- acc_gossip(V + G' - G) if accelerated, else W V + G' - G;
                 otherwise V <- G' (no tracker)
    scheduled    eta_t = min(eta, m^(1/4) / t^(3/4)) with t >= 1; otherwise eta

    dnsgd  accelerated, normalized, tracked   (the paper's method)
    dsgd   plain diffusion: X <- W (X - eta G)
    dsgt   tracked
    dnasa  normalized, tracked, scheduled

Communication counters advance by the gossip depth per accelerated call and
by one round per plain W-multiplication; sample counters advance by the
batch size per agent per iteration.

The runner records the metrics of every state as columns: arrays of
big_t + 1 entries, sized once. It fills them a block of states at a time: it
copies X, V and G into (n, m, d) blocks of at most METRICS_BLOCK_FLOATS floats
each, makes one state_metrics call per block and writes the results into the
block's slice of each column.
A state that turns non-finite, or whose iterates leave the exponential
family's safe range, raises NonFiniteStateError with its iteration and agent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .analysis import StateMetrics, Trajectory, state_metrics
from .gossip import acc_gossip, plain_gossip
from .hyperparams import HyperParams
from .problems import ExpRangeError, ProblemInstance, _row_norms, sample_grad
from .streams import RunStreams
from .topology import MixingMatrix


@dataclass(frozen=True)
class Method:
    """The settings that turn the shared update rule into one algorithm.

    tracked methods keep the mean-preservation identity mean(V) = mean(G).
    """

    accelerated: bool
    normalized: bool
    tracked: bool
    scheduled: bool


METHODS = {
    "dnsgd": Method(accelerated=True, normalized=True, tracked=True, scheduled=False),
    "dsgd": Method(accelerated=False, normalized=False, tracked=False, scheduled=False),
    "dsgt": Method(accelerated=False, normalized=False, tracked=True, scheduled=False),
    "dnasa": Method(accelerated=False, normalized=True, tracked=True, scheduled=True),
}
ALGORITHMS = tuple(METHODS)

# Rows with a smaller norm normalize to zero.
EPS_NORM = 1e-12

# Floats per stacked (n, m, d) array when run computes the recorded metrics of
# a block of states at once: 819 states at m = 8, d = 10, and 25 at m = 256, d = 10.
METRICS_BLOCK_FLOATS = 2**16


class NonFiniteStateError(RuntimeError):
    """Raised when an optimizer state stops being finite or leaves the objective's safe range."""


@dataclass(frozen=True)
class OptimizerState:
    """Row-stacked local iterates, tracker, and last sampled gradients."""

    x: np.ndarray
    v: np.ndarray
    g_prev: np.ndarray
    t: int
    samples_per_agent: int
    comm_rounds: int


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; rows below EPS_NORM become zero."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("normalize_rows requires finite input")
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    out = np.zeros_like(v)
    keep = norms[:, 0] > EPS_NORM
    out[keep] = v[keep] / norms[keep]
    return out


def _ensure_finite(mat: np.ndarray, what: str, t: int) -> None:
    finite = np.isfinite(mat)
    if not finite.all():
        agent = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise NonFiniteStateError(
            f"non-finite {what} at iteration {t}, agent {agent}"
        )


def _as_start_point(p: ProblemInstance, x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (p.d,):
        raise ValueError(f"x0 must have shape ({p.d},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return x0


def dnasa_schedule(eta_max: float, m: int, t: int) -> float:
    """Step size at iteration t >= 1 for the normalized tracking baseline."""
    if t < 1:
        raise ValueError("schedule index starts at 1")
    return min(eta_max, m**0.25 / t**0.75)


def init_state(
    method: Method, p: ProblemInstance, x0: np.ndarray, hp: HyperParams, w: MixingMatrix,
    streams: RunStreams,
) -> OptimizerState:
    """Consensus start at x0; V is the sampled G, gossiped k_init times if accelerated."""
    x0 = _as_start_point(p, x0)
    x = np.tile(x0, (p.m, 1))
    g = sample_grad(p, x, hp.b, streams.oracle(0))
    _ensure_finite(g, "gradient batch", 0)
    if method.accelerated:
        v, rounds = acc_gossip(g, w, hp.k_init), hp.k_init
    else:
        v, rounds = g.copy(), 0
    return OptimizerState(
        x=x, v=v, g_prev=g, t=0, samples_per_agent=hp.b, comm_rounds=rounds
    )


def step(
    s: OptimizerState, method: Method, p: ProblemInstance, hp: HyperParams, w: MixingMatrix,
    streams: RunStreams,
) -> OptimizerState:
    """One iteration of the shared rule: mix X - step * direction, resample, track."""
    t_next = s.t + 1
    eta = dnasa_schedule(hp.eta, p.m, t_next) if method.scheduled else hp.eta
    direction = normalize_rows(s.v) if method.normalized else s.v
    # looked up per call, so a wrapper installed on this module's names is used
    mix, rounds = (acc_gossip, hp.k_inner) if method.accelerated else (plain_gossip, 1)
    # checked before mixing, so a diverging step is reported as such and not
    # as a gossip input error
    x_half = s.x - eta * direction
    _ensure_finite(x_half, "iterate matrix", t_next)
    x_next = mix(x_half, w, rounds)
    _ensure_finite(x_next, "iterate matrix", t_next)
    try:
        g_next = sample_grad(p, x_next, hp.b, streams.oracle(t_next))
    except ExpRangeError as e:  # a diverging exp_pair run, not a bad argument
        raise NonFiniteStateError(f"{e} at iteration {t_next}, agent {e.row}") from e
    _ensure_finite(g_next, "gradient batch", t_next)
    v_next = g_next
    if method.tracked:
        if method.accelerated:  # correct the tracker, then mix it
            v_next = mix(s.v + g_next - s.g_prev, w, rounds)
        else:  # mix the old tracker, then correct it
            v_next = mix(s.v, w, rounds) + g_next - s.g_prev
        _ensure_finite(v_next, "tracker matrix", t_next)
    return OptimizerState(
        x=x_next, v=v_next, g_prev=g_next, t=t_next,
        samples_per_agent=s.samples_per_agent + hp.b,
        comm_rounds=s.comm_rounds + rounds * (2 if method.tracked else 1),
    )


def run(
    algorithm: str,
    p: ProblemInstance,
    hp: HyperParams,
    w: MixingMatrix,
    x0: np.ndarray,
    master_seed: int,
    snapshot_every: int = 10,
) -> Trajectory:
    """Run an algorithm for hp.big_t iterations and record its trajectory.

    All randomness derives from master_seed: each iteration draws the oracle
    noise of all agents as one (m, d) block from the stream keyed by
    (master_seed, iteration), and the final uniform output draw uses a
    dedicated stream, so a repeated call reproduces every byte of the
    trajectory.
    big_t = 0 records only the initial state. Box exits (any |x_ij| beyond
    the problem's certification box) are counted, not clamped.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r} (known: {', '.join(ALGORITHMS)})")
    if w.m != p.m:
        raise ValueError(f"mixing matrix couples {w.m} agents but the problem has {p.m}")
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be non-negative")
    method = METHODS[algorithm]
    streams = RunStreams(master_seed)

    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    n_states = hp.big_t + 1
    cols = {f.name: np.empty(n_states) for f in fields(StateMetrics)}
    cols["agent_grad_norms"] = np.empty((n_states, p.m))
    samples, comms = np.empty(n_states, dtype=np.int64), np.empty(n_states, dtype=np.int64)
    drifts, exits = np.empty(n_states), np.empty(n_states, dtype=bool)
    # States are copied into these (n, m, d) blocks. Each full block, and the
    # last one, gets one state_metrics call and fills its slice of every column.
    block_len = min(max(1, METRICS_BLOCK_FLOATS // (p.m * p.d)), n_states)
    xs, vs, gs = (np.empty((block_len, p.m, p.d)) for _ in range(3))

    def record(s: OptimizerState) -> None:
        i = s.t % block_len
        xs[i], vs[i], gs[i] = s.x, s.v, s.g_prev
        samples[s.t], comms[s.t] = s.samples_per_agent, s.comm_rounds
        if snapshot_every and s.t % snapshot_every == 0:
            snapshots[s.t] = (s.x.copy(), s.v.copy())
        if i + 1 < block_len and s.t < hp.big_t:
            return
        x, v, g = xs[: i + 1], vs[: i + 1], gs[: i + 1]
        block = slice(s.t - i, s.t + 1)
        sm = state_metrics(x, v, p, hp.eta)
        for name, col in cols.items():
            col[block] = getattr(sm, name)
        gbar = g.mean(axis=1)
        drifts[block] = _row_norms(v.mean(axis=1) - gbar) / np.maximum(1.0, _row_norms(gbar))
        exits[block] = np.abs(x).max(axis=(1, 2)) > p.box_radius

    # overflow on the way to a non-finite state is reported once, by the
    # finiteness checks, not also as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        state = init_state(method, p, x0, hp, w, streams)
        record(state)
        for _ in range(hp.big_t):
            state = step(state, method, p, hp, w, streams)
            record(state)
    if snapshot_every and state.t not in snapshots:
        snapshots[state.t] = (state.x.copy(), state.v.copy())

    if hp.big_t > 0:
        output_indices = streams.output_draw().integers(0, hp.big_t, size=p.m)
    else:
        output_indices = None
    exit_ts = np.flatnonzero(exits)
    return Trajectory(
        algorithm=algorithm,
        metrics=StateMetrics(**cols),
        samples_per_agent=samples,
        comm_rounds=comms,
        tracker_drifts=drifts,
        output_indices=output_indices,
        snapshots=snapshots,
        box_exits=int(exit_ts.size),
        first_box_exit_t=int(exit_ts[0]) if exit_ts.size else None,
    )
