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

Method.cost is the one rule for what a run spends: after iteration t each
agent has drawn b (t + 1) samples, and the network has spent
start + t * depth * (2 if tracked else 1) communication rounds, where
(start, depth) is (k_init, k_inner) for accelerated methods and (0, 1)
otherwise. run records it as two int64 columns shared by all seeds, and dnsgd
params prints its totals at t = big_t.

run takes all the seeds of a run and records the metrics of every state in
one Trajectory: columns of shape (S, big_t + 1), sized once. The seeds run
one after another, and each fills its row a block of states at a time: run
copies X, V and G into (n, m, d) blocks of at most METRICS_BLOCK_FLOATS floats
each, makes one state_metrics call per block and writes the results into the
block's slice of the seed's row.
A state that turns non-finite, or whose iterates leave the exponential
family's safe range, raises NonFiniteStateError with its iteration and agent.

The runner hands init_state and step one RunStreams per seed: it derives
the oracle keys of iterations 0..big_t in one pass, and its one reused
generator is valid until the next oracle call. step checks each array it makes
once: X - eta dir(V), X', G', the corrected tracker V + G' - G before it is
mixed, and V'; init_state checks G and the gossiped V. The gossip and
normalization kernels step calls do not check again.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .analysis import StateMetrics, Trajectory, state_metrics
from .gossip import _acc_mix, _plain_mix, acc_gossip
from .hyperparams import HyperParams
from .problems import ExpRangeError, ProblemInstance, _row_norms, sample_grad
from .streams import RunStreams
from .topology import MixingMatrix


class Method(NamedTuple):
    """The settings that turn the shared update rule into one algorithm.

    tracked methods keep the mean-preservation identity mean(V) = mean(G).
    """

    accelerated: bool
    normalized: bool
    tracked: bool
    scheduled: bool

    def cost(self, hp: HyperParams, t):
        """(samples per agent, communication rounds) spent by iteration t, an int or an array."""
        start, depth = (hp.k_init, hp.k_inner) if self.accelerated else (0, 1)
        return hp.b * (t + 1), start + t * depth * (2 if self.tracked else 1)


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


class OptimizerState(NamedTuple):
    """Row-stacked local iterates, tracker, and last sampled gradients."""

    x: np.ndarray
    v: np.ndarray
    g_prev: np.ndarray
    t: int


def _unit_rows(v: np.ndarray) -> np.ndarray:
    # add.reduce of the squares is np.linalg.norm's own sum, so the norms
    # equal np.linalg.norm(v, axis=1) bit for bit
    norms = np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))
    return np.divide(v, norms, out=np.zeros(v.shape), where=norms > EPS_NORM)


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; rows below EPS_NORM become zero."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("normalize_rows requires finite input")
    return _unit_rows(v)


def _ensure_finite(mat: np.ndarray, what: str, t: int) -> None:
    finite = np.isfinite(mat)
    if not np.logical_and.reduce(finite, axis=None):  # finite.all(), minus its Python wrapper
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
        v = acc_gossip(g, w, hp.k_init)
        _ensure_finite(v, "tracker matrix", 0)
    else:
        v = g.copy()
    return OptimizerState(x=x, v=v, g_prev=g, t=0)


def step(
    s: OptimizerState, method: Method, p: ProblemInstance, hp: HyperParams, w: MixingMatrix,
    streams: RunStreams,
) -> OptimizerState:
    """One iteration of the shared rule: mix X - step * direction, resample, track.

    s must come from init_state or step with the same p, hp and w: its V was
    checked when it was made, and the kernels called here do not check.
    """
    t_next = s.t + 1
    eta = dnasa_schedule(hp.eta, p.m, t_next) if method.scheduled else hp.eta
    direction = _unit_rows(s.v) if method.normalized else s.v
    mix, rounds = (_acc_mix, hp.k_inner) if method.accelerated else (_plain_mix, 1)
    # checked before mixing, so a diverging step is reported at the array
    # that overflowed
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
            corrected = s.v + g_next - s.g_prev
            _ensure_finite(corrected, "tracker matrix", t_next)
            v_next = mix(corrected, w, rounds)
        else:  # mix the old tracker, then correct it
            v_next = mix(s.v, w, rounds) + g_next - s.g_prev
        _ensure_finite(v_next, "tracker matrix", t_next)
    return OptimizerState(x=x_next, v=v_next, g_prev=g_next, t=t_next)


def run(
    algorithm: str,
    p: ProblemInstance,
    hp: HyperParams,
    w: MixingMatrix,
    x0: np.ndarray,
    seeds: Sequence[int],
) -> Trajectory:
    """Run an algorithm for hp.big_t iterations on each seed; row s of the record is seeds[s].

    All randomness of row s derives from seeds[s]: each iteration draws the
    oracle noise of all agents as one (m, d) block from the stream keyed by
    (seed, iteration), and the final uniform output draw uses a dedicated
    stream, so a row does not depend on the other seeds, and a repeated call
    reproduces every byte of the trajectory.
    big_t = 0 records only the initial state. Box exits (any |x_ij| beyond
    the problem's certification box) are counted, not clamped.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r} (known: {', '.join(ALGORITHMS)})")
    if w.m != p.m:
        raise ValueError(f"mixing matrix couples {w.m} agents but the problem has {p.m}")
    method = METHODS[algorithm]

    n_seeds, n_states = len(seeds), hp.big_t + 1
    cols = {name: np.empty((n_seeds, n_states)) for name in StateMetrics._fields}
    cols["agent_grad_norms"] = np.empty((n_seeds, n_states, p.m))
    samples, comms = method.cost(hp, np.arange(n_states, dtype=np.int64))
    drifts, exits = np.empty((n_seeds, n_states)), np.empty((n_seeds, n_states), dtype=bool)
    # States are copied into these (n, m, d) blocks. Each full block, and the
    # last one, gets one state_metrics call and fills its slice of every column.
    block_len = min(max(1, METRICS_BLOCK_FLOATS // (p.m * p.d)), n_states)
    xs, vs, gs = (np.empty((block_len, p.m, p.d)) for _ in range(3))

    def record(seed_row: int, s: OptimizerState) -> None:
        i = s.t % block_len
        xs[i], vs[i], gs[i] = s.x, s.v, s.g_prev
        if i + 1 < block_len and s.t < hp.big_t:
            return
        x, v, g = xs[: i + 1], vs[: i + 1], gs[: i + 1]
        block = (seed_row, slice(s.t - i, s.t + 1))
        sm = state_metrics(x, v, p, hp.eta)
        for name, col in cols.items():
            col[block] = getattr(sm, name)
        gbar = g.mean(axis=1)
        drifts[block] = _row_norms(v.mean(axis=1) - gbar) / np.maximum(1.0, _row_norms(gbar))
        exits[block] = np.abs(x).max(axis=(1, 2)) > p.box_radius

    output_indices = np.empty((n_seeds, p.m), dtype=np.int64) if hp.big_t > 0 else None
    for row, seed in enumerate(seeds):
        streams = RunStreams(seed, hp.big_t)
        # overflow on the way to a non-finite state is reported once, by the
        # finiteness checks, not also as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            state = init_state(method, p, x0, hp, w, streams)
            record(row, state)
            for _ in range(hp.big_t):
                state = step(state, method, p, hp, w, streams)
                record(row, state)
        if output_indices is not None:
            output_indices[row] = streams.output_draw().integers(0, hp.big_t, size=p.m)

    return Trajectory(
        metrics=StateMetrics(**cols),
        samples_per_agent=samples,
        comm_rounds=comms,
        tracker_drifts=drifts,
        output_indices=output_indices,
        box_exits=exits.sum(axis=1),
    )
