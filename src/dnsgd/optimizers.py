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
    normalized   dir(V) = V with each row scaled to unit norm; otherwise dir(V) = V
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

update_rule binds the rule to one run's problem, hyperparameters and mixing
matrix once; its init and step take one seed's (m, d) state or an (S, m, d)
stack of S seeds, and give each seed of a stack the bytes it gets alone.

run takes all the seeds of a run and records the metrics of every state in
one Trajectory: columns of shape (S, big_t + 1), sized once. The seeds move
together, one (S, m, d) state through one step call per iteration, and fill
their rows a block of states at a time: run copies X, V and G into
(n, S, m, d) blocks of at most METRICS_BLOCK_FLOATS floats each, makes one
state_metrics call per block and writes the results into the block's slice of
every seed's row. A block's (n S, m) agent norms live only as long as the
block: run keeps their agent maximum per state and, drawing each seed's
output indices before the first state, the norms at those draws. So a run's
memory is its columns plus a few blocks, at any big_t.
A state that turns non-finite, or whose iterates leave the exponential
family's safe range, raises NonFiniteStateError with its iteration and agent,
and with its seed's row when the run has several seeds.

A seed's oracle noise is one stream, derive_stream(StreamKey(seed, "oracle")),
read in iteration order: iteration t reads its t-th (m, d) block, counting
from 0. run draws the blocks of each metrics block of n iterations with one
standard_normal((n, m, d)) call per seed, the same bytes as n single-block
draws.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analysis import MetricColumns, Trajectory, state_metrics
from .gossip import _acc_mixers, _plain_mixer
from .hyperparams import HyperParams
from .problems import ExpRangeError, ProblemInstance, _noise_scale, _oracle, _row_norms
from .streams import StreamKey, derive_stream
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

# Floats per stacked (n, S, m, d) array when run computes the recorded metrics
# of a block of states at once, and per chunk of oracle noise: 128 KiB, or for
# one seed 204 states at m = 8, d = 10, and 6 at m = 256, d = 10. Against
# 2**16, measured in fresh processes (2 vCPUs, one BLAS thread) on the
# benchmark's commands: peak RSS fell by 2.5 to 3.5 MB on each small_m command
# and by 1.3 MB on the m = 256 ring run, and in-process times stayed in noise.
METRICS_BLOCK_FLOATS = 2**14


class NonFiniteStateError(RuntimeError):
    """Raised when an optimizer state stops being finite or leaves the objective's safe range."""


class OptimizerState(NamedTuple):
    """Row-stacked local iterates, tracker, and last sampled gradients.

    Each is one seed's (m, d) matrix, or an (S, m, d) stack of S seeds' matrices.
    """

    x: np.ndarray
    v: np.ndarray
    g_prev: np.ndarray
    t: int


def _unit_rows(v: np.ndarray) -> np.ndarray:
    norms = _row_norms(v)[..., None]
    return np.divide(v, norms, out=np.zeros(v.shape), where=norms > EPS_NORM)


def _unchecked(mat: np.ndarray, what: str, t: int) -> None:
    pass


def _ensure_finite(mat: np.ndarray, what: str, t: int, seed_label: str = "") -> None:
    finite = np.isfinite(mat)
    if not finite.all():
        agent = int(np.flatnonzero(~finite.all(axis=-1))[0])
        raise NonFiniteStateError(f"non-finite {what} at iteration {t}, {seed_label}agent {agent}")


def _raise_first_failure(rule: Callable, state: OptimizerState, noise: np.ndarray | None) -> None:
    """Re-run rule on one seed at a time, checking each array it makes in order.

    Raises NonFiniteStateError for the lowest seed whose step fails: the
    first non-finite array, or an exp_pair argument out of the safe range.
    Returns when no seed fails, as for a finite state whose test overflowed.
    A stack of several seeds names the seed (its row in the stack); one seed's
    (m, d) state, or a stack of one, gives the same line without it.
    """
    stacked = state.x.ndim == 3
    n_seeds = state.x.shape[0] if stacked else 1
    t = state.t + 1
    for k in range(n_seeds):
        label = f"seed {k}, " if n_seeds > 1 else ""
        one = state  # init's state before t = 0 has only x; v and g_prev are None
        if stacked:
            one = OptimizerState(*(None if a is None else a[k] for a in state[:3]), state.t)
        try:
            rule(one, noise if noise is None or not stacked else noise[k],
                 functools.partial(_ensure_finite, seed_label=label))
        except ExpRangeError as e:
            raise NonFiniteStateError(f"{e} at iteration {t}, {label}agent {e.row}") from e


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


def update_rule(
    method: Method, p: ProblemInstance, hp: HyperParams, w: MixingMatrix
) -> tuple[Callable, Callable]:
    """The rule's init and step for method on (p, hp, w), with the run's constants bound once.

    init(x, noise) gives the state at t = 0 from the start matrix x, and
    step(s, noise) the state at s.t + 1. Both take one seed's (m, d) state or
    S seeds' (S, m, d) stack, and noise is the new state's oracle noise block
    of the same shape, already scaled, or None when sigma = 0. An init whose
    oracle argument leaves the exponential family's safe range raises
    ExpRangeError, a ValueError: the start point is bad input.

    Each call makes one finiteness test, on the V (and for step the X) it
    hands on; every other array of the call flows into them. When the test
    fails, or step's oracle raises ExpRangeError, the call is re-run one
    seed at a time with each array checked in order (for step: X - eta dir(V),
    X', G', the corrected tracker V + G' - G before it is mixed, then V'), and
    raises NonFiniteStateError naming the first array, iteration and agent
    that fail (_raise_first_failure).
    """
    oracle = _oracle(p)
    if method.accelerated:
        mix, start_mix = _acc_mixers(w, hp.k_inner, hp.k_init)
    else:
        mix, start_mix = _plain_mixer(w), np.copy
    eta, schedule = hp.eta, None
    if method.scheduled:
        schedule = functools.partial(dnasa_schedule, hp.eta, p.m)
    normalized, tracked, accelerated = method.normalized, method.tracked, method.accelerated

    def start(s: OptimizerState, noise, check) -> OptimizerState:
        g = oracle(s.x, noise)
        check(g, "gradient batch", 0)
        v = start_mix(g)
        check(v, "tracker matrix", 0)
        return OptimizerState(x=s.x, v=v, g_prev=g, t=0)

    def advance(s: OptimizerState, noise, check) -> OptimizerState:
        t = s.t + 1
        eta_t = eta if schedule is None else schedule(t)
        x_half = s.x - eta_t * (_unit_rows(s.v) if normalized else s.v)
        # checked before mixing, so a diverging step is reported at the
        # array that overflowed
        check(x_half, "iterate matrix", t)
        x = mix(x_half)
        check(x, "iterate matrix", t)
        g = oracle(x, noise)
        check(g, "gradient batch", t)
        if not tracked:
            v = g
        elif accelerated:  # correct the tracker, then mix it
            corrected = s.v + g - s.g_prev
            check(corrected, "tracker matrix", t)
            v = mix(corrected)
        else:  # mix the old tracker, then correct it
            v = mix(s.v) + g - s.g_prev
        check(v, "tracker matrix", t)
        return OptimizerState(x=x, v=v, g_prev=g, t=t)

    def init(x: np.ndarray, noise: np.ndarray | None) -> OptimizerState:
        before = OptimizerState(x=x, v=None, g_prev=None, t=-1)  # start reads only x
        s = start(before, noise, _unchecked)
        # G flows into V, so one test of V covers both. np.vdot (BLAS ddot)
        # only steers control flow, here and in step: a non-finite result
        # re-runs the checked path, which raises or finds the same arrays finite.
        if not math.isfinite(np.vdot(s.v, s.v)):
            _raise_first_failure(start, before, noise)
        return s

    def step(s: OptimizerState, noise: np.ndarray | None) -> OptimizerState:
        try:
            nxt = advance(s, noise, _unchecked)
            # x.v is finite only if every entry of X' and V' is: a non-finite
            # entry makes its product, and so the sum, inf or nan
            if math.isfinite(np.vdot(nxt.x, nxt.v)):
                return nxt
        except ExpRangeError:
            pass
        _raise_first_failure(advance, s, noise)
        return nxt  # the product overflowed, but every array is finite

    return init, step


def run(
    algorithm: str,
    p: ProblemInstance,
    hp: HyperParams,
    w: MixingMatrix,
    x0: np.ndarray,
    seeds: Sequence[int],
) -> Trajectory:
    """Run an algorithm for hp.big_t iterations on each seed; row s of the record is seeds[s].

    All randomness of row s derives from seeds[s]: iteration t draws the
    oracle noise of all agents as block t of the seed's oracle stream, and the
    uniform output draw uses a dedicated stream, so a row does not depend on
    the other seeds, and a repeated call reproduces every byte of the
    trajectory. The output draw is taken before the first state, so that each
    metrics block keeps the agent norms at the draws it holds, and only those
    (Trajectory.output_grad_norms). A seed that diverges ends the run, with
    the earliest iteration of any seed and, at a tie, the lowest row.
    big_t = 0 records only the initial state. Box exits (any |x_ij| beyond
    the problem's box_radius) are counted, not clamped.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r} (known: {', '.join(ALGORITHMS)})")
    if w.m != p.m:
        raise ValueError(f"mixing matrix couples {w.m} agents but the problem has {p.m}")
    if len(seeds) == 0:
        raise ValueError("run needs at least one seed")
    method = METHODS[algorithm]
    x0 = _as_start_point(p, x0)
    init, step = update_rule(method, p, hp, w)

    n_seeds, n_states, m, d = len(seeds), hp.big_t + 1, p.m, p.d
    cols = {name: np.empty((n_seeds, n_states)) for name in MetricColumns._fields}
    samples, comms = method.cost(hp, np.arange(n_states, dtype=np.int64))
    drifts, exits = np.empty((n_seeds, n_states)), np.empty((n_seeds, n_states), dtype=bool)
    # States are copied into these (n, S, m, d) blocks. Each full block, and
    # the last one, gets one state_metrics call and fills its slice of every
    # column. A block of oracle noise, (S, n, m, d), is drawn ahead of it.
    block_len = min(max(1, METRICS_BLOCK_FLOATS // (n_seeds * m * d)), n_states)
    xs, vs, gs = (np.empty((block_len, n_seeds, m, d)) for _ in range(3))
    # each agent's output draw; a big_t = 0 run keeps its initial state's norms
    output_indices, draws = None, np.zeros((n_seeds, m), dtype=np.int64)
    if hp.big_t > 0:
        output_indices = draws = np.stack([
            derive_stream(StreamKey(seed, "output_draw")).integers(0, hp.big_t, size=m)
            for seed in seeds
        ])
    output_norms = np.empty((n_seeds, m))
    streams = [derive_stream(StreamKey(seed, "oracle")) for seed in seeds]
    noise = np.empty((n_seeds, block_len, m, d)) if p.sigma > 0.0 else None
    scale = _noise_scale(p, hp.b)

    def record(t: int, n: int) -> None:
        """Metrics of the n states up to t, held in the first n slots of the blocks."""
        x, v, g = (a[:n].reshape(n * n_seeds, m, d) for a in (xs, vs, gs))
        block = (slice(None), slice(t + 1 - n, t + 1))

        def put(col: np.ndarray, values: np.ndarray) -> None:
            col[block] = values.reshape(n, n_seeds, *values.shape[1:]).swapaxes(0, 1)

        sm = state_metrics(x, v, p, hp.eta)
        agent = sm.agent_grad_norms  # (n S, m), state-major like x
        values = sm._asdict()
        values["grad_norm_agent_max"] = agent.max(axis=1)
        for name, col in cols.items():
            put(col, values[name])
        first = t + 1 - n
        held = (draws >= first) & (draws <= t)
        at = (draws[held] - first, *np.nonzero(held))  # (state in block, seed, agent)
        output_norms[held] = agent.reshape(n, n_seeds, m)[at]
        gbar = g.mean(axis=1)
        put(drifts, _row_norms(v.mean(axis=1) - gbar) / np.maximum(1.0, _row_norms(gbar)))
        put(exits, np.abs(x).max(axis=(1, 2)) > p.box_radius)

    # overflow on the way to a non-finite state is reported once, by the
    # finiteness test, not also as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n_states):
            i = t % block_len
            if noise is not None and i == 0:
                n = min(block_len, n_states - t)
                for row, rng in enumerate(streams):
                    rng.standard_normal(out=noise[row, :n])
                noise[:, :n] *= scale
            block_noise = None if noise is None else noise[:, i]
            if t == 0:
                state = init(np.tile(x0, (n_seeds, m, 1)), block_noise)
            else:
                state = step(state, block_noise)
            xs[i], vs[i], gs[i] = state.x, state.v, state.g_prev
            if i + 1 == block_len or t == hp.big_t:
                record(t, i + 1)

    return Trajectory(
        metrics=MetricColumns(**cols),
        samples_per_agent=samples,
        comm_rounds=comms,
        tracker_drifts=drifts,
        output_indices=output_indices,
        output_grad_norms=output_norms,
        box_exits=exits.sum(axis=1),
    )
