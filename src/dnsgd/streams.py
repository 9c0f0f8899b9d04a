"""Counter-based random stream derivation.

Every random draw in the library comes from a stream keyed by
(master_seed, purpose, agent, iteration). Keys are hashed through
numpy's SeedSequence into a Philox counter generator, so distinct keys
give statistically independent streams and the same key always replays
the same draws, independent of call order. Oracle noise is one (m, d)
block per (master_seed, iteration), keyed with agent 0.

derive_stream builds a SeedSequence per call, which suits one-off streams.
A run needs one oracle stream per iteration, so RunStreams derives the
Philox keys of all its iterations up front, in one vectorised pass of the
SeedSequence hash (oracle_keys), and re-keys one reused generator per
iteration: the generator RunStreams.oracle returns is valid until the next
oracle call. The draws are bit for bit those of derive_stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SEED_MASK = (1 << 64) - 1
_WORD_MASK = (1 << 32) - 1

# The hash constants of numpy.random.SeedSequence (NEP 19), whose algorithm
# oracle_keys runs on arrays.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

PURPOSE_CODES = {
    "oracle": 1,
    "topology": 2,
    "output_draw": 3,
    "offsets": 4,
    "seed_fanout": 5,
    "smoothness": 6,
    "dissimilarity": 7,
}


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream."""

    master_seed: int
    purpose: str
    agent: int = 0
    iteration: int = 0


def derive_stream(key: StreamKey) -> np.random.Generator:
    """Return the Philox generator addressed by ``key``.

    Raises ValueError for unknown purposes or negative agent/iteration
    indices.
    """
    if key.purpose not in PURPOSE_CODES:
        known = ", ".join(sorted(PURPOSE_CODES))
        raise ValueError(f"unknown stream purpose {key.purpose!r} (known: {known})")
    if key.agent < 0 or key.iteration < 0:
        raise ValueError("agent and iteration indices must be non-negative")
    seq = np.random.SeedSequence(
        entropy=key.master_seed & _SEED_MASK,
        spawn_key=(PURPOSE_CODES[key.purpose], key.agent, key.iteration),
    )
    return np.random.Generator(np.random.Philox(seq))


def fanout_seed(master_seed: int, run_index: int) -> int:
    """Child master seed for the run_index-th repetition of an experiment."""
    gen = derive_stream(StreamKey(master_seed, "seed_fanout", run_index, 0))
    return int(gen.integers(0, 1 << 63))


def oracle_keys(master_seed: int, iterations: np.ndarray) -> np.ndarray:
    """Philox keys of the oracle streams of the given iterations, shape (n, 2) uint64.

    Row j is the key derive_stream gives Philox for
    StreamKey(master_seed, "oracle", 0, iterations[j]), that is
    SeedSequence(master_seed & (2**64 - 1), spawn_key=(1, 0, t))
    .generate_state(2, np.uint64). The hash runs once for all iterations: only
    the last entropy word, the iteration, differs between them. Raises
    ValueError for an iteration outside [0, 2**32 - 1], which SeedSequence
    would split into two words.
    """
    t = np.asarray(iterations)
    if t.ndim != 1 or (t.size and t.dtype.kind not in "iu"):
        raise ValueError("iterations must be a 1-d integer array")
    if t.size and (t.min() < 0 or t.max() > _WORD_MASK):
        raise ValueError(f"oracle iterations must lie in [0, {_WORD_MASK}]")
    seed = master_seed & _SEED_MASK
    # The seed's two words padded to the pool size, then the spawn key. The
    # hash runs on Python ints up to the iteration word, then on arrays.
    words = [seed & _WORD_MASK, seed >> 32, 0, 0, PURPOSE_CODES["oracle"], 0]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _WORD_MASK
        value = (value * hash_const) & _WORD_MASK
        return value ^ (value >> 16)

    def mix(x, y):
        r = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _WORD_MASK
        return r ^ (r >> 16)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in [*words[_POOL_SIZE:], t.astype(np.uint64)]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(2, np.uint64): four words, paired little-endian.
    hash_const = _INIT_B
    state = []
    for word in pool:
        value = word ^ hash_const
        hash_const = (hash_const * _MULT_B) & _WORD_MASK
        value = (value * hash_const) & _WORD_MASK
        state.append(value ^ (value >> 16))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


class RunStreams:
    """Stream bundle handed to an optimizer run of iterations 0..big_t.

    The oracle keys of all iterations are derived once, at construction.
    oracle(t) re-keys one reused Philox generator at counter 0 and returns it,
    so each returned generator is valid until the next oracle call.
    """

    def __init__(self, master_seed: int, big_t: int = 0):
        if big_t < 0:
            raise ValueError("big_t must be non-negative")
        self.master_seed = master_seed
        self._keys = oracle_keys(master_seed, np.arange(big_t + 1))
        self._philox = np.random.Philox(0)  # re-keyed by every oracle call
        self._state = self._philox.state
        self._gen = np.random.Generator(self._philox)

    def oracle(self, iteration: int) -> np.random.Generator:
        """The stream of an iteration's (m, d) oracle noise block."""
        if not 0 <= iteration < len(self._keys):
            raise ValueError(f"oracle iteration {iteration} outside 0..{len(self._keys) - 1}")
        # a fresh Philox: the iteration's key, counter 0 and an empty buffer
        self._state["state"]["key"] = self._keys[iteration]
        self._philox.state = self._state
        return self._gen

    def output_draw(self) -> np.random.Generator:
        return derive_stream(StreamKey(self.master_seed, "output_draw", 0, 0))
