"""Counter-based random stream derivation.

Every random draw in the library comes from a stream keyed by
(master_seed, purpose, agent, iteration). Keys are hashed through
numpy's SeedSequence into a Philox counter generator, so distinct keys
give statistically independent streams and the same key always replays
the same draws, independent of call order. Oracle noise is one (m, d)
block per (master_seed, iteration), keyed with agent 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SEED_MASK = (1 << 64) - 1

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


@dataclass(frozen=True)
class RunStreams:
    """Stream bundle handed to an optimizer run."""

    master_seed: int

    def oracle(self, iteration: int) -> np.random.Generator:
        """The one stream of an iteration's (m, d) oracle noise block."""
        return derive_stream(StreamKey(self.master_seed, "oracle", 0, iteration))

    def output_draw(self) -> np.random.Generator:
        return derive_stream(StreamKey(self.master_seed, "output_draw", 0, 0))
