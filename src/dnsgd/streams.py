"""Counter-based random stream derivation.

Every random draw in the library comes from a stream addressed by
(master_seed, purpose, index). Addresses are hashed through numpy's
SeedSequence into a Philox counter generator, so distinct addresses give
statistically independent streams and the same address always replays the
same draws.

A seed's oracle noise is one stream, derive_stream(seed, "oracle"), read in
iteration order: iteration t draws the t-th (m, d) block of it. Successive
blocks of a counter-based generator are independent (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).
"""

from __future__ import annotations

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


def derive_stream(master_seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator addressed by (master_seed, purpose, index).

    Raises ValueError for unknown purposes or a negative index.
    """
    if purpose not in PURPOSE_CODES:
        known = ", ".join(sorted(PURPOSE_CODES))
        raise ValueError(f"unknown stream purpose {purpose!r} (known: {known})")
    if index < 0:
        raise ValueError("stream index must be non-negative")
    # the trailing 0 word is part of every stream's key: dropping it would
    # change every draw
    seq = np.random.SeedSequence(
        entropy=master_seed & _SEED_MASK,
        spawn_key=(PURPOSE_CODES[purpose], index, 0),
    )
    return np.random.Generator(np.random.Philox(seq))


def fanout_seed(master_seed: int, run_index: int) -> int:
    """Child master seed for the run_index-th repetition of an experiment."""
    gen = derive_stream(master_seed, "seed_fanout", run_index)
    return int(gen.integers(0, 1 << 63))
