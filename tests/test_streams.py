"""Stream derivation: reproducibility and independence."""

import numpy as np
import pytest

from dnsgd.streams import (
    PURPOSE_CODES,
    RunStreams,
    StreamKey,
    derive_stream,
    fanout_seed,
    oracle_keys,
)


def test_same_key_replays_identical_draws():
    key = StreamKey(1234, "oracle", agent=3, iteration=17)
    a = derive_stream(key).standard_normal(100)
    b = derive_stream(key).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_key_components_give_distinct_streams():
    base = StreamKey(1234, "oracle", agent=3, iteration=17)
    variants = [
        StreamKey(1235, "oracle", 3, 17),
        StreamKey(1234, "offsets", 3, 17),
        StreamKey(1234, "oracle", 4, 17),
        StreamKey(1234, "oracle", 3, 18),
    ]
    ref = derive_stream(base).standard_normal(8)
    for key in variants:
        assert not np.array_equal(ref, derive_stream(key).standard_normal(8))


def test_cross_agent_streams_uncorrelated():
    n = 10_000
    block = RunStreams(99).oracle(0).standard_normal((2, n))  # rows of agents 0 and 1
    corr = float(np.corrcoef(block[0], block[1])[0, 1])
    assert abs(corr) < 0.05


def test_unknown_purpose_rejected():
    with pytest.raises(ValueError, match="unknown stream purpose"):
        derive_stream(StreamKey(0, "banana"))


def test_negative_indices_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        derive_stream(StreamKey(0, "oracle", agent=-1))
    with pytest.raises(ValueError, match="non-negative"):
        derive_stream(StreamKey(0, "oracle", iteration=-2))


def test_purpose_codes_distinct():
    codes = list(PURPOSE_CODES.values())
    assert len(codes) == len(set(codes))


def test_fanout_deterministic_and_nontrivial():
    seeds = [fanout_seed(7, i) for i in range(20)]
    assert seeds == [fanout_seed(7, i) for i in range(20)]
    assert len(set(seeds)) == 20
    assert all(0 <= s < 1 << 63 for s in seeds)


def test_large_master_seed_wraps_into_range():
    huge = 1 << 130
    out = derive_stream(StreamKey(huge, "oracle")).standard_normal(4)
    same = derive_stream(StreamKey(huge, "oracle")).standard_normal(4)
    assert np.array_equal(out, same)


ORACLE_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1,
    *np.random.default_rng(2024).integers(0, 2**64 - 1, size=6, dtype=np.uint64).tolist(),
    -3, 2**70 + 5,  # reduced modulo 2**64, as derive_stream does
]


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_oracle_keys_match_seed_sequence(seed):
    iterations = np.array([*range(51), 2071, 2**32 - 1])
    keys = oracle_keys(seed, iterations)
    assert keys.dtype == np.uint64 and keys.shape == (iterations.size, 2)
    for t, key in zip(iterations.tolist(), keys):
        expected = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=(1, 0, t))
        assert key.tobytes() == expected.generate_state(2, np.uint64).tobytes(), t
    # the keys derive_stream hands Philox
    for t in (0, 7, 2071):
        philox = derive_stream(StreamKey(seed, "oracle", 0, t)).bit_generator
        assert np.array_equal(philox.state["state"]["key"], keys[iterations == t][0])


def test_oracle_keys_reject_iterations_beyond_one_word():
    # SeedSequence splits an iteration >= 2**32 into two spawn-key words
    for bad in ([2**32], [-1], [0, 2**40]):
        with pytest.raises(ValueError, match="oracle iterations must lie in"):
            oracle_keys(0, np.array(bad))
    for bad in (np.array([0.5]), np.zeros((2, 2), dtype=int)):
        with pytest.raises(ValueError, match="1-d integer array"):
            oracle_keys(0, bad)
    assert oracle_keys(0, np.arange(0)).shape == (0, 2)


def test_run_streams_rekey_one_generator():
    streams = RunStreams(5, 3)
    first = streams.oracle(1)
    # a part-used buffer and a cached 32-bit half must not leak into the next iteration
    first.integers(0, 2**32, size=3, dtype=np.uint32)
    first.standard_normal(5)
    assert streams.oracle(2) is first  # valid until the next oracle call
    for t in (3, 0, 1, 1):
        draws = streams.oracle(t).standard_normal((4, 3))
        expected = derive_stream(StreamKey(5, "oracle", 0, t)).standard_normal((4, 3))
        assert draws.tobytes() == expected.tobytes()
    for bad in (4, -1):
        with pytest.raises(ValueError, match="outside 0..3"):
            streams.oracle(bad)
    with pytest.raises(ValueError, match="big_t"):
        RunStreams(5, -1)
