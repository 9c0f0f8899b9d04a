"""Stream derivation: reproducibility and independence."""

import numpy as np
import pytest

from dnsgd.streams import PURPOSE_CODES, RunStreams, StreamKey, derive_stream, fanout_seed


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
