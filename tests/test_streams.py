"""Stream derivation: reproducibility and independence."""

import ast
from pathlib import Path

import numpy as np
import pytest

import dnsgd

from dnsgd.streams import PURPOSE_CODES, StreamKey, derive_stream, fanout_seed


def test_same_key_replays_identical_draws():
    key = StreamKey(1234, "oracle", agent=3)
    a = derive_stream(key).standard_normal(100)
    b = derive_stream(key).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_key_components_give_distinct_streams():
    base = StreamKey(1234, "oracle", agent=3)
    variants = [
        StreamKey(1235, "oracle", 3),
        StreamKey(1234, "offsets", 3),
        StreamKey(1234, "oracle", 4),
    ]
    ref = derive_stream(base).standard_normal(8)
    for key in variants:
        assert not np.array_equal(ref, derive_stream(key).standard_normal(8))


def test_cross_agent_streams_uncorrelated():
    n = 10_000
    block = derive_stream(StreamKey(99, "oracle")).standard_normal((2, n))  # agents 0 and 1
    corr = float(np.corrcoef(block[0], block[1])[0, 1])
    assert abs(corr) < 0.05


def test_consecutive_iteration_blocks_uncorrelated():
    # a run reads one oracle stream in order: block t + 1 follows block t
    m, d, n = 8, 10, 2000
    blocks = derive_stream(StreamKey(99, "oracle")).standard_normal((n, m * d))
    corr = float(np.corrcoef(blocks[:-1].ravel(), blocks[1:].ravel())[0, 1])
    assert abs(corr) < 0.05


@pytest.mark.parametrize("n, m, d", [(64, 8, 10), (7, 3, 5), (25, 256, 10), (3, 1, 1)])
def test_a_chunk_of_blocks_is_the_consecutive_block_draws(n, m, d):
    # run fills each seed's (n, m, d) noise chunk with one call, which must
    # equal n consecutive (m, d) draws and leave the stream where they leave it
    one_by_one, chunked, into = (derive_stream(StreamKey(2**64 - 1, "oracle")) for _ in range(3))
    blocks = np.stack([one_by_one.standard_normal((m, d)) for _ in range(n)])
    assert chunked.standard_normal((n, m, d)).tobytes() == blocks.tobytes()
    out = np.empty((2, n, m, d))
    into.standard_normal(out=out[1])
    assert out[1].tobytes() == blocks.tobytes()
    # the state holds the counter, key and buffer arrays; assert_equal compares them in full
    state = one_by_one.bit_generator.state
    np.testing.assert_equal(chunked.bit_generator.state, state)
    np.testing.assert_equal(into.bit_generator.state, state)


def test_unknown_purpose_rejected():
    with pytest.raises(ValueError, match="unknown stream purpose"):
        derive_stream(StreamKey(0, "banana"))


def test_negative_indices_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        derive_stream(StreamKey(0, "oracle", agent=-1))


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


def _random_calls(tree: ast.Module) -> list[str]:
    """Calls in tree that make or draw from a random generator other than a derived one.

    Those are calls through numpy.random (np.random.default_rng(...),
    np.random.Philox(...)), through the standard library's random module, and
    of names imported from either. Methods of a generator a caller was handed
    (rng.standard_normal) and annotations (np.random.Generator) are not.
    """
    numpy_names, module_names, imported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "numpy" or (alias.name == "numpy.random" and not alias.asname):
                    numpy_names.add(bound)
                elif alias.name in ("numpy.random", "random"):
                    module_names.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("numpy.random", "random"):
                imported.update(alias.asname or alias.name for alias in node.names)
            elif node.module == "numpy":
                module_names.update(
                    alias.asname or alias.name for alias in node.names if alias.name == "random"
                )
    found = []
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for node in sorted(calls, key=lambda node: (node.lineno, node.col_offset)):
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            continue
        parts = [func.id, *reversed(parts)]
        if (
            (parts[0] in numpy_names and parts[1:2] == ["random"])
            or (parts[0] in module_names and len(parts) > 1)
            or (parts[0] in imported and len(parts) == 1)
        ):
            found.append(f"line {node.lineno}: {'.'.join(parts)}(...)")
    return found


def test_random_call_guard_flags_every_spelling():
    source = """
import random
import numpy as np
import numpy.random as npr
from numpy import random as nr
from numpy.random import Philox, default_rng as make
np.random.default_rng(1)
np.random.Generator(np.random.Philox(2))
np.random.standard_normal(3)
npr.SeedSequence(4)
nr.random(5)
Philox(6)
make(7)
random.random()
def f(rng: np.random.Generator, gen) -> np.random.Generator:
    return gen.random(3) + rng.standard_normal(2)
"""
    assert [call.split(": ")[1] for call in _random_calls(ast.parse(source))] == [
        "np.random.default_rng(...)", "np.random.Generator(...)", "np.random.Philox(...)",
        "np.random.standard_normal(...)", "npr.SeedSequence(...)", "nr.random(...)",
        "Philox(...)", "make(...)", "random.random(...)",
    ]


def test_every_draw_comes_from_a_derived_stream():
    # only dnsgd.streams makes generators; every other module draws from one it was handed
    package = Path(dnsgd.__file__).parent
    offenders = {
        path.name: calls
        for path in sorted(package.glob("*.py"))
        if path.name != "streams.py"
        and (calls := _random_calls(ast.parse(path.read_text(), str(path))))
    }
    assert offenders == {}
