"""Stream derivation: reproducibility and independence."""

import ast
from pathlib import Path

import numpy as np
import pytest

import dnsgd

from dnsgd.streams import PURPOSE_CODES, derive_stream, fanout_seed


# the first two standard_normal draws of each stream at seed 1234, index 0;
# every run, report and digest reads these streams, so these bytes are fixed
PINNED_DRAWS = {
    "oracle": [-0.1804748294442248, 0.5188977663061427],
    "topology": [-2.1427696859179712, -2.0364208401628328],
    "output_draw": [-1.4513268685561123, -0.6598388582739013],
    "offsets": [1.5848739615951508, -0.46594574856395504],
    "seed_fanout": [0.20344049806861064, 0.27026837731491343],
    "smoothness": [1.1684611615609917, 2.0004278894259286],
    "dissimilarity": [-0.9122289983411419, 1.1577530217431558],
}


def test_every_stream_replays_its_pinned_draws():
    assert set(PINNED_DRAWS) == set(PURPOSE_CODES)
    for purpose, draws in PINNED_DRAWS.items():
        assert derive_stream(1234, purpose).standard_normal(2).tolist() == draws, purpose
    assert derive_stream(1234, "oracle", 3).standard_normal(2).tolist() == [
        1.1153294553925501, -1.1386666693228262,
    ]
    assert derive_stream(2**64 - 1, "oracle").standard_normal(2).tolist() == [
        1.5766758676728205, 0.14858907687939873,
    ]
    assert [fanout_seed(1234, i) for i in range(3)] == [
        8441532999771417096, 733668744384499872, 8839003612984909684,
    ]


def test_same_key_replays_identical_draws():
    a = derive_stream(1234, "oracle", 3).standard_normal(100)
    b = derive_stream(1234, "oracle", 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_key_components_give_distinct_streams():
    variants = [(1235, "oracle", 3), (1234, "offsets", 3), (1234, "oracle", 4)]
    ref = derive_stream(1234, "oracle", 3).standard_normal(8)
    for key in variants:
        assert not np.array_equal(ref, derive_stream(*key).standard_normal(8))


def test_cross_agent_streams_uncorrelated():
    n = 10_000
    block = derive_stream(99, "oracle").standard_normal((2, n))  # agents 0 and 1
    corr = float(np.corrcoef(block[0], block[1])[0, 1])
    assert abs(corr) < 0.05


def test_consecutive_iteration_blocks_uncorrelated():
    # a run reads one oracle stream in order: block t + 1 follows block t
    m, d, n = 8, 10, 2000
    blocks = derive_stream(99, "oracle").standard_normal((n, m * d))
    corr = float(np.corrcoef(blocks[:-1].ravel(), blocks[1:].ravel())[0, 1])
    assert abs(corr) < 0.05


@pytest.mark.parametrize("n, m, d", [(64, 8, 10), (7, 3, 5), (25, 256, 10), (3, 1, 1)])
def test_a_chunk_of_blocks_is_the_consecutive_block_draws(n, m, d):
    # run fills each seed's (n, m, d) noise chunk with one call, which must
    # equal n consecutive (m, d) draws and leave the stream where they leave it
    one_by_one, chunked, into = (derive_stream(2**64 - 1, "oracle") for _ in range(3))
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
        derive_stream(0, "banana")


def test_negative_indices_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        derive_stream(0, "oracle", -1)


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
    out = derive_stream(huge, "oracle").standard_normal(4)
    same = derive_stream(huge, "oracle").standard_normal(4)
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
