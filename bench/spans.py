"""Span recording around the public functions of the dnsgd modules.

A ``Tracer`` replaces each selected function with a wrapper that records
one span per call: the function, its start and end on the
``time.perf_counter`` clock, and the span that was open when it was called.
The wrapper is installed on every module attribute that refers to the
function, so callers that imported it by name (``from .optimizers import
run``) resolve the wrapper too. Spans stay in flat arrays in memory and are
written out once, when the traced command ends.

The analysis half reads a span file back and computes per-function call
counts, busy (inclusive) time and self time, where a span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The dnsgd modules, each one layer of the benchmark's per-layer split.
LAYERS = (
    "streams", "problems", "topology", "gossip", "hyperparams",
    "optimizers", "analysis", "harness", "config", "cli",
)

# The calls timed in untraced runs: set-up before the first iteration.
SETUP_FUNCTIONS = (
    "config.build_problem", "config.build_mixing", "hyperparams.theoretical_hyperparams",
)

# Work counters derived from call arguments: W applications per gossip call.
ARG_COUNTERS: dict[str, tuple[str, Callable[..., int]]] = {
    "gossip.acc_gossip": ("gossip.rounds", lambda y0, mix, k: k + 1),
    "gossip.plain_gossip": ("gossip.rounds", lambda y0, mix, k: k),
}

NO_PARENT = -1


def public_functions() -> dict[str, Callable]:
    """``{"layer.function": function}`` for the public functions each layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"dnsgd.{layer}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Records spans for the functions it wraps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [NO_PARENT]

    def wrap(self, name: str, fn: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends, stack = (
            self.fid, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter
        counter = ARG_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counters[counter[0]] += counter[1](*args, **kwargs)
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, select: Callable[[str], bool] = lambda name: True) -> None:
        """Wrap the selected public functions wherever a dnsgd module refers to them."""
        wrappers = {}
        for name, fn in public_functions().items():
            if select(name):
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
        modules = [m for key, m in sys.modules.items()
                   if key == "dnsgd" or key.startswith("dnsgd.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans as ``path`` (JSON header) plus ``path.bin`` (arrays)."""
        header = {"names": self.names, "count": len(self.start),
                  "counters": dict(self.counters), **extra}
        path.write_text(json.dumps(header))
        with open(str(path) + ".bin", "wb") as f:
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(f)


@dataclass
class Spans:
    names: list[str]
    fid: array
    parent: array
    start: array
    end: array
    counters: dict[str, int]
    extra: dict


def load(path: Path) -> Spans:
    header = json.loads(path.read_text())
    n = header.pop("count")
    arrays = [array("q"), array("q"), array("d"), array("d")]
    with open(str(path) + ".bin", "rb") as f:
        for arr in arrays:
            arr.fromfile(f, n)
    return Spans(header.pop("names"), *arrays, header.pop("counters"), header)


def remove(path: Path) -> None:
    path.unlink()
    Path(str(path) + ".bin").unlink()


def busy(spans: Spans, names) -> float:
    """Summed duration of the spans of the named functions."""
    ids = {i for i, name in enumerate(spans.names) if name in names}
    return sum(e - s for f, s, e in zip(spans.fid, spans.start, spans.end) if f in ids)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, par in enumerate(parent):
        if par != NO_PARENT:
            children[par].append(idx)
    out = [e - s for s, e in zip(start, end)]
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[par] -= covered
    return out


@dataclass
class FunctionStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: Spans) -> tuple[dict[str, FunctionStats], float]:
    """Per-function stats and the total duration of the root spans.

    busy_s sums inclusive durations; no public dnsgd function calls itself,
    so no span of a function nests inside another span of the same function.
    """
    stats = {name: FunctionStats() for name in spans.names}
    selfs = self_times(spans.start, spans.end, spans.parent)
    root_s = 0.0
    for idx, fid in enumerate(spans.fid):
        st = stats[spans.names[fid]]
        dur = spans.end[idx] - spans.start[idx]
        st.calls += 1
        st.busy_s += dur
        st.self_s += selfs[idx]
        if spans.parent[idx] == NO_PARENT:
            root_s += dur
    return stats, root_s
