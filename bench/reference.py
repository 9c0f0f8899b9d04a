"""Fixed reference work that measures the host's speed around each timed command.

On a shared host the speed of identical work changes by up to 2x over tens
of seconds, as other tenants come and go. The benchmark times a fixed piece
of work in its own process just before and just after each command. The
command's times are then scaled by ``REF_SECONDS`` over the geometric mean of
the two reference times, which gives them in seconds at the reference speed:
the speed at which the reference work takes ``REF_SECONDS``.

Contention slows interpreter-bound and BLAS-bound code by different
amounts, so there are two kinds of reference work, and each command names
the one that matches its bottleneck:

- ``interp``: what a dnsgd iteration does at small m. A Philox stream from a
  SeedSequence, normal draws, a Chebyshev recursion on an 8-agent mixing
  matrix and a norm, in a Python loop.
- ``dense``: what accelerated gossip does at m=256. The Chebyshev recursion
  with a dense 256x256 mixing matrix on a 256x10 block.

Both run on one BLAS thread, as the commands do, and never change with the
program under test.
"""

from __future__ import annotations

import os
import time

# One BLAS thread, set before numpy loads, as in the measured commands.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# Duration of either kind of work at the reference speed: about its median
# time on the 2-vCPU Xeon box of baseline.json. This constant fixes the unit
# of every benchmark time; it must not change between compared runs.
REF_SECONDS = 0.085

_W8 = np.full((8, 8), 1.0 / 8)
_Y8 = np.ones((8, 10))
_W256 = np.full((256, 256), 1.0 / 256)
_Y256 = np.ones((256, 10))


def _interp(loops: int = 800) -> float:
    acc = 0.0
    for i in range(loops):
        seq = np.random.SeedSequence(entropy=i, spawn_key=(1, i, 0))
        gen = np.random.Generator(np.random.Philox(seq))
        y = _Y8 + gen.standard_normal((8, 10))
        prev = y
        for _ in range(20):
            y, prev = 1.5 * (_W8 @ y) - 0.5 * prev, y
        acc += float(np.linalg.norm(y))
    return acc


def _dense(rounds: int = 1800) -> float:
    y = prev = _Y256
    for _ in range(rounds):
        y, prev = 1.5 * (_W256 @ y) - 0.5 * prev, y
    return float(y[0, 0])


_WORK = {"interp": _interp, "dense": _dense}


def work(kind: str) -> float:
    """Run one kind of reference work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    value = _WORK[kind]()
    elapsed = time.perf_counter() - t0
    if not np.isfinite(value):
        raise ArithmeticError("reference work produced a non-finite value")
    return elapsed
