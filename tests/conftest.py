"""Shared test helpers and the acceptance-criterion summary hook.

Acceptance tests register one line per criterion through record_criterion;
pytest_terminal_summary prints them after the run so the pass/fail status
of each criterion is visible even though pytest captures stdout.
stepped_states gives the states of a run, which the runner does not keep.
worst_case_contraction is the paper's bound on an accelerated mix, the
reference that criterion 1 and the gossip tests hold the exact contraction to.
"""

from __future__ import annotations

import math

import numpy as np

from dnsgd.optimizers import METHODS, update_rule
from dnsgd.streams import derive_stream

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number:2d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    _CRITERION_LINES[number] = line


def worst_case_contraction(lambda2: float, k: int) -> float:
    """The paper's bound on how far a depth-k accelerated mix shrinks a distance from consensus.

    sqrt(14) (1 - (1 - 1/sqrt(2)) sqrt(1 - lambda2))^k, for any mixing matrix
    with second eigenvalue lambda2; gossip.contraction, the exact factor on a
    matrix's own spectrum, never exceeds it.
    """
    return math.sqrt(14.0) * (1.0 - (1.0 - 1.0 / math.sqrt(2.0)) * math.sqrt(1.0 - lambda2)) ** k


def stepped_states(algorithm, p, hp, w, x0, seed):
    """The states t = 0..hp.big_t of run(algorithm, p, hp, w, x0, [seed]), in order.

    They come from run's own bound step, applied to the seed's (m, d) state
    alone, with the oracle noise drawn one (m, d) block per state from a fresh
    oracle stream of the seed and scaled by sigma / sqrt(b d).
    """
    init, step = update_rule(METHODS[algorithm], p, hp, w)
    rng = derive_stream(seed, "oracle")

    def noise():
        if p.sigma == 0.0:
            return None
        return rng.standard_normal((p.m, p.d)) * (p.sigma / math.sqrt(hp.b * p.d))

    states = [init(np.tile(np.asarray(x0, dtype=np.float64), (p.m, 1)), noise())]
    for _ in range(hp.big_t):
        states.append(step(states[-1], noise()))
    return states


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])
