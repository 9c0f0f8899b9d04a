"""Shared test helpers and the acceptance-criterion summary hook.

Acceptance tests register one line per criterion through record_criterion;
pytest_terminal_summary prints them after the run so the pass/fail status
of each criterion is visible even though pytest captures stdout.
stepped_states gives the states of a run, which the runner does not keep.
"""

from __future__ import annotations

from dnsgd.optimizers import METHODS, init_state, step
from dnsgd.streams import StreamKey, derive_stream

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number:2d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    _CRITERION_LINES[number] = line


def stepped_states(algorithm, p, hp, w, x0, seed):
    """The states t = 0..hp.big_t of run(algorithm, p, hp, w, x0, [seed]), in order."""
    method = METHODS[algorithm]
    rng = derive_stream(StreamKey(seed, "oracle"))
    states = [init_state(method, p, x0, hp, w, rng)]
    for _ in range(hp.big_t):
        states.append(step(states[-1], method, p, hp, w, rng))
    return states


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])
