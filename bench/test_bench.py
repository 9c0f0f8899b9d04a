"""Tests of the benchmark itself: span arithmetic and tiny end-to-end runs.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import run
import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def make_spans(rows: list[tuple[str, int, float, float]]) -> spans.Spans:
    """Spans from (name, parent index, start, end) rows."""
    names = sorted({name for name, *_ in rows})
    return spans.Spans(
        names=names,
        fid=array("q", [names.index(name) for name, *_ in rows]),
        parent=array("q", [parent for _, parent, _, _ in rows]),
        start=array("d", [s for *_, s, _ in rows]),
        end=array("d", [e for *_, e in rows]),
        counters={}, extra={},
    )


def test_self_time_is_duration_minus_child_coverage():
    tree = make_spans([
        ("cli.main", -1, 0.0, 10.0),
        ("harness.run_experiment", 0, 1.0, 4.0),
        ("optimizers.run", 1, 2.0, 3.0),
        ("gossip.acc_gossip", 0, 3.0, 6.0),  # overlaps its sibling: the union counts once
        ("gossip.acc_gossip", 0, 8.0, 9.0),
        ("streams.derive_stream", -1, 11.0, 11.5),
    ])
    assert spans.self_times(tree.start, tree.end, tree.parent) == pytest.approx(
        [10.0 - (6.0 - 1.0) - (9.0 - 8.0), 3.0 - 1.0, 1.0, 3.0, 1.0, 0.5]
    )
    stats, root_s = spans.summarize(tree)
    assert root_s == pytest.approx(10.5)
    assert stats["gossip.acc_gossip"].calls == 2
    assert stats["gossip.acc_gossip"].busy_s == pytest.approx(4.0)
    assert stats["cli.main"].self_s == pytest.approx(4.0)


def _result(wall_s: float, setup_s: float, setup_speed: float, speed: float) -> run.CommandResult:
    return run.CommandResult(
        run.Command("run", {"num_seeds": 1}), rc=0, wall_s=wall_s, rss_mb=40.0,
        spans=make_spans([("config.build_problem", -1, 0.0, setup_s)]),
        setup_speed=setup_speed, speed=speed, big_t=100,
    )


def test_end_to_end_takes_medians_at_the_reference_speed():
    reps = [
        [_result(2.0, 0.5, 1.0, 1.0)],
        [_result(1.0, 0.25, 2.0, 2.0)],
        [_result(4.0, 1.0, 0.5, 0.25)],  # set-up and the rest scale by their own factors
    ]
    # At the reference speed the walls are 2, 2 and 1.25 s, the set-ups 0.5 s each.
    e2e = run.end_to_end(reps, ok_frac=1.0)
    assert e2e["wall_s"] == pytest.approx(2.0)
    assert e2e["setup_s"] == pytest.approx(0.5)
    assert e2e["iters_per_s"] == pytest.approx(100 / 1.5)
    assert run.rep_values(reps[1], scaled=False)["wall_s"] == pytest.approx(1.0)


def test_tracer_links_nested_calls_and_counts_rounds(tmp_path):
    tracer = spans.Tracer()

    def acc_gossip(y0, mix, k):
        return k

    inner = tracer.wrap("gossip.acc_gossip", acc_gossip)
    outer = tracer.wrap("optimizers.run", lambda: inner(None, None, k=4) + inner(None, None, 2))
    assert outer() == 6
    tracer.write(tmp_path / "s.json", {"t0": 0.0})
    loaded = spans.load(tmp_path / "s.json")
    assert [loaded.names[f] for f in loaded.fid] == [
        "optimizers.run", "gossip.acc_gossip", "gossip.acc_gossip"
    ]
    assert list(loaded.parent) == [-1, 0, 0]
    assert loaded.counters == {"gossip.rounds": (4 + 1) + (2 + 1)}
    stats, root_s = spans.summarize(loaded)
    total_self = sum(st.self_s for st in stats.values())
    assert total_self == pytest.approx(root_s)


def _bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "5", "--seconds", "0",
                   "--trace", str(trace), "--tiny"], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(line.startswith(f"{m['name']}: ") and f" {m['unit']}" in line
                   for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in SPEC["paths"]:
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", next(iter(run.WORKLOADS)), "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
                  tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
