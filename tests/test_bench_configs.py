"""The benchmark's generated configs parse, and its commands succeed.

bench/run.py writes one JSON config per command and runs it through the
dnsgd command line; a config the parsers reject exits 2 there, and a command
that exits non-zero (a built-in check failed, or a cell check of a sweep)
counts every trajectory of it as failed. These tests import bench/run.py by
path, as it is, parse every config of both workloads, and run every command
of one repetition at full size.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dnsgd.cli import main as cli_main
from dnsgd.config import parse_run_config, parse_sweep_config

BENCH = Path(__file__).resolve().parents[1] / "bench"
PARSERS = {"run": parse_run_config, "sweep": parse_sweep_config}


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py as a module; sys.modules and the environment are restored after."""
    # reference.py pins the BLAS thread count in os.environ when it is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]


@pytest.mark.parametrize("tiny", [False, True])
def test_benchmark_configs_parse(bench_run, tiny):
    for workload in bench_run.WORKLOADS:
        for seed in (1, 7, 301, 2**64 - 1):
            commands = bench_run.workload_commands(workload, seed, tiny=tiny)
            assert commands, workload
            for cmd in commands:
                cfg = PARSERS[cmd.subcommand](cmd.config)
                run_cfg = cfg.run if cmd.subcommand == "sweep" else cfg
                assert run_cfg.master_seed == seed, (workload, cmd.subcommand)


def test_benchmark_commands_succeed(bench_run, tmp_path):
    for workload in bench_run.WORKLOADS:
        for i, cmd in enumerate(bench_run.workload_commands(workload, 1)):
            path = tmp_path / f"{workload}-{i}.json"
            path.write_text(json.dumps(cmd.config))
            argv = [cmd.subcommand, "--config", str(path), "--out-dir", str(tmp_path / path.stem)]
            assert cli_main(argv) == 0, (workload, i, cmd.subcommand)
