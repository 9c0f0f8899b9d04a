"""The benchmark's generated configs parse with the current config schema.

bench/run.py writes one JSON config per command and runs it through the
dnsgd command line; a config the parsers reject exits 2 there, and every
trajectory of the workload counts as failed. This test imports bench/run.py
by path, as it is, and parses every config of both workloads.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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
