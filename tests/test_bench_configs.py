"""The benchmark's generated configs parse, its commands succeed, and the
functions it traces exist.

bench/run.py writes one JSON config per command and runs it through the
dnsgd command line; a config the parsers reject exits 2 there, and a command
that exits non-zero (a built-in check failed, or a cell check of a sweep)
counts every trajectory of it as failed. These tests import bench/run.py by
path, as it is, parse every config of both workloads, and run every command
of one repetition at full size. They import bench/spans.py the same way and
check that every function the benchmark times by name is still defined.
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
def import_bench(monkeypatch):
    """Imports a bench/ file by path; sys.modules and the environment are restored after."""
    # reference.py pins the BLAS thread count in os.environ when it is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)

    def load(filename):
        spec = importlib.util.spec_from_file_location(f"bench_{filename[:-3]}", BENCH / filename)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
        return module

    try:
        yield load
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]


@pytest.fixture
def bench_run(import_bench):
    return import_bench("run.py")


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


def test_benchmark_traced_functions_exist(import_bench):
    # spans.busy sums only the names it finds, so a renamed set-up function
    # would drop out of setup_s; a per-layer metric of a renamed function
    # would make a traced benchmark run fail on a missing key.
    spans = import_bench("spans.py")
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # "<layer>.<function>.<stat>"; analysis.checks is derived, not a function
    functions = {
        entry["name"].rsplit(".", 1)[0]
        for entry in declared["per_layer"] if entry["name"].count(".") == 2
    } - {"analysis.checks"}
    defined = spans.public_functions()
    missing = [name for name in (*spans.SETUP_FUNCTIONS, *sorted(functions))
               if name not in defined]
    assert missing == []
