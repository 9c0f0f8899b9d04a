"""The package's surface: records are immutable NamedTuples, only three classes
are dataclasses, and every public function has a caller in the package.

Records are built by keyword, read by attribute and copied with _replace.
Every dnsgd process defines every class at import, and a dataclass costs
several times a NamedTuple to define, so the guard below keeps new records
off dataclasses. The three dataclasses need what a tuple cannot give:
HyperParams validates its fields in __post_init__, MixingMatrix caches its
spectrum in an instance __dict__, and Graph compares by identity.

A public function that nothing in src/ calls is surface only tests reach; the
caller guard fails on it unless the benchmark traces it by name, a config
dispatches to it by name, or it is the console-script entry point.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import dnsgd
from dnsgd import analysis, config, harness, hyperparams, optimizers, problems, streams, topology

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dnsgd"

RECORDS = (
    streams.StreamKey,
    problems.ProblemInstance, problems.SmoothnessReport,
    topology.ClauseResult, topology.ValidationReport,
    hyperparams.RhoGuard, hyperparams.TheoreticalParams,
    optimizers.Method, optimizers.OptimizerState,
    analysis.Trajectory, analysis.StateMetrics, analysis.StationaritySummary,
    analysis.ConsensusBoundReport, analysis.DescentReport,
    config.ProblemConfig, config.TopologyConfig, config.AutoHyperConfig,
    config.RunConfig, config.SweepConfig,
    harness.CheckResult, harness.RunResult, harness.SweepPoint, harness.SweepResult,
)

DATACLASSES = {"HyperParams", "MixingMatrix", "Graph"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    values = {name: f"{name}-value" for name in cls._fields}
    rec = cls(**values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, "new")
    first = cls._fields[0]
    copy = rec._replace(**{first: "new"})
    assert type(copy) is cls
    assert copy == cls(**{**values, first: "new"})
    assert rec == cls(*values.values())  # unchanged, and positions follow the fields


def test_only_three_classes_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(dnsgd.__path__):
        module = importlib.import_module(f"dnsgd.{info.name}")
        found |= {
            name for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        }
    assert found == DATACLASSES


def _bench_named_functions():
    """The "<layer>.<function>" names BENCHMARK.json and bench/spans.py time by name."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        entry["name"].rsplit(".", 1)[0]
        for entry in declared["per_layer"] if entry["name"].count(".") == 2
    }
    for node in ast.parse((ROOT / "bench" / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SETUP_FUNCTIONS" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def _script_entry_points():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    targets = (target.split(":") for target in scripts.values())
    return {f"{module.removeprefix('dnsgd.')}.{function}" for module, function in targets}


def test_every_public_function_has_a_caller():
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {
            f"{path.stem}.{node.name}" for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    exempt = (
        _bench_named_functions()
        | {f"problems.make_{family}" for family in problems.FAMILIES}
        | _script_entry_points()
        # the measured-dissimilarity check of ROADMAP item 5 is built on it
        | {"problems.dissimilarity_measured"}
    )
    uncalled = sorted(
        name for name in defined - exempt if name.rsplit(".", 1)[1] not in referenced
    )
    assert uncalled == []
