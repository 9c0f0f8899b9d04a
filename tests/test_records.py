"""The record contract: records are immutable NamedTuples, and only three classes are dataclasses.

Records are built by keyword, read by attribute and copied with _replace.
Every dnsgd process defines every class at import, and a dataclass costs
several times a NamedTuple to define, so the guard below keeps new records
off dataclasses. The three dataclasses need what a tuple cannot give:
HyperParams validates its fields in __post_init__, MixingMatrix caches its
spectrum and gossip gains in an instance __dict__, and Graph compares by
identity.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import dnsgd
from dnsgd import analysis, config, harness, hyperparams, optimizers, problems, streams, topology

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
