"""The package's surface: records are immutable NamedTuples, only three classes
are dataclasses, and every public function has a caller in the package.

Records are built by keyword, read by attribute and copied with _replace.
Every dnsgd process defines every class at import, and a dataclass costs
several times a NamedTuple to define, so the guard below keeps new records
off dataclasses. The three dataclasses need what a tuple cannot give:
HyperParams validates its fields in __post_init__, and MixingMatrix and Graph
compare by identity.

A public function that nothing in src/ calls is surface only tests reach; the
caller guard fails on it unless the benchmark traces it by name or it is the
console-script entry point.

A problem family is one problems.FAMILIES entry; the family guard fails on a
module that branches on a family name or looks a problems attribute up by name.

A problem's constants travel in its ProblemInstance, whose fields make_problem
has held to their rules, and a network's spectrum in its MixingMatrix; the
constants guard fails on a public function that takes one of them (l0, l1,
zeta, sigma, l_f, gamma or lambda2) as a loose argument, which it would then
have to check again.

Every norm and sum of squares goes through problems._sum_squares, numpy's
pairwise add.reduce, whose order no BLAS kernel picks; the sum guard fails on
any call that would sum through BLAS instead.
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
    problems.ProblemInstance, problems.SmoothnessReport, problems.Param, problems.Family,
    topology.ClauseResult, topology.ValidationReport,
    hyperparams.RhoGuard, hyperparams.TheoreticalParams,
    optimizers.Method, optimizers.OptimizerState,
    analysis.MetricColumns, analysis.Trajectory, analysis.StateMetrics,
    analysis.StationaritySummary,
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
        | _script_entry_points()
        # the measured-dissimilarity check of ROADMAP item 5 is built on it
        | {"problems.dissimilarity_measured"}
    )
    uncalled = sorted(
        name for name in defined - exempt if name.rsplit(".", 1)[1] not in referenced
    )
    assert uncalled == []


# Calls that sum products through BLAS (ddot, dgemv), in an order the kernel
# picks, and the one allowance: optimizers tests a step's finiteness with
# np.vdot, which only steers control flow, since a non-finite result re-runs
# the checked path, which raises or finds the same arrays finite.
BLAS_SUMS = ("vecdot", "vdot", "dot", "inner", "tensordot", "einsum", "linalg.norm")
BLAS_SUM_ALLOWED = {("optimizers", "np.vdot")}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_sums_of_squares_take_one_rule():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # the calls that make a ones vector, and the names bound to one
        ones_calls = [
            node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and _dotted(node.func).rsplit(".", 1)[-1] in ("ones", "ones_like")
        ]
        ones = {
            target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and node.value in ones_calls for target in node.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if any(name == f or name.endswith("." + f) for f in BLAS_SUMS):
                    found.add((path.stem, name))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                for side in (node.left, node.right):
                    if side in ones_calls or (isinstance(side, ast.Name) and side.id in ones):
                        found.add((path.stem, "@ ones"))
    assert found == BLAS_SUM_ALLOWED


# make_problem builds the record from them; check_relaxed_smooth certifies any
# gradient map; chebyshev_weight is the momentum of the lambda2 it is given.
CONSTANT_TAKERS = {
    "problems.make_problem", "problems.check_relaxed_smooth", "gossip.chebyshev_weight",
}


def test_problem_constants_come_in_the_record():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
                loose = names & {"l0", "l1", "zeta", "sigma", "l_f", "gamma", "lambda2"}
                if loose and f"{path.stem}.{node.name}" not in CONSTANT_TAKERS:
                    found.append((path.stem, node.name, sorted(loose)))
    assert found == []


def test_the_family_decision_stays_in_the_table():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                operands += [
                    elt for o in operands if isinstance(o, (ast.Tuple, ast.List, ast.Set))
                    for elt in o.elts
                ]
                found += [
                    (path.stem, node.lineno, o.value) for o in operands
                    if isinstance(o, ast.Constant) and o.value in problems.FAMILIES
                ]
            elif (
                isinstance(node, ast.Call) and _dotted(node.func) == "getattr" and node.args
                and _dotted(node.args[0]).rsplit(".", 1)[-1] == "problems"
            ):
                found.append((path.stem, node.lineno, "getattr(problems, ...)"))
    assert found == []
