"""JSON experiment configs and their validation.

A run config names a problem family, a topology, an algorithm, and either
explicit hyperparameters or an ``auto`` block with a target accuracy from
which the theory-driven calculator fills them in. A sweep config is a run
config without ``hyperparams`` (``auto`` is required) plus ``m_list`` and
``target_epsilon``; its ``problem.m`` is replaced by each entry of ``m_list``.

Errors raise ConfigError with the dotted path of the offending field so a
typo in a nested block is reported as e.g. ``problem.sigma`` rather than a
bare KeyError. Each numeric field of a problem, of hyperparams, and auto's and
a sweep's epsilon is read by _parse_field and held to the rule that the
record's constructor applies too: problems.PARAMS, hyperparams.FIELDS, and
topology.edge_probability_error for topology.p.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .hyperparams import FIELDS, HyperParams
from .optimizers import ALGORITHMS
from .problems import FAMILIES, PARAMS, Param, ProblemInstance, make_problem
from .topology import (
    KINDS, MixingMatrix, build_topology, edge_probability_error, metropolis_mixing,
)


class ConfigError(ValueError):
    """Invalid or missing configuration value; .field holds the dotted path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


class ProblemConfig(NamedTuple):
    family: str
    d: int
    m: int
    zeta: float
    sigma: float
    seed: int = 0
    # family-specific knobs; unused ones stay None
    rate: float | None = None
    power: int | None = None
    scale: float | None = None
    curvature: float | None = None


class TopologyConfig(NamedTuple):
    kind: str
    p: float | None = None
    seed: int = 0


class AutoHyperConfig(NamedTuple):
    epsilon: float
    t_cap: int | None = None


class RunConfig(NamedTuple):
    problem: ProblemConfig
    topology: TopologyConfig
    algorithm: str
    x0: float | tuple[float, ...]
    master_seed: int
    hyperparams: HyperParams | None = None
    auto: AutoHyperConfig | None = None
    num_seeds: int = 1
    out_dir: str = "out"


class SweepConfig(NamedTuple):
    run: RunConfig  # run.problem.m is replaced by each entry of m_list
    m_list: tuple[int, ...]
    target_epsilon: float


def _expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(d: dict, allowed: set[str], path: str) -> None:
    extra = sorted(set(d) - allowed)
    if extra:
        raise ConfigError(f"{path}.{extra[0]}" if path else extra[0], "unknown field")


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
        return default
    return d[key]


def _as_int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {value}")
    return value


def parse_seed(value, path: str) -> int:
    # Streams use the seed modulo 2**64, so a larger seed would alias a smaller one.
    return _as_int(value, path, minimum=0, maximum=2**64 - 1)


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value}")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"must be one of {', '.join(choices)}; got {value!r}")
    return value


def _parse_field(
    d: dict, name: str, rule: Param, path: str, missing: str = "missing required field",
    default: float | None = None,
):
    """d[name] read by _as_field; absent, default, or with none a ConfigError saying missing."""
    field = f"{path}.{name}" if path else name
    if name not in d:
        if default is None:
            raise ConfigError(field, missing)
        return default
    return _as_field(d[name], field, rule)


def _as_field(value, field: str, rule: Param):
    """value read as an int or a finite float, as rule says, and held to rule."""
    value = _as_int(value, field) if rule.integer else _as_float(value, field)
    error = rule.error(value)
    if error is not None:
        raise ConfigError(field, error)
    return value


_PROBLEM_KEYS = {"family", "seed"} | set(PARAMS)
_FAMILY_PARAMS = {name for family in FAMILIES.values() for name in family.params}


def parse_problem(d: dict, path: str = "problem") -> ProblemConfig:
    d = _expect_dict(d, path)
    _reject_unknown(d, _PROBLEM_KEYS, path)
    family = _as_str(_get(d, "family", path), f"{path}.family", choices=tuple(FAMILIES))
    params = FAMILIES[family].params
    foreign = sorted((set(d) & _FAMILY_PARAMS) - set(params))
    if foreign:
        raise ConfigError(f"{path}.{foreign[0]}", f"not a parameter of family {family!r}")
    return ProblemConfig(
        family=family,
        **{name: _parse_field(d, name, PARAMS[name], path) for name in ("d", "m", "zeta", "sigma")},
        seed=parse_seed(_get(d, "seed", path, required=False, default=0), f"{path}.seed"),
        **{
            name: _parse_field(d, name, PARAMS[name], path, f"required for family {family!r}")
            for name in params
        },
    )


def parse_topology(d: dict, path: str = "topology") -> TopologyConfig:
    d = _expect_dict(d, path)
    _reject_unknown(d, {"kind", "p", "seed"}, path)
    kind = _as_str(_get(d, "kind", path), f"{path}.kind", choices=KINDS)
    p = None if d.get("p") is None else _as_float(d["p"], f"{path}.p")
    error = edge_probability_error(kind, p)
    if error is not None:
        raise ConfigError(f"{path}.p", error)
    seed = parse_seed(_get(d, "seed", path, required=False, default=0), f"{path}.seed")
    return TopologyConfig(kind=kind, p=p, seed=seed)


def parse_auto(d: dict, path: str = "auto") -> AutoHyperConfig:
    d = _expect_dict(d, path)
    _reject_unknown(d, {"epsilon", "t_cap"}, path)
    t_cap = None if d.get("t_cap") is None else _as_int(d["t_cap"], f"{path}.t_cap", minimum=1)
    return AutoHyperConfig(epsilon=_parse_field(d, "epsilon", FIELDS["epsilon"], path), t_cap=t_cap)


def parse_hyperparams(d: dict, path: str = "hyperparams") -> HyperParams:
    d = _expect_dict(d, path)
    _reject_unknown(d, set(FIELDS), path)
    # HyperParams applies the same rules, so it cannot raise here
    return HyperParams(**{name: _parse_field(d, name, rule, path) for name, rule in FIELDS.items()})


def _parse_x0(value, path: str = "x0") -> float | tuple[float, ...]:
    if isinstance(value, bool):
        raise ConfigError(path, "expected a number or list of numbers")
    if isinstance(value, (int, float)):
        return _as_float(value, path)
    if isinstance(value, list):
        return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))
    raise ConfigError(path, f"expected a number or list of numbers, got {type(value).__name__}")


def _drop_retired(d: dict) -> dict:
    """d without snapshot_every, which state snapshots used to read.

    The key is still accepted as 0, the value that asked for no snapshots,
    so that older configs keep parsing; any other value asks for what is gone.
    """
    if "snapshot_every" not in d:
        return d
    value = d["snapshot_every"]
    if type(value) is not int or value != 0:
        raise ConfigError(
            "snapshot_every", f"state snapshots were removed; only 0 is accepted, got {value!r}"
        )
    return {key: v for key, v in d.items() if key != "snapshot_every"}


_RUN_KEYS = {
    "problem", "topology", "algorithm", "x0", "master_seed", "hyperparams",
    "auto", "num_seeds", "out_dir",
}


def parse_run_config(d: dict) -> RunConfig:
    d = _drop_retired(_expect_dict(d, "config"))
    _reject_unknown(d, _RUN_KEYS, "")
    hp = None if "hyperparams" not in d else parse_hyperparams(d["hyperparams"])
    auto = None if "auto" not in d else parse_auto(d["auto"])
    if hp is None and auto is None:
        raise ConfigError("hyperparams", "either hyperparams or auto must be given")
    if hp is not None and auto is not None:
        raise ConfigError("hyperparams", "hyperparams and auto are mutually exclusive")
    return RunConfig(
        problem=parse_problem(_get(d, "problem", "")),
        topology=parse_topology(_get(d, "topology", "")),
        algorithm=_as_str(_get(d, "algorithm", ""), "algorithm", choices=ALGORITHMS),
        x0=_parse_x0(_get(d, "x0", "")),
        master_seed=parse_seed(_get(d, "master_seed", ""), "master_seed"),
        hyperparams=hp,
        auto=auto,
        num_seeds=_as_int(_get(d, "num_seeds", "", required=False, default=1), "num_seeds", minimum=1),
        out_dir=_as_str(_get(d, "out_dir", "", required=False, default="out"), "out_dir"),
    )


_SWEEP_KEYS = (_RUN_KEYS - {"hyperparams"}) | {"m_list", "target_epsilon"}


def parse_sweep_config(d: dict) -> SweepConfig:
    """A run config without hyperparams, plus m_list and target_epsilon."""
    d = _drop_retired(_expect_dict(d, "config"))
    _reject_unknown(d, _SWEEP_KEYS, "")
    _get(d, "auto", "")  # the calculator reruns for every m
    raw_m = _get(d, "m_list", "", required=False, default=[2, 4, 8, 16])
    if not isinstance(raw_m, list) or not raw_m:
        raise ConfigError("m_list", "expected a non-empty list of integers")
    m_list = tuple(_as_field(v, f"m_list[{i}]", PARAMS["m"]) for i, v in enumerate(raw_m))
    target_epsilon = _parse_field(d, "target_epsilon", FIELDS["epsilon"], "", default=0.3)
    run = {key: v for key, v in d.items() if key not in ("m_list", "target_epsilon")}
    return SweepConfig(
        run=parse_run_config({"algorithm": "dnsgd", **run}),
        m_list=m_list,
        target_epsilon=target_epsilon,
    )


def load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError("config", f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON in {path}: {e}") from e


def build_problem(cfg: ProblemConfig) -> ProblemInstance:
    """Instantiate the configured problem."""
    params = {name: getattr(cfg, name) for name in FAMILIES[cfg.family].params}
    return make_problem(
        cfg.family, d=cfg.d, m=cfg.m, zeta=cfg.zeta, sigma=cfg.sigma, seed=cfg.seed, **params
    )


def build_mixing(cfg: TopologyConfig, m: int) -> MixingMatrix:
    """The configured graph's Metropolis mixing matrix; the graph is its .graph."""
    return metropolis_mixing(build_topology(cfg.kind, m, p=cfg.p, seed=cfg.seed))


def resolve_x0(x0: float | tuple[float, ...], d: int) -> np.ndarray:
    if isinstance(x0, tuple):
        if len(x0) != d:
            raise ConfigError("x0", f"list length {len(x0)} does not match problem d={d}")
        return np.asarray(x0, dtype=np.float64)
    return np.full(d, float(x0))
