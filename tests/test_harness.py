"""Experiment harness: config parsing, file outputs, reproducibility."""

import collections
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dnsgd import gossip, optimizers, problems
from dnsgd.cli import main as cli_main
from dnsgd.config import (
    AutoHyperConfig,
    ConfigError,
    ProblemConfig,
    RunConfig,
    SweepConfig,
    TopologyConfig,
    build_mixing,
    build_problem,
    load_json,
    parse_run_config,
    parse_sweep_config,
    resolve_x0,
)
from dnsgd.analysis import MetricColumns, Trajectory
from dnsgd.harness import (
    CSV_HEADER,
    TRACKER_DRIFT_TOL,
    _write_metrics_csvs,
    run_experiment,
    set_up,
    sweep_speedup,
)
from dnsgd.hyperparams import FIELDS, HyperParams
from dnsgd.optimizers import run
from dnsgd.problems import FAMILIES, PARAMS, f_base
from dnsgd.streams import derive_stream, fanout_seed
from dnsgd.topology import build_topology

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _quad_cfg(**kw):
    base = dict(
        problem=ProblemConfig(
            family="quadratic", d=3, m=4, zeta=0.5, sigma=0.0, seed=2, curvature=1.0
        ),
        topology=TopologyConfig(kind="ring"),
        algorithm="dnsgd",
        x0=0.6,
        master_seed=11,
        hyperparams=HyperParams(eta=0.03, b=1, big_t=40, k_inner=11, k_init=2, epsilon=0.12),
        num_seeds=2,
        out_dir="out",
    )
    base.update(kw)
    return RunConfig(**base)


def _raw_run_dict():
    return {
        "problem": {
            "family": "quadratic", "d": 3, "m": 4, "zeta": 0.5, "sigma": 0.0,
            "seed": 2, "curvature": 1.0,
        },
        "topology": {"kind": "ring"},
        "algorithm": "dnsgd",
        "x0": 0.6,
        "master_seed": 11,
        "auto": {"epsilon": 0.12},
    }


def test_csv_header_golden():
    assert CSV_HEADER == (
        "run_id,seed_index,t,f_mean,grad_norm_mean,grad_norm_agent_max,"
        "cons_x,cons_v,phi,samples_per_agent,comm_rounds"
    )


def test_run_outputs_layout(tmp_path):
    cfg = _quad_cfg()
    result = run_experiment(cfg, out_dir=tmp_path)
    assert (tmp_path / "metrics_seed000.csv").exists()
    assert (tmp_path / "metrics_seed001.csv").exists()
    assert (tmp_path / "checks.csv").exists()
    assert (tmp_path / "config_echo.json").exists()
    assert (tmp_path / "summary.txt").exists()
    text = (tmp_path / "metrics_seed000.csv").read_text()
    assert text.startswith(CSV_HEADER + "\n")
    # header plus big_t + 1 recorded states
    assert len(text.strip().splitlines()) == 1 + 41
    first = text.splitlines()[1].split(",")
    assert first[0] == "dnsgd-quadratic-m4-s11"
    assert first[1] == "0" and first[2] == "0"
    assert result.all_checks_passed
    names = {c.name for c in result.checks}
    assert "tracker_identity" in names
    assert "consensus_bound" in names


def test_run_without_out_dir_stays_in_memory(tmp_path, monkeypatch):
    # cfg.out_dir is "out", the command line's default; run_experiment does not read it
    monkeypatch.chdir(tmp_path)
    result = run_experiment(_quad_cfg())
    assert result.out_dir is None
    assert list(tmp_path.iterdir()) == []


def test_rerun_is_byte_identical(tmp_path):
    cfg = _quad_cfg()
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("metrics_seed000.csv", "metrics_seed001.csv", "checks.csv",
                 "config_echo.json", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("algorithm", ["dnsgd", "dsgd"])
def test_outputs_do_not_depend_on_the_metrics_block_size(tmp_path, monkeypatch, algorithm):
    # a noisy 3-seed run at one state per block, at 7 states per block (not a
    # divisor of its 41 states) and at the default: the same columns, the same bytes
    cfg = _quad_cfg(
        algorithm=algorithm, num_seeds=3,
        problem=ProblemConfig(family="exp_pair", d=3, m=4, zeta=0.2, sigma=0.5, seed=5, rate=1.0),
    )
    per_state = cfg.num_seeds * cfg.problem.m * cfg.problem.d
    runs = {}
    for floats in (per_state, 7 * per_state + 5, optimizers.METRICS_BLOCK_FLOATS):
        monkeypatch.setattr(optimizers, "METRICS_BLOCK_FLOATS", floats)
        out = tmp_path / str(floats)
        result = run_experiment(cfg, out_dir=out)
        runs[floats] = (result.trajectory, {f.name: f.read_bytes() for f in out.iterdir()})
    (traj, files), *others = runs.values()
    assert len(files) == 6  # three metrics CSVs, checks, echo and summary
    for other, other_files in others:
        assert other_files == files
        for name in traj._fields:
            got, expected = getattr(other, name), getattr(traj, name)
            if name == "metrics":
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            else:
                assert np.array_equal(got, expected), name


def test_metrics_csvs_stream_a_chunk_at_a_time(tmp_path):
    # the text of a 20,000-state metrics CSV is never held whole
    rng = np.random.default_rng(4)
    n = 20_000
    cols = MetricColumns(*(rng.uniform(0.0, 2.0, (1, n)) for _ in MetricColumns._fields))
    traj = Trajectory(
        metrics=cols, samples_per_agent=np.arange(1, n + 1), comm_rounds=3 * np.arange(n),
        tracker_drifts=np.zeros((1, n)), output_indices=np.zeros((1, 4), dtype=np.int64),
        output_grad_norms=np.zeros((1, 4)), box_exits=np.zeros(1, dtype=np.int64),
    )
    tracemalloc.start()
    try:
        _write_metrics_csvs(tmp_path, "run", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "metrics_seed000.csv").stat().st_size
    assert size > 2_500_000
    assert peak < size / 4, (peak, size)
    lines = (tmp_path / "metrics_seed000.csv").read_text().splitlines()
    assert len(lines) == n + 1 and lines[-1].startswith(f"run,0,{n - 1},")


def test_degenerate_horizon_csv(tmp_path):
    cfg = _quad_cfg(
        hyperparams=HyperParams(eta=0.03, b=1, big_t=0, k_inner=1, k_init=1, epsilon=0.1),
        num_seeds=1,
    )
    run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "metrics_seed000.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_config_echo_resolved_block(tmp_path):
    cfg = _quad_cfg(hyperparams=None, auto=AutoHyperConfig(epsilon=0.12))
    result = run_experiment(cfg, out_dir=tmp_path)
    echo = json.loads((tmp_path / "config_echo.json").read_text())
    resolved = echo["resolved"]
    assert resolved["eta"] == result.hp.eta
    assert resolved["b"] == result.hp.b
    assert resolved["k_inner"] == result.hp.k_inner
    assert echo["config"]["algorithm"] == "dnsgd"
    assert len(resolved["seeds"]) == cfg.num_seeds


@pytest.mark.parametrize("algorithm", optimizers.ALGORITHMS)
def test_config_echo_gives_rho_to_accelerated_mixes_only(tmp_path, algorithm):
    # dsgd, dsgt and dnasa mix by plain W rounds, so no contraction describes them
    result = run_experiment(_quad_cfg(algorithm=algorithm), out_dir=tmp_path)
    resolved = json.loads((tmp_path / "config_echo.json").read_text())["resolved"]
    if optimizers.METHODS[algorithm].accelerated:
        assert resolved["rho"] == gossip.contraction(result.mixing, result.hp.k_inner)
    else:
        assert "rho" not in resolved
    assert sorted(resolved.keys() - {"rho"}) == [
        "b", "big_t", "epsilon", "eta", "gamma", "k_init", "k_inner", "lambda2", "seeds",
    ]


def test_auto_delta_f_defaults_to_initial_gap():
    cfg = _quad_cfg(hyperparams=None, auto=AutoHyperConfig(epsilon=0.12))
    p, _, x0, hp, theory = set_up(cfg)
    assert theory is not None and hp is theory.hp
    assert theory.delta_phi == pytest.approx(
        2.0 * (f_base(p, x0) - p.f_star), rel=1e-12
    )


def test_explicit_hyperparams_pass_through():
    cfg = _quad_cfg()
    p, mixing, x0, hp, theory = set_up(cfg)
    assert hp is cfg.hyperparams
    assert theory is None
    # the rest of the set-up is the config's problem, mixing matrix and start point
    assert (p.family, p.d, p.m) == ("quadratic", 3, 4)
    assert (mixing.graph.kind, mixing.w.shape) == ("ring", (4, 4))
    assert x0.tolist() == [0.6, 0.6, 0.6]


def test_parse_run_config_roundtrip():
    cfg = parse_run_config(_raw_run_dict())
    assert cfg.problem.family == "quadratic"
    assert cfg.auto.epsilon == 0.12
    assert cfg.hyperparams is None
    assert cfg.num_seeds == 1


def test_parse_errors_carry_field_paths():
    raw = _raw_run_dict()
    del raw["problem"]["d"]
    with pytest.raises(ConfigError) as exc:
        parse_run_config(raw)
    assert exc.value.field == "problem.d"

    raw = _raw_run_dict()
    raw["problem"]["unknown_knob"] = 1
    with pytest.raises(ConfigError, match="unknown field"):
        parse_run_config(raw)

    raw = _raw_run_dict()
    del raw["auto"]
    with pytest.raises(ConfigError, match="either hyperparams or auto"):
        parse_run_config(raw)

    raw = _raw_run_dict()
    raw["hyperparams"] = {
        "eta": 0.1, "b": 1, "big_t": 5, "k_inner": 1, "k_init": 1, "epsilon": 0.1
    }
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_run_config(raw)

    raw = _raw_run_dict()
    raw["topology"] = {"kind": "erdos_renyi"}
    with pytest.raises(ConfigError) as exc:
        parse_run_config(raw)
    assert exc.value.field == "topology.p"

    raw = _raw_run_dict()
    raw["problem"]["d"] = True
    with pytest.raises(ConfigError):
        parse_run_config(raw)

    # JSON's NaN and Infinity are not accepted as numbers
    raw = _raw_run_dict()
    raw["problem"]["sigma"] = float("inf")
    with pytest.raises(ConfigError) as exc:
        parse_run_config(raw)
    assert exc.value.field == "problem.sigma"
    raw = _raw_run_dict()
    raw["x0"] = float("nan")
    with pytest.raises(ConfigError) as exc:
        parse_run_config(raw)
    assert exc.value.field == "x0"

    # a parameter of another family is rejected, not ignored
    raw = _raw_run_dict()
    raw["problem"]["rate"] = 1.0
    with pytest.raises(ConfigError) as exc:
        parse_run_config(raw)
    assert exc.value.field == "problem.rate"

    # a family parameter is held to the rule that make_problem applies
    raw = _raw_run_dict()
    del raw["problem"]["curvature"]
    raw["problem"].update(family="poly_even", power=5, scale=1.0)
    with pytest.raises(ConfigError, match="even integer") as exc:
        parse_run_config(raw)
    assert exc.value.field == "problem.power"

    # streams use seeds modulo 2**64, so every seed field is bounded to [0, 2**64)
    for block in ("problem", "topology"):
        raw = _raw_run_dict()
        raw[block]["seed"] = 2**64
        with pytest.raises(ConfigError) as exc:
            parse_run_config(raw)
        assert exc.value.field == f"{block}.seed"


def test_family_parameters_are_the_optional_problem_fields():
    # ProblemConfig lists the family parameters by hand, so that config echoes
    # keep their bytes: each family's are fields, and each such field is some family's
    optional = {name for name, value in ProblemConfig._field_defaults.items() if value is None}
    for family in FAMILIES.values():
        assert set(family.params) <= set(ProblemConfig._fields)
    assert optional == {name for family in FAMILIES.values() for name in family.params}
    # PARAMS holds a rule for every numeric problem field, the family parameters among them
    assert optional < set(PARAMS) <= set(ProblemConfig._fields)


# A value that keeps its rule, for each numeric field with one.
VALID = {
    "d": 2, "m": 2, "zeta": 0.5, "sigma": 0.5, "box_radius": 2.0,
    "rate": 1.0, "power": 4, "scale": 1.0, "curvature": 1.0,
    "eta": 0.1, "b": 1, "big_t": 5, "k_inner": 1, "k_init": 1, "epsilon": 0.1,
}

# Every rule of the tables, each with values that break it: NaN, inf and -1.
RULE_CASES = [
    pytest.param(block, name, bad, id=f"{block}.{name}={bad}")
    for block, names in (("problem", PARAMS), ("hyperparams", FIELDS), ("topology", ("p",)))
    for name in names
    for bad in (math.nan, math.inf, -1)
]


@pytest.mark.parametrize("block, name, bad", RULE_CASES)
def test_each_rule_holds_at_parse_and_at_construction(block, name, bad):
    # config parsing and the record's constructor apply one rule: both reject the value
    raw = _raw_run_dict()
    if block == "problem":
        family = next((f for f, spec in FAMILIES.items() if name in spec.params), "quadratic")
        names = ("d", "m", "zeta", "sigma", "box_radius", *FAMILIES[family].params)
        fields = {**{key: VALID[key] for key in names}, name: bad}
        raw["problem"] = {"family": family, "seed": 0, **fields}

        def construct():
            problems.make_problem(family, seed=0, **fields)
    elif block == "hyperparams":
        del raw["auto"]
        raw["hyperparams"] = {**{key: VALID[key] for key in FIELDS}, name: bad}

        def construct():
            HyperParams(**raw["hyperparams"])
    else:
        raw["topology"] = {"kind": "erdos_renyi", "p": bad}

        def construct():
            build_topology("erdos_renyi", 4, p=bad)
    with pytest.raises(ConfigError) as exc:
        parse_run_config(raw)
    assert exc.value.field == f"{block}.{name}"
    with pytest.raises(ValueError, match=f"^{name} must be "):
        construct()


@pytest.mark.parametrize(
    "path", sorted(CONFIGS.glob("run_*.json")) + sorted(CONFIGS.glob("sweep_*.json")),
    ids=lambda path: path.name,
)
def test_shipped_configs_parse(path):
    raw = load_json(path)
    if path.name.startswith("run_"):
        cfg = parse_run_config(raw)
        assert cfg.algorithm == raw["algorithm"]
        assert cfg.problem.family == raw["problem"]["family"]
        assert (cfg.master_seed, cfg.num_seeds) == (raw["master_seed"], raw["num_seeds"])
        assert cfg.auto.epsilon == raw["auto"]["epsilon"]
    else:
        cfg = parse_sweep_config(raw)
        assert cfg.m_list == tuple(raw["m_list"])
        assert cfg.target_epsilon == raw["target_epsilon"]
        assert cfg.run.algorithm == raw["algorithm"]
        assert cfg.run.problem.family == raw["problem"]["family"]
        assert (cfg.run.master_seed, cfg.run.num_seeds) == (raw["master_seed"], raw["num_seeds"])
        assert cfg.run.auto.epsilon == raw["auto"]["epsilon"]


def test_sweep_config_is_a_run_config_plus_its_m_axis():
    raw = load_json(CONFIGS / "sweep_speedup.json")
    cfg = parse_sweep_config(raw)
    run = {key: v for key, v in raw.items() if key not in ("m_list", "target_epsilon")}
    assert cfg.run == parse_run_config(run)
    # algorithm defaults to dnsgd; m_list and target_epsilon have defaults too
    del raw["algorithm"], raw["m_list"], raw["target_epsilon"]
    cfg = parse_sweep_config(raw)
    assert (cfg.run.algorithm, cfg.m_list, cfg.target_epsilon) == ("dnsgd", (2, 4, 8, 16), 0.3)


def test_retired_snapshot_key_parses_only_as_zero():
    # state snapshots were removed; 0 asked for none, so older configs keep parsing
    run = {**_raw_run_dict(), "snapshot_every": 0}
    assert parse_run_config(run) == parse_run_config(_raw_run_dict())
    sweep = {**load_json(CONFIGS / "sweep_speedup.json"), "snapshot_every": 0}
    assert parse_sweep_config(sweep) == parse_sweep_config(load_json(CONFIGS / "sweep_speedup.json"))
    for value in (3, -1, True, 0.0, "0", None):
        for parse, raw in ((parse_run_config, run), (parse_sweep_config, sweep)):
            with pytest.raises(ConfigError, match="state snapshots were removed") as exc:
                parse({**raw, "snapshot_every": value})
            assert exc.value.field == "snapshot_every"


_DROP = object()


def test_sweep_parse_errors_carry_field_paths():
    hyperparams = {"eta": 0.1, "b": 1, "big_t": 5, "k_inner": 1, "k_init": 1, "epsilon": 0.1}
    for changes, field in [
        ({"auto": _DROP}, "auto"),
        ({"hyperparams": hyperparams}, "hyperparams"),
        ({"m_list": []}, "m_list"),
        ({"m_list": 4}, "m_list"),
        ({"m_list": [2, 0]}, "m_list[1]"),
        ({"m_list": [2, True]}, "m_list[1]"),
        ({"target_epsilon": 0}, "target_epsilon"),
        ({"algorithm": "adam"}, "algorithm"),
        ({"master_seed": 2**64}, "master_seed"),
        ({"m_lists": [2, 4]}, "m_lists"),
    ]:
        raw = load_json(CONFIGS / "sweep_speedup.json")
        raw.update(changes)
        raw = {key: value for key, value in raw.items() if value is not _DROP}
        with pytest.raises(ConfigError) as exc:
            parse_sweep_config(raw)
        assert exc.value.field == field, changes
        if field in ("hyperparams", "m_lists"):
            assert str(exc.value) == f"{field}: unknown field"
    # an m_list entry is held to the rule of problem.m
    raw = {**load_json(CONFIGS / "sweep_speedup.json"), "m_list": [2, 0]}
    with pytest.raises(ConfigError, match=r"^m_list\[1\]: must be an integer >= 1, got 0$"):
        parse_sweep_config(raw)


def test_resolve_x0_length_mismatch():
    assert resolve_x0(0.5, 3).tolist() == [0.5, 0.5, 0.5]
    assert resolve_x0((1.0, 2.0), 2).tolist() == [1.0, 2.0]
    with pytest.raises(ConfigError, match="x0"):
        resolve_x0((1.0, 2.0), 3)


def test_box_exits_reported(tmp_path):
    cfg = _quad_cfg(
        problem=ProblemConfig(
            family="quadratic", d=3, m=4, zeta=0.0, sigma=0.0, seed=2,
            curvature=1.0, box_radius=0.5,
        ),
        hyperparams=HyperParams(eta=0.3, b=1, big_t=3, k_inner=3, k_init=1, epsilon=0.1),
        num_seeds=1,
    )
    result = run_experiment(cfg, out_dir=tmp_path)
    assert result.trajectory.box_exits.shape == (1,) and result.trajectory.box_exits[0] >= 1
    assert "box exits" in (tmp_path / "summary.txt").read_text()


def _quad_sweep(x0, auto, m_list, target_epsilon, num_seeds):
    run = _quad_cfg(
        problem=ProblemConfig(
            family="quadratic", d=3, m=2, zeta=0.5, sigma=0.0, seed=2, curvature=1.0
        ),
        x0=x0, hyperparams=None, auto=auto, num_seeds=num_seeds,
    )
    return SweepConfig(run=run, m_list=m_list, target_epsilon=target_epsilon)


def test_sweep_outputs_and_determinism(tmp_path):
    cfg = _quad_sweep(1.0, AutoHyperConfig(epsilon=0.3, t_cap=200), (4, 4, 8), 0.3, 2)
    result = sweep_speedup(cfg, out_dir=tmp_path)
    text = (tmp_path / "speedup.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "m,seeds_reached,num_seeds,mean_samples_per_agent,mean_comm_rounds"
    assert len(lines) == 4
    # noiseless runs make duplicate m entries literally identical
    assert lines[1] == lines[2]
    assert result.points[0].seeds_reached == 2
    assert result.points[0].mean_samples_per_agent == result.points[1].mean_samples_per_agent


def test_sweep_seeds_follow_the_m_index():
    # the m at index i runs the fanned-out seeds i * num_seeds onward; the
    # runs are noiseless, so each seed shows in its output draw
    cfg = _quad_sweep(1.0, AutoHyperConfig(epsilon=0.3, t_cap=50), (4, 4), 0.3, 2)
    result = sweep_speedup(cfg)
    for i, pt in enumerate(result.points):
        p = build_problem(cfg.run.problem._replace(m=pt.m))
        mixing = build_mixing(cfg.run.topology, pt.m)
        for j, draws in enumerate(pt.run.trajectory.output_indices):
            seed = fanout_seed(cfg.run.master_seed, 2 * i + j)
            assert pt.run.seeds[j] == seed
            expected = run("dnsgd", p, pt.run.hp, mixing, np.full(3, 1.0), [seed])
            assert np.array_equal(draws, expected.output_indices[0]), (i, j)


def test_problem_construction_samples_no_pairs(monkeypatch, tmp_path):
    # the constants are proved, so no run or sweep draws a smoothness sample
    # or reads the smoothness stream
    def refuse(*args, **kwargs):
        raise AssertionError("a smoothness sample was drawn")

    def streams(master_seed, purpose, index=0):
        if purpose == "smoothness":
            refuse()
        return derive_stream(master_seed, purpose, index)

    monkeypatch.setattr(problems, "_sample_pairs", refuse)
    monkeypatch.setattr(problems, "derive_stream", streams)
    runs = sorted(CONFIGS.glob("run_*.json"))
    assert [path.name for path in runs] == ["run_exp_pair.json", "run_quadratic_descent.json"]
    for path in runs:
        assert cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / path.stem)]) == 0
    sweep = CONFIGS / "sweep_speedup.json"
    assert cli_main(["sweep", "--config", str(sweep), "--out-dir", str(tmp_path / "sweep")]) == 0


def test_sweep_cells_pass_their_checks():
    # a sweep cell is a run, so each point carries the run's built-in checks
    cfg = parse_sweep_config(load_json(CONFIGS / "sweep_speedup.json"))
    result = sweep_speedup(cfg)
    for pt in result.points:
        names = [c.name for c in pt.run.checks]
        assert names[:2] == ["tracker_identity", "consensus_bound"], (pt.m, names)
        assert pt.run.all_checks_passed, (pt.m, pt.run.checks)
        assert pt.run.problem.m == pt.m and pt.run.trajectory.num_seeds == cfg.run.num_seeds


def test_sweep_unreachable_target_yields_nan_row(tmp_path):
    cfg = _quad_sweep(4.0, AutoHyperConfig(epsilon=0.3, t_cap=2), (4,), 1e-9, 1)
    result = sweep_speedup(cfg, out_dir=tmp_path)
    assert result.points[0].seeds_reached == 0
    assert np.isnan(result.points[0].mean_samples_per_agent)
    row = (tmp_path / "speedup.csv").read_text().strip().splitlines()[1]
    assert row.split(",")[3] == "nan"


def test_long_ring_m256_run_keeps_tracker_identity():
    # the m = 256 ring run of the benchmark, stretched to 300 iterations: each
    # of its 601 spectral gossip calls moves the column means by rounding only
    cfg = parse_run_config({
        "problem": {"family": "exp_pair", "d": 10, "m": 256, "zeta": 0.2, "sigma": 0.1,
                    "seed": 1, "rate": 1.0},
        "topology": {"kind": "ring"}, "algorithm": "dnsgd", "x0": 1.5, "master_seed": 1,
        "auto": {"epsilon": 0.2, "t_cap": 300}, "num_seeds": 1,
    })
    res = run_experiment(cfg)
    assert (res.hp.big_t, res.hp.k_inner) == (300, 1107)
    assert res.trajectory.tracker_drifts.max() <= TRACKER_DRIFT_TOL


# The criterion-3 problem and ring (exp_pair, m = 8).
CRIT3 = {
    "problem": {"family": "exp_pair", "d": 10, "m": 8, "zeta": 0.2, "sigma": 0.1,
                "seed": 1, "rate": 1.0},
    "topology": {"kind": "ring"}, "algorithm": "dnsgd", "x0": 1.5, "master_seed": 2024,
}


@pytest.mark.parametrize("k", [300, 1000, 2000])
def test_consensus_bound_passes_deep_runs(k):
    # at these depths p_k reads 1e-60 and less, and cons_x is rounding (7.4e-15);
    # the bound credits a mix with gossip.RHO_FLOOR at most
    cfg = parse_run_config({**CRIT3, "num_seeds": 2, "hyperparams": {
        "eta": 0.05, "b": 16, "big_t": 50, "k_inner": k, "k_init": k, "epsilon": 0.2,
    }})
    res = run_experiment(cfg)
    check = next(c for c in res.checks if c.name == "consensus_bound")
    assert check.passed, check
    assert check.threshold == pytest.approx(gossip.RHO_FLOOR * 8 * 0.05, rel=1e-9)


def test_consensus_bound_catches_a_shallow_mix(monkeypatch):
    # a run that mixes at a quarter of the depths it reports: its consensus
    # error is bounded by the contraction of the depth it claims, and exceeds it
    def shallow(mix, *ks):
        return gossip._acc_mixers(mix, *(k // 4 for k in ks))

    monkeypatch.setattr(optimizers, "_acc_mixers", shallow)
    cfg = parse_run_config({**CRIT3, "num_seeds": 10, "auto": {"epsilon": 0.2, "t_cap": 50_000}})
    res = run_experiment(cfg)
    check = next(c for c in res.checks if c.name == "consensus_bound")
    assert not check.passed
    assert check.observed > 10.0 * check.threshold


def _count_decompositions(monkeypatch) -> collections.Counter:
    """Count the calls of LAPACK's eigh and eigvalsh from here on."""
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _route_config(kind, algorithm, m):
    return parse_run_config({
        "problem": {"family": "exp_pair", "d": 10, "m": m, "zeta": 0.2, "sigma": 0.1,
                    "seed": 1, "rate": 1.0},
        "topology": {"kind": kind, **({"p": 0.5} if kind == "erdos_renyi" else {})},
        "algorithm": algorithm, "x0": 1.5, "master_seed": 1,
        "auto": {"epsilon": 0.2, "t_cap": 3}, "num_seeds": 1,
    })


@pytest.mark.parametrize(
    "kind,algorithm", [("ring", "dnsgd"), ("ring", "dsgd"), ("path", "dnsgd"), ("path", "dsgd")]
)
def test_long_rings_and_paths_take_no_eigendecomposition(monkeypatch, kind, algorithm):
    """A ring or path run of three agents or more calls neither eigh nor
    eigvalsh, at any m; from gossip.CLOSED_FORM_MIN_M agents it builds neither
    W nor the adjacency."""
    calls = _count_decompositions(monkeypatch)
    for m in (3, 8, gossip.CLOSED_FORM_MIN_M - 1, gossip.CLOSED_FORM_MIN_M):
        res = run_experiment(_route_config(kind, algorithm, m))
        assert res.all_checks_passed, m
        assert res.mixing.closed_form and not calls, (m, calls)
        if m >= gossip.CLOSED_FORM_MIN_M:
            assert "w" not in vars(res.mixing) and "adjacency" not in vars(res.mixing.graph)


@pytest.mark.parametrize("algorithm", ["dnsgd", "dsgd"])
@pytest.mark.parametrize("kind,m", [("complete", 8), ("erdos_renyi", 8), ("ring", 2), ("path", 2)])
def test_other_graphs_take_one_eigh(monkeypatch, kind, m, algorithm):
    """Any other graph's run, set-up included, makes one eigh and no eigvalsh."""
    calls = _count_decompositions(monkeypatch)
    res = run_experiment(_route_config(kind, algorithm, m))
    assert res.all_checks_passed
    assert not res.mixing.closed_form and calls == {"eigh": 1}
