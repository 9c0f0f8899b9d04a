"""Experiment harness: config parsing, file outputs, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from dnsgd import problems
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
from dnsgd.harness import (
    CSV_HEADER,
    TRACKER_DRIFT_TOL,
    resolve_hyperparams,
    run_experiment,
    sweep_speedup,
)
from dnsgd.hyperparams import HyperParams
from dnsgd.optimizers import run
from dnsgd.problems import f_base
from dnsgd.streams import fanout_seed
from dnsgd.topology import build_topology, metropolis_mixing

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


def test_rerun_is_byte_identical(tmp_path):
    cfg = _quad_cfg()
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("metrics_seed000.csv", "metrics_seed001.csv", "checks.csv",
                 "config_echo.json", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_degenerate_horizon_csv(tmp_path):
    cfg = _quad_cfg(
        hyperparams=HyperParams(eta=0.03, b=1, big_t=0, k_inner=1, k_init=1, epsilon=0.1),
        num_seeds=1,
    )
    run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / "metrics_seed000.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_config_echo_resolved_block(tmp_path):
    cfg = _quad_cfg(hyperparams=None, auto=AutoHyperConfig(epsilon=0.12, k_mode="guard"))
    result = run_experiment(cfg, out_dir=tmp_path)
    echo = json.loads((tmp_path / "config_echo.json").read_text())
    resolved = echo["resolved"]
    assert resolved["eta"] == result.hp.eta
    assert resolved["b"] == result.hp.b
    assert resolved["k_inner"] == result.hp.k_inner
    assert echo["config"]["algorithm"] == "dnsgd"
    assert len(resolved["seeds"]) == cfg.num_seeds


def test_auto_delta_f_defaults_to_initial_gap():
    cfg = _quad_cfg(hyperparams=None, auto=AutoHyperConfig(epsilon=0.12))
    p = build_problem(cfg.problem)
    mixing = build_mixing(cfg.topology, p.m)
    x0 = resolve_x0(cfg.x0, p.d)
    _, theory = resolve_hyperparams(cfg, p, mixing, x0)
    assert theory is not None
    assert theory.delta_phi == pytest.approx(
        2.0 * (f_base(p, x0) - p.f_star), rel=1e-12
    )


def test_explicit_hyperparams_pass_through():
    cfg = _quad_cfg()
    mixing = metropolis_mixing(build_topology("ring", 4))
    p = build_problem(cfg.problem)
    hp, theory = resolve_hyperparams(cfg, p, mixing, np.zeros(3))
    assert hp is cfg.hyperparams
    assert theory is None


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

    # streams use seeds modulo 2**64, so every seed field is bounded to [0, 2**64)
    for block in ("problem", "topology"):
        raw = _raw_run_dict()
        raw[block]["seed"] = 2**64
        with pytest.raises(ConfigError) as exc:
            parse_run_config(raw)
        assert exc.value.field == f"{block}.seed"


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
    result = sweep_speedup(cfg, write_outputs=False)
    for i, pt in enumerate(result.points):
        p = build_problem(cfg.run.problem._replace(m=pt.m))
        mixing = build_mixing(cfg.run.topology, pt.m)
        for j, draws in enumerate(pt.run.trajectory.output_indices):
            seed = fanout_seed(cfg.run.master_seed, 2 * i + j)
            assert pt.run.seeds[j] == seed
            expected = run("dnsgd", p, pt.run.hp, mixing, np.full(3, 1.0), [seed])
            assert np.array_equal(draws, expected.output_indices[0]), (i, j)


def test_sweep_certifies_the_stub_once(monkeypatch):
    # every m of the sweep has the same m = 1 stub: one certification serves
    # all four problem builds, and it draws its pairs and evaluates their
    # gradients once for both of its l0 candidates
    calls = []

    def counted(name):
        inner = getattr(problems, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(problems, name, wrapper)

    for name in ("_sample_pairs", "_gradient_gaps", "_violates", "check_relaxed_smooth"):
        counted(name)
    problems._certified_l0.cache_clear()
    cfg = parse_sweep_config(load_json(CONFIGS / "sweep_speedup.json"))
    result = sweep_speedup(cfg, write_outputs=False)
    assert calls == ["_sample_pairs", "_gradient_gaps", "_violates", "_violates"]
    assert [pt.m for pt in result.points] == [2, 4, 8, 16]


def test_sweep_cells_pass_their_checks():
    # a sweep cell is a run, so each point carries the run's built-in checks
    cfg = parse_sweep_config(load_json(CONFIGS / "sweep_speedup.json"))
    result = sweep_speedup(cfg, write_outputs=False)
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
    res = run_experiment(cfg, write_outputs=False)
    assert (res.hp.big_t, res.hp.k_inner) == (300, 1107)
    assert res.trajectory.tracker_drifts.max() <= TRACKER_DRIFT_TOL
