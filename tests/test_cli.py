"""Command line interface: exit codes, report text, reproducible outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dnsgd
from dnsgd import harness
from dnsgd.cli import main
from dnsgd.problems import EXP_ARG_MAX


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _auto_quadratic(tmp_path, **extra):
    cfg = {
        "problem": {
            "family": "quadratic", "d": 5, "m": 4, "zeta": 0.5, "sigma": 0.0,
            "seed": 3, "curvature": 1.0,
        },
        "topology": {"kind": "ring"},
        "algorithm": "dnsgd",
        "x0": 0.6,
        "master_seed": 7,
        "auto": {"epsilon": 0.12, "k_mode": "guard"},
    }
    cfg.update(extra)
    return _write(tmp_path / "run.json", cfg)


def _noisy_run(tmp_path):
    return _write(tmp_path / "noisy.json", {
        "problem": {
            "family": "exp_pair", "d": 4, "m": 4, "zeta": 0.2, "sigma": 0.5,
            "seed": 5, "rate": 1.0,
        },
        "topology": {"kind": "ring"},
        "algorithm": "dnsgd",
        "x0": 0.8,
        "master_seed": 7,
        "hyperparams": {
            "eta": 0.02, "b": 2, "big_t": 8, "k_inner": 3, "k_init": 1,
            "epsilon": 0.1,
        },
    })


def test_params_reports_calculator_output(tmp_path, capsys):
    code = main(["params", "--config", _auto_quadratic(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "eta = 0.024" in out
    assert "big_t = 5000 (uncapped 5000)" in out
    assert "k_inner = 29" in out
    assert "guard: PASS" in out
    assert "condition noise_floor: PASS" in out


EXP_PAIR_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "run_exp_pair.json"


@pytest.mark.parametrize("algorithm", ["dnsgd", "dsgd", "dsgt", "dnasa"])
def test_params_cost_matches_last_run_row(tmp_path, capsys, algorithm):
    # params prints the totals of the same cost rule that fills run's counter columns
    cfg = json.loads(EXP_PAIR_CONFIG.read_text())
    cfg.update(algorithm=algorithm, num_seeds=1)
    cfg["auto"]["t_cap"] = 50
    path = _write(tmp_path / "run.json", cfg)
    assert main(["params", "--config", path]) == 0
    report = dict(
        line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line
    )
    assert main(["run", "--config", path, "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    header, *_, last = (tmp_path / "out" / "metrics_seed000.csv").read_text().splitlines()
    row = dict(zip(header.split(","), last.split(",")))
    assert row["t"] == report["big_t"].split()[0] == "50"
    assert report["samples per agent"] == row["samples_per_agent"]
    assert report["comm rounds"] == row["comm_rounds"]
    if algorithm == "dsgd":  # one plain W round per iteration
        assert report["comm rounds"] == "50"


def test_removed_calculator_knobs_exit_two(tmp_path, capsys):
    # the calculator's constants are fixed; their old auto keys are unknown fields
    for key, value in (("c_k", 2.0), ("c_k_hat", 1.0), ("rho_max", 0.5), ("delta_f", 1.0)):
        cfg = _auto_quadratic(tmp_path, auto={"epsilon": 0.12, key: value})
        assert main(["params", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: auto.{key}: unknown field\n"


def test_run_writes_outputs_and_succeeds(tmp_path, capsys):
    cfg = _auto_quadratic(tmp_path, auto={"epsilon": 0.12, "k_mode": "guard", "t_cap": 60})
    code = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "out" / "metrics_seed000.csv").exists()
    assert "check descent_deterministic: PASS" in out
    assert "check consensus_bound: PASS" in out


def test_run_rerun_is_byte_identical(tmp_path):
    cfg = _noisy_run(tmp_path)
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out-dir", str(tmp_path / "b")])
    a = (tmp_path / "a" / "metrics_seed000.csv").read_bytes()
    b = (tmp_path / "b" / "metrics_seed000.csv").read_bytes()
    assert a == b


def test_run_seed_override_changes_noise(tmp_path):
    cfg = _noisy_run(tmp_path)
    main(["run", "--config", cfg, "--seed", "1", "--out-dir", str(tmp_path / "s1")])
    main(["run", "--config", cfg, "--seed", "2", "--out-dir", str(tmp_path / "s2")])
    a = (tmp_path / "s1" / "metrics_seed000.csv").read_text()
    b = (tmp_path / "s2" / "metrics_seed000.csv").read_text()
    assert a != b
    # the run id embeds the overridden master seed
    assert a.splitlines()[1].startswith("dnsgd-exp_pair-m4-s1,")


def test_check_smoothness_average_counterexample(tmp_path, capsys):
    spec = _write(tmp_path / "cex.json", {
        "mode": "counterexample", "target": "average", "rate": 1.0, "trials": 200,
    })
    code = main(["check-smoothness", "--config", spec])
    out = capsys.readouterr().out
    assert code == 1
    assert "certificate violated" in out
    assert "worst pair" in out


def test_check_smoothness_counterexample_config_report(capsys):
    config = Path(__file__).resolve().parents[1] / "configs" / "smoothness_counterexample.json"
    code = main(["check-smoothness", "--config", str(config)])
    assert code == 1
    assert capsys.readouterr().out == (
        "counterexample mode: target=average rate=1 certificate (l0=0, l1=1.4427)\n"
        "trials: 10013  violations: 4795\n"
        "worst ratio: inf\n"
        "worst pair: x=[0.0] y=[0.6931471805599453] gap=0.75 bound=0\n"
        "implied l0 at this l1: 1.08202\n"
        "result: certificate violated\n"
    )


def test_check_smoothness_single_holds(tmp_path, capsys):
    spec = _write(tmp_path / "single.json", {
        "mode": "counterexample", "target": "single", "rate": 1.0, "trials": 200,
    })
    code = main(["check-smoothness", "--config", spec])
    assert code == 0
    assert "certificate holds" in capsys.readouterr().out


def test_validate_topology_pass(tmp_path, capsys):
    code = main([
        "validate-topology", "--kind", "ring", "--m", "8",
        "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "clause symmetry: PASS" in out
    assert "overall: PASS" in out
    assert (tmp_path / "topology_report.txt").exists()


def test_validate_topology_disconnected_fails(capsys):
    code = main([
        "validate-topology", "--kind", "erdos_renyi", "--m", "30", "--p", "1e-06",
    ])
    assert code == 1
    assert "validation FAIL" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path, capsys):
    for argv in ([], ["frobnicate"], ["run"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    no_auto = _noisy_run(tmp_path)
    assert main(["params", "--config", no_auto]) == 2
    assert "auto" in capsys.readouterr().err

    spec = _write(tmp_path / "mode.json", {"mode": "sideways"})
    assert main(["check-smoothness", "--config", spec]) == 2
    capsys.readouterr()

    # check-smoothness spec fields are validated like run config fields
    problem = {"family": "quadratic", "d": 2, "m": 1, "zeta": 0.0, "sigma": 0.0, "curvature": 1.0}
    for field, bad in [
        ("trials", {"mode": "counterexample", "trials": 7.9}),
        ("trials", {"mode": "counterexample", "trials": 0}),
        ("rate", {"mode": "counterexample", "rate": True}),
        ("rate", {"mode": "counterexample", "rate": -1.0}),
        ("rate", {"mode": "counterexample", "rate": float("nan")}),
        ("rate", {"mode": "counterexample", "rate": 10**400}),
        ("box_radius", {"mode": "counterexample", "box_radius": "2"}),
        ("target", {"mode": "counterexample", "target": "both"}),
        ("trails", {"mode": "counterexample", "trails": 3}),
        ("problem", {"mode": "counterexample", "problem": problem}),
        ("trials", {"mode": "problem", "problem": problem, "trials": "9"}),
        ("rate", {"mode": "problem", "problem": problem, "rate": 1.0}),
        ("problem", {"mode": "problem"}),
        ("mode", {"mode": 1}),
    ]:
        spec = _write(tmp_path / "spec.json", bad)
        assert main(["check-smoothness", "--config", spec]) == 2, bad
        assert field in capsys.readouterr().err, bad

    # --seed is validated like master_seed: streams would alias seeds modulo 2**64
    for seed in ("-1", str(2**64)):
        assert main(["run", "--config", no_auto, "--seed", seed]) == 2
        assert "master_seed" in capsys.readouterr().err
        topo = ["validate-topology", "--kind", "erdos_renyi", "--m", "8", "--p", "0.5"]
        assert main([*topo, "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err
        smooth = _write(tmp_path / "smooth.json", {"mode": "counterexample", "trials": 5})
        assert main(["check-smoothness", "--config", smooth, "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err
        smooth = _write(tmp_path / "smooth.json", {"mode": "counterexample", "seed": int(seed)})
        assert main(["check-smoothness", "--config", smooth]) == 2
        assert "seed" in capsys.readouterr().err


def test_retired_snapshot_key_exits_two(tmp_path, capsys):
    # state snapshots were removed: the key parses only as 0, which asked for none
    for value in (3, -1, True):
        cfg = _auto_quadratic(tmp_path, snapshot_every=value)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: snapshot_every: state snapshots were removed; "
            f"only 0 is accepted, got {value!r}\n"
        )
    assert not (tmp_path / "out").exists()


def _child_env():
    """Environment in which a child interpreter imports the ``dnsgd`` under test.

    The child runs in another directory, where relative ``PYTHONPATH`` entries
    such as ``src`` no longer resolve. So the directory holding the package this
    process imported comes first, followed by the inherited entries made absolute.
    """
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    entries = [str(Path(dnsgd.__file__).resolve().parents[1])]
    entries += [str(Path(p).resolve()) for p in inherited if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dnsgd.cli", "validate-topology", "--kind", "ring", "--m", "4"],
        capture_output=True, text=True, cwd=str(tmp_path), env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout, proc.stderr


DIVERGING_RUNS = {
    # X - eta G overflows before gossip sees it
    "dsgd-quadratic-eta50": (
        {"family": "quadratic", "curvature": 1.0},
        {"eta": 50.0, "big_t": 400},
        "non-finite iterate matrix at iteration 183, agent 0",
    ),
    # the gradient of a huge iterate overflows
    "dsgd-poly_even-eta1e6": (
        {"family": "poly_even", "power": 4, "scale": 1.0},
        {"eta": 1e6, "big_t": 20},
        "non-finite gradient batch at iteration 4, agent 0",
    ),
    # the iterates leave the exponential family's safe range
    "dsgd-exp_pair-eta50": (
        {"family": "exp_pair", "rate": 1.0},
        {"eta": 50.0, "big_t": 400},
        f"argument out of safe range for the exponential family (|rate * x_j| exceeds "
        f"{EXP_ARG_MAX}) at iteration 2, agent 0",
    ),
}


@pytest.mark.parametrize("case", sorted(DIVERGING_RUNS))
def test_diverging_run_exits_one_without_traceback(tmp_path, case):
    family, hyper, message = DIVERGING_RUNS[case]
    cfg = _write(tmp_path / "diverge.json", {
        "problem": {"d": 4, "m": 4, "zeta": 0.5, "sigma": 0.0, "seed": 3, **family},
        "topology": {"kind": "ring"},
        "algorithm": "dsgd",
        "x0": 0.6,
        "master_seed": 7,
        "hyperparams": {"b": 1, "k_inner": 1, "k_init": 1, "epsilon": 0.1, **hyper},
    })
    proc = subprocess.run(
        [sys.executable, "-m", "dnsgd.cli", "run", "--config", cfg, "--out-dir", "out"],
        capture_output=True, text=True, cwd=str(tmp_path), env=_child_env(), timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    # no numpy warnings before it: the error line is all of stderr
    assert proc.stderr.splitlines() == [f"error: {message}"], proc.stderr
    assert "Traceback" not in proc.stderr


QUADRATIC_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "run_quadratic_descent.json"

FAR_STARTS = {
    # the start gossip of the tracker overflows: a divergence, not bad usage
    "explicit": (
        {"hyperparams": {"eta": 0.1, "b": 1, "big_t": 5, "k_inner": 3, "k_init": 1,
                         "epsilon": 0.12}},
        1,
        "error: non-finite tracker matrix at iteration 0, agent 0",
    ),
    # the calculator's initial gap is infinite: its input is rejected
    "auto": ({}, 2, "error: delta_f_estimate must be finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(FAR_STARTS))
def test_far_start_exits_with_one_error_line(tmp_path, case):
    extra, code, message = FAR_STARTS[case]
    cfg = json.loads(QUADRATIC_CONFIG.read_text())
    cfg["x0"] = 1e308
    if "hyperparams" in extra:
        del cfg["auto"]
    cfg.update(extra)
    proc = subprocess.run(
        [sys.executable, "-m", "dnsgd.cli", "run", "--config", _write(tmp_path / "far.json", cfg),
         "--out-dir", "out"],
        capture_output=True, text=True, cwd=str(tmp_path), env=_child_env(), timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    # no numpy warnings and no traceback: the error line is all of stderr
    assert proc.stderr == message + "\n"


EXP_PAIR_CONFIG = QUADRATIC_CONFIG.parent / "run_exp_pair.json"
OVERFLOW_ERROR = "error: gradient norms on the box overflow float64; shrink the box or the rate"


@pytest.mark.parametrize("command", ["params", "run", "check-smoothness"])
def test_certification_overflow_exits_with_one_error_line(tmp_path, command):
    # ||grad||^2 on the box exceeds float64: exp_pair at rate 71 on the box of
    # radius 5, and the counterexample's cosh at rate 1 on the box of radius 400
    if command == "check-smoothness":
        cfg = {"mode": "counterexample", "rate": 1.0, "box_radius": 400.0}
    else:
        cfg = json.loads(EXP_PAIR_CONFIG.read_text())
        cfg["problem"]["rate"] = 71.0
        cfg["x0"] = 0.01
    proc = subprocess.run(
        [sys.executable, "-m", "dnsgd.cli", command, "--config",
         _write(tmp_path / "overflow.json", cfg), "--out-dir", "out"],
        capture_output=True, text=True, cwd=str(tmp_path), env=_child_env(), timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    # no numpy warnings and no traceback: the error line is all of stderr
    assert proc.stderr == OVERFLOW_ERROR + "\n"


@pytest.mark.parametrize("command", ["params", "run"])
def test_start_at_the_minimizer_is_a_config_error(tmp_path, capsys, command):
    # f(x0) = f_star leaves the calculator no objective gap to size the run with
    cfg = json.loads(QUADRATIC_CONFIG.read_text())
    cfg["x0"] = 0.0
    path = _write(tmp_path / "at_min.json", cfg)
    code = main([command, "--config", path, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: x0: f(x0) - f_star = 0 "), err
    assert "give hyperparams instead of auto" in err
    assert err.count("\n") == 1


SWEEP_CONFIG = QUADRATIC_CONFIG.parent / "sweep_speedup.json"


def test_sweep_exits_one_when_a_cell_check_fails(tmp_path, capsys, monkeypatch):
    passing = tmp_path / "pass"
    assert main(["sweep", "--config", str(SWEEP_CONFIG), "--out-dir", str(passing)]) == 0
    assert capsys.readouterr().err == ""
    # every tracked cell now fails its tracker identity check
    monkeypatch.setattr(harness, "TRACKER_DRIFT_TOL", -1.0)
    failing = tmp_path / "fail"
    assert main(["sweep", "--config", str(SWEEP_CONFIG), "--out-dir", str(failing)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        f"m={m}: check tracker_identity: FAIL" for m in (2, 4, 8, 16)
    ]
    assert all(line.endswith(", threshold -1)") for line in lines), lines
    # the report files do not list the checks, so they are the same either way
    for name in ("summary.txt", "speedup.csv"):
        assert (failing / name).read_bytes() == (passing / name).read_bytes(), name


COMPARE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_optimizers.py"


def test_scripts_run(tmp_path):
    def compare(*args):
        return subprocess.run(
            [sys.executable, str(COMPARE_SCRIPT), *args],
            capture_output=True, text=True, cwd=str(tmp_path), env=_child_env(), timeout=120,
        )

    proc = compare("--seeds", "1", "--t-cap", "3")
    assert proc.returncode == 0, proc.stderr
    assert "samples/agent" in proc.stdout.splitlines()[0], proc.stdout
    # the script's options are validated as a run config: bad usage exits 2, without a traceback
    for args, error in [
        (["--seeds", "0"], "num_seeds: must be >= 1, got 0"),
        (["--seed", "-5"], "master_seed: must be >= 0, got -5"),
    ]:
        proc = compare(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"config error: {error}\n"
        assert proc.stdout == ""
