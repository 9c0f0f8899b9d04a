"""Command line interface: exit codes, report text, reproducible outputs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dnsgd
from dnsgd import harness, hyperparams
from dnsgd.cli import main
from dnsgd.optimizers import NonFiniteStateError
from dnsgd.problems import EXP_ARG_MAX

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        "auto": {"epsilon": 0.12},
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
    assert "k_inner = 6\n" in out
    assert "guard: PASS" in out
    assert "condition noise_floor: PASS" in out


EXP_PAIR_CONFIG = CONFIGS / "run_exp_pair.json"


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
    # the calculator's constants and its one depth rule are fixed; their old
    # auto keys are unknown fields
    for key, value in (
        ("c_k", 2.0), ("c_k_hat", 1.0), ("rho_max", 0.5), ("delta_f", 1.0), ("k_mode", "guard"),
    ):
        cfg = _auto_quadratic(tmp_path, auto={"epsilon": 0.12, key: value})
        assert main(["params", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: auto.{key}: unknown field\n"


def test_auto_run_without_a_passing_depth_exits_two(tmp_path, capsys, monkeypatch):
    # the ring at m = 4 needs depth 6 to pass rho_guard; below it no depth does
    monkeypatch.setattr(hyperparams, "K_MAX", 5)
    sweep = json.loads(Path(_auto_quadratic(tmp_path)).read_text())
    sweep.update(m_list=[4], target_epsilon=0.5)
    for argv in (
        ["run", "--config", _auto_quadratic(tmp_path)],
        ["sweep", "--config", _write(tmp_path / "sweep.json", sweep)],
        ["params", "--config", _auto_quadratic(tmp_path)],
    ):
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == 2, argv
        assert capsys.readouterr() == ("", (
            "error: no gossip depth up to 5 passes rho_guard; give hyperparams instead of auto\n"
        )), argv
        assert not out_dir.exists(), argv


def test_k_init_target_below_the_contraction_floor_exits_two(tmp_path, capsys):
    # so close to the minimizer the init mix must contract by 9.8e-15, below
    # gossip.RHO_FLOOR, which no depth is credited with
    for command in ("params", "run"):
        out_dir = tmp_path / "out"
        argv = [command, "--config", _auto_quadratic(tmp_path, x0=1e-8), "--out-dir", str(out_dir)]
        assert main(argv) == 2, command
        assert capsys.readouterr() == ("", (
            "error: no gossip depth up to 65536 passes the k_init target rho <= 9.79e-15; "
            "give hyperparams instead of auto\n"
        )), command
        assert not out_dir.exists(), command


def test_params_ring_m512_passes_the_guard(tmp_path, capsys):
    # the formula's depth on this ring, 2491, binds; the guard's is 1292
    cfg = json.loads(EXP_PAIR_CONFIG.read_text())
    cfg["problem"]["m"] = 512
    assert main(["params", "--config", _write(tmp_path / "m512.json", cfg)]) == 0
    out = capsys.readouterr().out
    assert "k_inner = 2491\n" in out
    assert "guard: PASS\n" in out


def test_run_writes_outputs_and_succeeds(tmp_path, capsys):
    cfg = _auto_quadratic(tmp_path, auto={"epsilon": 0.12, "t_cap": 60})
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
    config = CONFIGS / "smoothness_counterexample.json"
    code = main(["check-smoothness", "--config", str(config)])
    assert code == 1
    assert capsys.readouterr().out == (
        "counterexample mode: target=average rate=1 certificate (l0=0, l1=1.4427)\n"
        "trials: 10013  violations: 4814\n"
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


_CLEAN_CLAUSES = (
    "clause symmetry: PASS (violation 0)\n"
    "clause nonnegative: PASS (violation 0)\n"
    "clause sparsity_pattern: PASS (violation 0)\n"
)

# The whole report of validate-topology, byte for byte, with its exit code.
VALIDATE_TOPOLOGY_PINS = {
    "ring8": (["--kind", "ring", "--m", "8"], 0, (
        "topology: ring m=8 edges=8\n" + _CLEAN_CLAUSES +
        "clause doubly_stochastic: PASS (violation 0)\n"
        "clause eigenvalue_range: PASS (violation 0)\n"
        "clause nullspace_dimension: PASS (violation 0)\n"
        "lambda2 = 0.902368927062\n"
        "gamma = 0.0976310729378\n"
        "overall: PASS\n"
    )),
    "path5": (["--kind", "path", "--m", "5"], 0, (
        "topology: path m=5 edges=4\n" + _CLEAN_CLAUSES +
        "clause doubly_stochastic: PASS (violation 0)\n"
        "clause eigenvalue_range: PASS (violation 0)\n"
        "clause nullspace_dimension: PASS (violation 0)\n"
        "lambda2 = 0.936338998125\n"
        "gamma = 0.063661001875\n"
        "overall: PASS\n"
    )),
    "complete6": (["--kind", "complete", "--m", "6"], 0, (
        "topology: complete m=6 edges=15\n" + _CLEAN_CLAUSES +
        "clause doubly_stochastic: PASS (violation 2.22e-16)\n"
        "clause eigenvalue_range: PASS (violation 4.44e-16)\n"
        "clause nullspace_dimension: PASS (violation 0)\n"
        "lambda2 = 0.5\n"
        "gamma = 0.5\n"
        "overall: PASS\n"
    )),
    "ring1": (["--kind", "ring", "--m", "1"], 0, (
        "topology: ring m=1 edges=0\n" + _CLEAN_CLAUSES +
        "clause doubly_stochastic: PASS (violation 0)\n"
        "clause eigenvalue_range: PASS (violation 0)\n"
        "clause nullspace_dimension: PASS (violation 0)\n"
        "lambda2 = 0\n"
        "gamma = 1\n"
        "overall: PASS\n"
    )),
    # rebaselined from 2.22e-16 when validate_mixing's row and column sums
    # became w.sum (numpy's summing order) instead of w @ ones (BLAS dgemv)
    "er16": (["--kind", "erdos_renyi", "--m", "16", "--p", "0.6", "--seed", "3"], 0, (
        "topology: erdos_renyi m=16 edges=78\n" + _CLEAN_CLAUSES +
        "clause doubly_stochastic: PASS (violation 4.44e-16)\n"
        "clause eigenvalue_range: PASS (violation 0)\n"
        "clause nullspace_dimension: PASS (violation 0)\n"
        "lambda2 = 0.7288741401\n"
        "gamma = 0.2711258599\n"
        "overall: PASS\n"
    )),
    "er30_hopeless": (["--kind", "erdos_renyi", "--m", "30", "--p", "1e-6"], 1, (
        "validation FAIL: disconnected topology: no connected Erdos-Renyi(m=30, p=1e-06) "
        "draw within 100 retries (seed 0)\n"
    )),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_TOPOLOGY_PINS))
def test_validate_topology_exact_output(case, capsys):
    argv, code, out = VALIDATE_TOPOLOGY_PINS[case]
    assert main(["validate-topology", *argv]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, "")


def test_usage_errors_exit_two(tmp_path, capsys, monkeypatch):
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

    # a power past the float range is one error line naming the field, not an OverflowError
    huge = {"family": "poly_even", "d": 2, "m": 1, "zeta": 0.0, "sigma": 0.0,
            "power": 10**400, "scale": 1.0}
    assert main(["params", "--config", _auto_quadratic(tmp_path, problem=huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: problem.power: must be an even integer from 4 to 2**53")
    assert err.count("\n") == 1

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

    # an output directory that cannot be made is one error line naming it, and no report
    sweep = json.loads(Path(_auto_quadratic(tmp_path)).read_text())
    sweep.update(m_list=[2], target_epsilon=0.5, auto={"epsilon": 0.5, "t_cap": 3})
    smooth = _write(tmp_path / "smooth.json", {"mode": "counterexample", "trials": 5})
    commands = [
        ["run", "--config", no_auto],
        ["sweep", "--config", _write(tmp_path / "sweep.json", sweep)],
        ["validate-topology", "--kind", "ring", "--m", "4"],
        ["check-smoothness", "--config", smooth],
        ["params", "--config", _auto_quadratic(tmp_path)],
    ]
    taken = tmp_path / "taken"
    taken.write_text("")
    # and it fails before a run or a sweep cell iterates once
    runs, real_run = [], harness.run
    monkeypatch.setattr(harness, "run", lambda *args: runs.append(args) or real_run(*args))
    for argv in commands:
        for out_dir in (taken, taken / "sub"):
            assert main([*argv, "--out-dir", str(out_dir)]) == 2, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert err.startswith(f"error: cannot write {out_dir}: "), (argv, err)
            assert err.count("\n") == 1, (argv, err)
            assert runs == [], argv


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


# main in a fresh interpreter, as the console script and `python -m dnsgd.cli` run it
FROZEN_MAIN = """
import contextlib, gc, io, json, sys
from dnsgd.cli import main
before = gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
print(json.dumps([before, gc.get_freeze_count(), code, out.getvalue()]))
"""


@pytest.mark.parametrize("code", [0, 1, 2])
def test_main_freezes_the_heap_and_reports_as_in_process(tmp_path, capsys, code):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    argv = {
        0: ["validate-topology", "--kind", "ring", "--m", "4"],
        1: ["check-smoothness", "--config", str(CONFIGS / "smoothness_counterexample.json")],
        2: ["run", "--config", str(bad)],
    }[code]
    proc = subprocess.run(
        [sys.executable, "-c", FROZEN_MAIN, *argv],
        capture_output=True, text=True, cwd=str(tmp_path), env=_child_env(), timeout=60,
    )
    before, after, child_code, child_out = json.loads(proc.stdout)
    assert after > before
    assert main(argv) == child_code == code
    assert capsys.readouterr() == (child_out, proc.stderr)


def _gc_uses(tree: ast.Module) -> list[str]:
    """Uses of the gc module in tree.

    Those are its imports, calls through it or through a name imported from it,
    and calls given the module's name, such as __import__("gc").
    """
    modules, imported, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gc":
                    modules.add(alias.asname or "gc")
                    found.append((node.lineno, "import gc"))
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            imported.update(alias.asname or alias.name for alias in node.names)
            found.append((node.lineno, "from gc import ..."))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = ast.unparse(func)
        if (
            (isinstance(func, ast.Attribute) and ast.unparse(func.value) in modules)
            or (isinstance(func, ast.Name) and func.id in imported)
            or any(isinstance(a, ast.Constant) and a.value == "gc" for a in node.args)
        ):
            found.append((node.lineno, f"{name}(...)"))
    return [f"line {line}: {use}" for line, use in sorted(found)]


def test_gc_guard_flags_every_spelling():
    source = """
import gc
import gc as collector
from gc import disable, collect as sweep
import importlib
gc.freeze()
collector.set_threshold(0)
disable()
sweep()
__import__("gc").collect()
importlib.import_module("gc")
def f(gen):
    return gen.collect()
"""
    assert [use.split(": ")[1] for use in _gc_uses(ast.parse(source))] == [
        "import gc", "import gc", "from gc import ...", "gc.freeze(...)",
        "collector.set_threshold(...)", "disable(...)", "sweep(...)", "__import__(...)",
        "importlib.import_module(...)",
    ]


def test_only_the_process_entry_touches_the_collector():
    # cli.main freezes the import-time heap once; no library module changes the collector
    package = Path(dnsgd.__file__).parent
    uses = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _gc_uses(ast.parse(path.read_text(), str(path))))
    }
    assert [use.split(": ")[1] for use in uses.pop("cli.py")] == ["import gc", "gc.freeze(...)"]
    assert uses == {}
    cli = ast.parse((package / "cli.py").read_text())
    main_def = next(n for n in cli.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    # its first statement after the docstring, before the arguments are parsed
    assert ast.unparse(main_def.body[1]) == "gc.freeze()"


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


QUADRATIC_CONFIG = CONFIGS / "run_quadratic_descent.json"

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
    assert not (tmp_path / "out").exists()


def test_failed_command_removes_only_the_directories_it_made(tmp_path, capsys, monkeypatch):
    def diverge(*args):
        raise NonFiniteStateError("diverged")

    monkeypatch.setattr(harness, "run", diverge)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "old.txt").write_text("old")
    sweep = _write(tmp_path / "sweep.json", {
        **json.loads(QUADRATIC_CONFIG.read_text()), "m_list": [2], "target_epsilon": 0.5,
    })
    for argv in (["run", "--config", str(QUADRATIC_CONFIG)], ["sweep", "--config", sweep]):
        for out_dir in (tmp_path / "new" / "a" / "b", kept, kept / "new" / "a"):
            assert main([*argv, "--out-dir", str(out_dir)]) == 1, argv
            assert capsys.readouterr() == ("", "error: diverged\n")
            assert not (tmp_path / "new").exists(), argv
            assert sorted(p.name for p in kept.iterdir()) == ["old.txt"], argv


OVERFLOW_ERROR = "error: gradient norms on the box overflow float64; shrink the box or the rate"


def _run_child(tmp_path, command, cfg):
    """Run the command on cfg in a child interpreter in tmp_path."""
    return subprocess.run(
        [sys.executable, "-m", "dnsgd.cli", command, "--config",
         _write(tmp_path / "config.json", cfg), "--out-dir", "out"],
        capture_output=True, text=True, cwd=str(tmp_path), env=_child_env(), timeout=60,
    )


@pytest.mark.parametrize("command", ["params", "run", "check-smoothness"])
def test_certification_overflow_exits_with_one_error_line(tmp_path, command):
    # ||grad||^2 on the box exceeds float64 for the counterexample's cosh at
    # rate 1 on the box of radius 400. Building a problem samples nothing, so
    # exp_pair at rate 71, whose gradients overflowed on the box of radius 5,
    # now runs
    if command == "check-smoothness":
        proc = _run_child(tmp_path, command, {
            "mode": "counterexample", "rate": 1.0, "box_radius": 400.0,
        })
        assert proc.returncode == 2, proc.stderr
        # no numpy warnings and no traceback: the error line is all of stderr
        assert proc.stderr == OVERFLOW_ERROR + "\n"
        return
    cfg = json.loads(EXP_PAIR_CONFIG.read_text())
    cfg["problem"]["rate"] = 71.0
    cfg.update(x0=0.01, num_seeds=1, auto={"epsilon": 0.2, "t_cap": 20})
    proc = _run_child(tmp_path, command, cfg)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("command", ["params", "run"])
def test_overflowing_smoothness_constant_exits_with_one_error_line(tmp_path, command):
    # poly_even's l0 = 2 scale t^(power - 2) passes float64 near power 1950
    cfg = json.loads(EXP_PAIR_CONFIG.read_text())
    cfg["problem"] = {**cfg["problem"], "family": "poly_even", "power": 4000, "scale": 0.5}
    del cfg["problem"]["rate"]
    proc = _run_child(tmp_path, command, cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: l_f = l0 + l1 zeta must be finite and > 0 for poly_even with "
        "{'power': 4000.0, 'scale': 0.5}, got inf\n"
    )
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command, power", [("params", 5), ("check-smoothness", 7)])
def test_odd_power_is_a_config_error(tmp_path, capsys, command, power):
    # config parsing holds power to the rule make_problem applies, so the error names the field
    problem = {
        "family": "poly_even", "d": 2, "m": 1, "zeta": 0.0, "sigma": 0.0,
        "power": power, "scale": 1.0,
    }
    if command == "params":
        path = _auto_quadratic(tmp_path, problem=problem)
    else:
        path = _write(tmp_path / "spec.json", {"mode": "problem", "problem": problem})
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: problem.power: must be an even integer from 4 to 2**53, got {power}\n"
    )


SWEEP_CONFIG = CONFIGS / "sweep_speedup.json"


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


def test_out_dir_flag_overrides_the_config(tmp_path, capsys):
    # without --out-dir, run and sweep write to the config's out_dir
    from_config, from_flag = tmp_path / "from_config", tmp_path / "from_flag"
    run_cfg = _auto_quadratic(
        tmp_path, out_dir=str(from_config), auto={"epsilon": 0.12, "t_cap": 5}
    )
    assert main(["run", "--config", run_cfg]) == 0
    assert main(["run", "--config", run_cfg, "--out-dir", str(from_flag)]) == 0
    assert sorted(p.name for p in from_flag.iterdir()) == sorted(
        p.name for p in from_config.iterdir()
    )
    for name in ("summary.txt", "metrics_seed000.csv"):
        assert (from_flag / name).read_bytes() == (from_config / name).read_bytes(), name
    sweep = {**json.loads(SWEEP_CONFIG.read_text()), "out_dir": str(tmp_path / "sweep")}
    assert main(["sweep", "--config", _write(tmp_path / "sweep.json", sweep)]) == 0
    assert (tmp_path / "sweep" / "speedup.csv").is_file()


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
    assert list(tmp_path.iterdir()) == []  # without --out-dir the runs stay in memory
    proc = compare("--seeds", "1", "--t-cap", "3", "--out-dir", "out")
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "dnasa", "dnsgd", "dsgd", "dsgt"
    ]
    # the script's options are validated as a run config: bad usage exits 2, without a traceback
    for args, error in [
        (["--seeds", "0"], "num_seeds: must be >= 1, got 0"),
        (["--seed", "-5"], "master_seed: must be >= 0, got -5"),
    ]:
        proc = compare(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"config error: {error}\n"
        assert proc.stdout == ""
