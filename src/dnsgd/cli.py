"""Command line front end.

Subcommands:

    run                multi-seed experiment from a JSON config
    sweep              network-size scaling sweep from a JSON config
    validate-topology  build a mixing matrix and check its contract
    check-smoothness   sample the relaxed smoothness certificate
    params             print the theory-driven hyperparameters for a config

Every subcommand accepts --seed, in [0, 2**64), and --out-dir. For run, sweep
and params, --seed replaces master_seed before the config is validated. Exit codes:
0 success, 1 a check or validation failed or a run diverged to non-finite
values, 2 bad usage or config, or an output that cannot be written. Outputs
are written before the report is printed, so a failed write prints none, and
run and sweep make their output directory before the first iteration, so one
that cannot be made costs no run. A sweep fails when a check of any of its
cells fails, and prints one line per failed check to stderr.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    _as_int,
    _as_str,
    _get,
    _parse_field,
    _reject_unknown,
    build_problem,
    load_json,
    parse_problem,
    parse_run_config,
    parse_seed,
    parse_sweep_config,
)
from .harness import run_experiment, set_up, sweep_speedup
from .optimizers import METHODS, NonFiniteStateError
from .problems import EXP_ARG_MAX, FAMILIES, PARAMS, POSITIVE, check_relaxed_smooth, grad_base
from .topology import (
    KINDS,
    DisconnectedTopologyError,
    build_topology,
    metropolis_mixing,
    validate_mixing,
)


def _emit(lines: list[str], out_dir: str | None, name: str) -> None:
    """Write the report to out_dir/name, if asked, and then print it."""
    text = "\n".join(lines)
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text + "\n")
    print(text)


def _load_config(args: argparse.Namespace, parse):
    """Parse the JSON config with --seed put in first, so the override is validated too."""
    spec = load_json(args.config)
    if args.seed is not None and isinstance(spec, dict):
        spec = {**spec, "master_seed": args.seed}
    return parse(spec)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args, parse_run_config)
    result = run_experiment(cfg, cfg.out_dir if args.out_dir is None else args.out_dir)
    summary_path = result.out_dir / "summary.txt"
    print(summary_path.read_text(), end="")
    return 0 if result.all_checks_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args, parse_sweep_config)
    result = sweep_speedup(cfg, cfg.run.out_dir if args.out_dir is None else args.out_dir)
    print((result.out_dir / "summary.txt").read_text(), end="")
    failed = [(pt.m, c) for pt in result.points for c in pt.run.checks if not c.passed]
    for m, c in failed:
        print(f"m={m}: check {c.name}: FAIL (observed {c.observed:.17g}, "
              f"threshold {c.threshold:.17g})", file=sys.stderr)
    return 1 if failed else 0


def _cmd_validate_topology(args: argparse.Namespace) -> int:
    seed = parse_seed(args.seed or 0, "seed")
    try:
        graph = build_topology(args.kind, args.m, p=args.p, seed=seed)
    except DisconnectedTopologyError as e:
        print(f"validation FAIL: {e}")
        return 1
    mixing = metropolis_mixing(graph)
    report = validate_mixing(mixing)
    lines = [f"topology: {graph.kind} m={graph.m} edges={graph.num_edges}"]
    for name, clause in report.clauses.items():
        status = "PASS" if clause.passed else "FAIL"
        lines.append(f"clause {name}: {status} (violation {clause.violation:.3g})")
    lines.append(f"lambda2 = {mixing.lambda2:.12g}")
    lines.append(f"gamma = {mixing.gamma:.12g}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    _emit(lines, args.out_dir, "topology_report.txt")
    return 0 if report.passed else 1


# The fields a check-smoothness spec may set, per mode.
_SPEC_KEYS = {
    "problem": {"mode", "problem", "trials", "seed"},
    "counterexample": {"mode", "target", "rate", "trials", "box_radius", "seed"},
}

# Problem mode samples the cube ||x||_inf <= 5; every family's constants hold
# on all of R^d, so the cube only bounds where the sample looks.
_PROBLEM_REGION = 5.0


def _counterexample_check(spec: dict, seed: int):
    rate = _parse_field(spec, "rate", PARAMS["rate"], "", default=1.0)
    target = _as_str(spec.get("target", "average"), "target", choices=("single", "average"))
    trials = _as_int(spec.get("trials", 500), "trials", minimum=1)
    box = _parse_field(spec, "box_radius", POSITIVE, "", default=2.0)
    region = min(box, (EXP_ARG_MAX - 100.0) / rate)
    l1 = rate / math.log(2.0)

    if target == "single":
        grad = lambda x: rate * np.exp(rate * x)  # noqa: E731
    else:  # exp_pair's gradient at d = 1
        grad = FAMILIES["exp_pair"].gradient({"rate": rate}, 1)
    witness = (np.zeros(1), np.array([math.log(2.0) / rate]))
    report = check_relaxed_smooth(
        grad, dim=1, l0=0.0, l1=l1, region=region, trials=trials,
        seed=seed, extra_pairs=[witness],
    )
    lines = [
        f"counterexample mode: target={target} rate={rate:g} "
        f"certificate (l0=0, l1={l1:.6g})",
        f"trials: {report.trials}  violations: {report.violations}",
        f"worst ratio: {report.worst_ratio:.6g}",
        f"worst pair: x={report.witness_x.tolist()} y={report.witness_y.tolist()} "
        f"gap={report.worst_gap:.6g} bound={report.worst_bound:.6g}",
        f"implied l0 at this l1: {report.implied_l0:.6g}",
        f"result: {'certificate holds' if report.passed else 'certificate violated'}",
    ]
    return report, lines


def _problem_check(spec: dict, seed: int):
    trials = _as_int(spec.get("trials", 1000), "trials", minimum=1)
    p = build_problem(parse_problem(_get(spec, "problem", "")))
    report = check_relaxed_smooth(
        lambda x: grad_base(p, x), dim=p.d, l0=p.l0, l1=p.l1,
        region=_PROBLEM_REGION, trials=trials, seed=seed,
    )
    lines = [
        f"problem mode: {p.family} d={p.d} certificate (l0={p.l0:.6g}, l1={p.l1:.6g})",
        f"trials: {report.trials}  violations: {report.violations}",
        f"worst ratio: {report.worst_ratio:.6g}",
        f"implied l0 at this l1: {report.implied_l0:.6g}",
        f"result: {'certificate holds' if report.passed else 'certificate violated'}",
    ]
    return report, lines


def _cmd_check_smoothness(args: argparse.Namespace) -> int:
    spec = load_json(args.config)
    if not isinstance(spec, dict):
        raise ConfigError("config", "expected a JSON object")
    mode = _as_str(spec.get("mode", "problem"), "mode", choices=tuple(_SPEC_KEYS))
    _reject_unknown(spec, _SPEC_KEYS[mode], "")
    seed = parse_seed(spec.get("seed", 0) if args.seed is None else args.seed, "seed")
    check = _problem_check if mode == "problem" else _counterexample_check
    report, lines = check(spec, seed)
    _emit(lines, args.out_dir, "smoothness_report.txt")
    return 0 if report.passed else 1


def _cmd_params(args: argparse.Namespace) -> int:
    cfg = _load_config(args, parse_run_config)
    if cfg.auto is None:
        raise ConfigError("auto", "params requires an auto block")
    p, mixing, _, hp, theory = set_up(cfg)
    guard = theory.guard
    samples, rounds = METHODS[cfg.algorithm].cost(hp, hp.big_t)
    lines = [
        f"problem: {p.family} d={p.d} m={p.m} l0={p.l0:.12g} l1={p.l1:.12g} "
        f"zeta={p.zeta:g} sigma={p.sigma:g}",
        f"topology: {cfg.topology.kind} lambda2={mixing.lambda2:.12g} gamma={mixing.gamma:.12g}",
        f"epsilon = {hp.epsilon:.12g}",
        f"l_f = {theory.l_f:.12g}",
        f"m0 = {theory.m0:.12g}",
        f"m1 = {theory.m1:.12g}",
        f"delta_f = {theory.delta_f:.12g}",
        f"delta_phi = {theory.delta_phi:.12g}",
        f"eta = {hp.eta:.12g}",
        f"b = {hp.b}",
        f"big_t = {hp.big_t} (uncapped {theory.t_uncapped})",
        f"k_inner = {hp.k_inner}",
        f"k_init = {hp.k_init}",
        f"rho = {guard.rho:.12g} (required <= {guard.min_threshold:g})",
        f"samples per agent = {samples}",
        f"comm rounds = {rounds}",
        f"guard: {'PASS' if guard.ok else 'FAIL'}",
    ]
    for name, ok in guard.conditions.items():
        lines.append(f"  condition {name}: {'PASS' if ok else 'FAIL'}")
    _emit(lines, args.out_dir, "params_report.txt")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the master seed from the config")
    common.add_argument("--out-dir", default=None,
                        help="directory for output files")

    parser = argparse.ArgumentParser(
        prog="dnsgd",
        description="decentralized normalized SGD with gradient tracking: "
        "runs, sweeps, and verification tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common], help="multi-seed experiment")
    run_p.add_argument("--config", required=True, help="JSON run config")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common], help="network-size scaling sweep")
    sweep_p.add_argument("--config", required=True, help="JSON sweep config")
    sweep_p.set_defaults(func=_cmd_sweep)

    topo_p = sub.add_parser(
        "validate-topology", parents=[common], help="check a mixing matrix contract"
    )
    topo_p.add_argument("--kind", required=True, choices=KINDS)
    topo_p.add_argument("--m", required=True, type=int, help="number of agents")
    topo_p.add_argument("--p", type=float, default=None, help="edge probability (erdos_renyi)")
    topo_p.set_defaults(func=_cmd_validate_topology)

    smooth_p = sub.add_parser(
        "check-smoothness", parents=[common],
        help="sample a relaxed smoothness certificate",
    )
    smooth_p.add_argument("--config", required=True, help="JSON check spec")
    smooth_p.set_defaults(func=_cmd_check_smoothness)

    params_p = sub.add_parser(
        "params", parents=[common], help="print calculator output for a config"
    )
    params_p.add_argument("--config", required=True, help="JSON run config with an auto block")
    params_p.set_defaults(func=_cmd_params)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    The heap is frozen first, so an in-process caller's objects alive at the
    call are never cyclically collected afterwards.
    """
    # Everything alive here, the interpreter's, numpy's and dnsgd's import-time
    # objects, lives until exit: frozen, no collection scans it, not even those at exit.
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DisconnectedTopologyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NonFiniteStateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # configs are read through load_json, so this is an output
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
