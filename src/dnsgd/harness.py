"""Experiment driver: multi-seed runs, CSV output, and built-in checks.

run_experiment is the one path from a RunConfig to a trajectory: set_up
builds the problem, the mixing matrix, the start point and the
hyperparameters (for dnsgd params too), and run_experiment runs all the
seeds in one optimizers.run call and evaluates the checks. A sweep cell is a
run: sweep_speedup sets problem.m of the sweep's run config and calls
run_experiment.

Outputs are byte-deterministic for a fixed config: no timestamps, float
fields formatted with repr-faithful %.17g, seeds fanned out from the master
seed, and rows written in seed order. Checks and summaries reduce the
trajectory's (S, big_t + 1) columns; each seed's metrics CSV is its row, one
line per state, and the sweep finds every seed's first hit in one search.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import shutil
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import (
    StationaritySummary,
    Trajectory,
    stationarity_summary,
    verify_consensus_bound,
    verify_descent,
)
from .config import ConfigError, RunConfig, SweepConfig, build_mixing, build_problem, resolve_x0
from .gossip import contraction
from .hyperparams import (
    HyperParams,
    TheoreticalParams,
    rho_guard,
    theoretical_hyperparams,
)
from .optimizers import METHODS, run
from .problems import ProblemInstance, _sum_squares, f_base, grad_base
from .streams import fanout_seed
from .topology import MixingMatrix

CSV_FIELDS = (
    "run_id", "seed_index", "t", "f_mean", "grad_norm_mean",
    "grad_norm_agent_max", "cons_x", "cons_v", "phi",
    "samples_per_agent", "comm_rounds",
)
CSV_HEADER = ",".join(CSV_FIELDS)
CSV_CHUNK_ROWS = 512  # metrics CSV lines formatted and written at a time

TRACKER_DRIFT_TOL = 1e-8
MIN_SEEDS_FOR_STOCHASTIC_CHECK = 10


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _echo(value):
    """A config record as the nested dicts that config_echo.json holds."""
    if isinstance(value, HyperParams):
        return dataclasses.asdict(value)
    if hasattr(value, "_asdict"):
        return {name: _echo(v) for name, v in value._asdict().items()}
    return value


class CheckResult(NamedTuple):
    name: str
    passed: bool
    observed: float
    threshold: float
    detail: str = ""


class RunResult(NamedTuple):
    config: RunConfig
    problem: ProblemInstance
    mixing: MixingMatrix
    hp: HyperParams
    theory: TheoreticalParams | None
    seeds: tuple[int, ...]
    trajectory: Trajectory
    checks: list[CheckResult]
    stationarity: StationaritySummary
    out_dir: Path | None

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def set_up(cfg: RunConfig) -> tuple[
    ProblemInstance, MixingMatrix, np.ndarray, HyperParams, TheoreticalParams | None
]:
    """A run's problem, mixing matrix, start point and hyperparameters, with the calculator's.

    Explicit hyperparameters pass through, with no calculator output; an auto
    block runs the calculator.
    """
    p = build_problem(cfg.problem)
    mixing = build_mixing(cfg.topology, p.m)
    x0 = resolve_x0(cfg.x0, p.d)
    if cfg.hyperparams is not None:
        return p, mixing, x0, cfg.hyperparams, None
    auto = cfg.auto
    # a start point far enough out overflows both to inf, which the calculator
    # rejects; that error is the one report, without numpy warnings before it
    with np.errstate(over="ignore", invalid="ignore"):
        delta_f = f_base(p, x0) - p.f_star
        g0_norm_sq = float(_sum_squares(grad_base(p, x0) + p.offsets).sum())
    if delta_f <= 0.0:
        raise ConfigError("x0", f"f(x0) - f_star = {delta_f:.6g} leaves the calculator no "
                          "objective gap (x0 is a minimizer); give hyperparams instead of auto")
    theory = theoretical_hyperparams(
        p, mixing, auto.epsilon, delta_f, g0_norm_sq=g0_norm_sq, t_cap=auto.t_cap
    )
    return p, mixing, x0, theory.hp, theory


def _run_checks(
    cfg: RunConfig,
    p: ProblemInstance,
    hp: HyperParams,
    mixing: MixingMatrix,
    traj: Trajectory,
) -> list[CheckResult]:
    checks: list[CheckResult] = []
    if METHODS[cfg.algorithm].tracked:
        drift = float(traj.tracker_drifts.max())
        checks.append(
            CheckResult(
                "tracker_identity", drift <= TRACKER_DRIFT_TOL, drift, TRACKER_DRIFT_TOL,
                "relative distance between mean tracker and mean sampled gradient",
            )
        )
    if cfg.algorithm != "dnsgd":
        return checks

    rho = contraction(mixing, hp.k_inner)
    if rho < 1.0:
        report = verify_consensus_bound(traj, rho, p.m, hp.eta)
        checks.append(
            CheckResult(
                "consensus_bound", report.passed, report.worst_cons, report.bound,
                f"cons_x vs rho*m*eta/(1-rho) over t >= 1, rho={rho:.6g}",
            )
        )
    guard = rho_guard(rho, p, hp.eta, hp.b)
    if guard.ok and p.sigma == 0.0:
        report = verify_descent(traj, p, hp.eta, "deterministic")
        checks.append(
            CheckResult(
                "descent_deterministic", report.passed, report.observed, report.bound,
                f"worst per-step potential decrease margin at t={report.worst_t}",
            )
        )
    if (
        guard.ok
        and p.sigma > 0.0
        and traj.num_seeds >= MIN_SEEDS_FOR_STOCHASTIC_CHECK
        and hp.big_t >= 1
    ):
        report = verify_descent(traj, p, hp.eta, "stochastic")
        checks.append(
            CheckResult(
                "descent_stochastic", report.passed, report.observed, report.bound,
                f"seed-mean time-averaged gradient norm over {report.n_seeds} seeds",
            )
        )
    return checks


def _write_metrics_csvs(out: Path, run_id: str, traj: Trajectory) -> None:
    """One metrics_seed<s>.csv per seed s, from row s of the columns.

    Each file is written CSV_CHUNK_ROWS lines at a time, so the text held in
    memory does not grow with big_t.
    """
    for s in range(traj.num_seeds):
        with open(out / f"metrics_seed{s:03d}.csv", "w") as csv:
            csv.write(CSV_HEADER + "\n")
            for start in range(0, traj.big_t + 1, CSV_CHUNK_ROWS):
                rows = slice(start, start + CSV_CHUNK_ROWS)
                columns = (
                    range(traj.big_t + 1)[rows], *(col[s, rows].tolist() for col in traj.metrics),
                    traj.samples_per_agent[rows].tolist(), traj.comm_rounds[rows].tolist(),
                )
                csv.write("".join(
                    f"{run_id},{s},{t},{f:.17g},{g:.17g},{g_max:.17g},{cx:.17g},{cv:.17g},"
                    f"{phi:.17g},{samples},{comms}\n"
                    for t, f, g, g_max, cx, cv, phi, samples, comms in zip(*columns)
                ))


@contextlib.contextmanager
def _made_dir(out: Path | None):
    """Make out, if given, before the body, and remove what was made if the body raises.

    So an output directory that cannot be made fails before a run is spent, and
    a run that fails leaves no directory it did not find.
    """
    if out is None:
        yield
        return
    top = None if out.exists() else out
    while top is not None and not top.parent.exists():
        top = top.parent
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        if top is not None:
            shutil.rmtree(top)
        raise


def _write_run_outputs(result: RunResult, run_id: str) -> None:
    out = result.out_dir
    _write_metrics_csvs(out, run_id, result.trajectory)

    check_lines = ["check,passed,observed,threshold,detail"]
    for c in result.checks:
        check_lines.append(
            f"{c.name},{c.passed},{_fmt(c.observed)},{_fmt(c.threshold)},\"{c.detail}\""
        )
    (out / "checks.csv").write_text("\n".join(check_lines) + "\n")

    resolved = {
        "eta": result.hp.eta, "b": result.hp.b, "big_t": result.hp.big_t,
        "k_inner": result.hp.k_inner, "k_init": result.hp.k_init,
        "epsilon": result.hp.epsilon,
        "lambda2": result.mixing.lambda2, "gamma": result.mixing.gamma,
        "seeds": list(result.seeds),
    }
    if METHODS[result.config.algorithm].accelerated:  # the others mix by plain W rounds
        resolved["rho"] = contraction(result.mixing, result.hp.k_inner)
    echo = {"config": _echo(result.config), "resolved": resolved}
    (out / "config_echo.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")

    lines = [f"run_id: {run_id}"]
    lines.append(f"algorithm: {result.config.algorithm}")
    pr = result.problem
    lines.append(
        f"problem: {pr.family} d={pr.d} m={pr.m} l0={_fmt(pr.l0)} l1={_fmt(pr.l1)} "
        f"zeta={_fmt(pr.zeta)} sigma={_fmt(pr.sigma)}"
    )
    lines.append(
        f"topology: {result.mixing.graph.kind} lambda2={_fmt(result.mixing.lambda2)} "
        f"gamma={_fmt(result.mixing.gamma)}"
    )
    hp = result.hp
    lines.append(
        f"hyperparams: eta={_fmt(hp.eta)} b={hp.b} big_t={hp.big_t} "
        f"k_inner={hp.k_inner} k_init={hp.k_init} epsilon={_fmt(hp.epsilon)}"
    )
    if result.theory is not None:
        th = result.theory
        lines.append(
            f"calculator: l_f={_fmt(th.l_f)} delta_phi={_fmt(th.delta_phi)} "
            f"rho={_fmt(th.guard.rho)} guard_ok={th.guard.ok} t_uncapped={th.t_uncapped}"
        )
    lines.append(f"seeds: {result.config.num_seeds}")
    st = result.stationarity
    lines.append(f"min grad_norm_mean (seed mean): {_fmt(np.mean(st.min_grad_mean))}")
    lines.append(f"avg grad_norm_mean (seed mean): {_fmt(np.mean(st.avg_grad_mean))}")
    lines.append(f"agent max at output draw (worst seed): {_fmt(st.agent_max_at_output.max())}")
    lines.append(f"box exits: {result.trajectory.box_exits.sum()}")
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"check {c.name}: {status} (observed {_fmt(c.observed)}, threshold {_fmt(c.threshold)})"
        )
    (out / "summary.txt").write_text("\n".join(lines) + "\n")


def run_experiment(
    cfg: RunConfig, out_dir: str | Path | None = None, seed_offset: int = 0
) -> RunResult:
    """Run cfg.num_seeds independent seeds as one trajectory and evaluate the checks.

    Seed i of the run is fanned out from cfg.master_seed at index
    seed_offset + i. The outputs go to out_dir, made after the set-up, before
    the first iteration; out_dir=None keeps everything in memory (a sweep's
    cells are run so). cfg.out_dir is the command line's default, not read here.
    """
    p, mixing, x0, hp, theory = set_up(cfg)
    seeds = tuple(fanout_seed(cfg.master_seed, seed_offset + i) for i in range(cfg.num_seeds))
    out = None if out_dir is None else Path(out_dir)
    with _made_dir(out):
        traj = run(cfg.algorithm, p, hp, mixing, x0, seeds)
        checks = _run_checks(cfg, p, hp, mixing, traj)
        result = RunResult(
            config=cfg, problem=p, mixing=mixing, hp=hp, theory=theory,
            seeds=seeds, trajectory=traj, checks=checks,
            stationarity=stationarity_summary(traj), out_dir=out,
        )
        if out is not None:
            run_id = f"{cfg.algorithm}-{cfg.problem.family}-m{p.m}-s{cfg.master_seed}"
            _write_run_outputs(result, run_id)
    return result


class SweepPoint(NamedTuple):
    m: int
    run: RunResult
    seeds_reached: int
    mean_samples_per_agent: float
    mean_comm_rounds: float


class SweepResult(NamedTuple):
    config: SweepConfig
    points: list[SweepPoint]
    out_dir: Path | None


def _first_hits(traj: Trajectory, target: float) -> np.ndarray:
    """Each seed's first state with grad_norm_mean <= target; seeds never there are left out."""
    hit = traj.metrics.grad_norm_mean <= target
    return hit.argmax(axis=1)[hit.any(axis=1)]


def sweep_speedup(cfg: SweepConfig, out_dir: str | Path | None = None) -> SweepResult:
    """Run cfg.run once for each network size m in cfg.m_list.

    The cell for the m at index i is cfg.run with problem.m set to m, run by
    run_experiment with its seeds fanned out from index i * num_seeds: the
    problem, the mixing matrix and the calculator's hyperparameters (so the
    batch size scales with 1/m) are its own, and so are its checks. Each
    point records the first iteration whose mean-iterate gradient norm
    reaches target_epsilon. Points where no seed reaches the target produce
    nan rows rather than errors. The outputs go to out_dir, as run_experiment's.
    """
    run_cfg = cfg.run
    out = None if out_dir is None else Path(out_dir)
    with _made_dir(out):
        points: list[SweepPoint] = []
        for i, m in enumerate(cfg.m_list):
            cell = run_cfg._replace(problem=run_cfg.problem._replace(m=m))
            result = run_experiment(cell, seed_offset=i * run_cfg.num_seeds)
            traj = result.trajectory
            first = _first_hits(traj, cfg.target_epsilon)
            mean_samples = mean_comm = math.nan
            if first.size:
                mean_samples = float(np.mean(traj.samples_per_agent[first]))
                mean_comm = float(np.mean(traj.comm_rounds[first]))
            points.append(
                SweepPoint(
                    m=m, run=result, seeds_reached=first.size,
                    mean_samples_per_agent=mean_samples, mean_comm_rounds=mean_comm,
                )
            )

        result = SweepResult(config=cfg, points=points, out_dir=out)
        if out is not None:
            lines = ["m,seeds_reached,num_seeds,mean_samples_per_agent,mean_comm_rounds"]
            for pt in points:
                lines.append(
                    f"{pt.m},{pt.seeds_reached},{run_cfg.num_seeds},"
                    f"{_fmt(pt.mean_samples_per_agent)},{_fmt(pt.mean_comm_rounds)}"
                )
            (out / "speedup.csv").write_text("\n".join(lines) + "\n")
            (out / "config_echo.json").write_text(
                json.dumps({"config": _echo(cfg)}, indent=2, sort_keys=True) + "\n"
            )
            slines = [f"sweep: {run_cfg.algorithm} target_epsilon={_fmt(cfg.target_epsilon)}"]
            for pt in points:
                slines.append(
                    f"m={pt.m}: b={pt.run.hp.b} big_t={pt.run.hp.big_t} "
                    f"k_inner={pt.run.hp.k_inner} reached {pt.seeds_reached}/{run_cfg.num_seeds} "
                    f"mean_samples={_fmt(pt.mean_samples_per_agent)} "
                    f"mean_comm={_fmt(pt.mean_comm_rounds)}"
                )
            (out / "summary.txt").write_text("\n".join(slines) + "\n")
    return result
