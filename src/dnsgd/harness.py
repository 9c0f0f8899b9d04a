"""Experiment driver: multi-seed runs, CSV output, and built-in checks.

Outputs are byte-deterministic for a fixed config: no timestamps, float
fields formatted with repr-faithful %.17g, seeds fanned out from the master
seed and run one after another, and rows written in seed order. A metrics
CSV is formatted from its trajectory's metric columns, one line per state,
and the sweep finds each seed's first hit of the target by a search over the
grad_norm_mean column.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    StationaritySummary,
    Trajectory,
    stationarity_summary,
    verify_consensus_bound,
    verify_descent,
)
from .config import RunConfig, SweepConfig, build_mixing, build_problem, resolve_x0
from .gossip import contraction_rho
from .hyperparams import (
    HyperParams,
    TheoreticalParams,
    rho_guard,
    theoretical_hyperparams,
)
from .optimizers import METHODS, run
from .problems import ProblemInstance, f_base, grad_base, lf_effective
from .streams import fanout_seed
from .topology import Graph, MixingMatrix

CSV_FIELDS = (
    "run_id", "seed_index", "t", "f_mean", "grad_norm_mean",
    "grad_norm_agent_max", "cons_x", "cons_v", "phi",
    "samples_per_agent", "comm_rounds",
)
CSV_HEADER = ",".join(CSV_FIELDS)

TRACKER_DRIFT_TOL = 1e-8
MIN_SEEDS_FOR_STOCHASTIC_CHECK = 10


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    threshold: float
    detail: str = ""


@dataclass
class RunResult:
    config: RunConfig
    problem: ProblemInstance
    graph: Graph
    mixing: MixingMatrix
    hp: HyperParams
    theory: TheoreticalParams | None
    x0: np.ndarray
    seeds: tuple[int, ...]
    trajectories: list[Trajectory]
    checks: list[CheckResult]
    per_seed_stationarity: list[StationaritySummary]
    out_dir: Path | None

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def box_exits_total(self) -> int:
        return sum(traj.box_exits for traj in self.trajectories)


def _initial_gradient_energy(p: ProblemInstance, x0: np.ndarray) -> float:
    """sum_i ||grad f_i(x0)||^2: each norm squared by scalar pow, added left to right."""
    g = grad_base(p, x0) + p.offsets
    # array ** 2 multiplies x * x, which rounds differently from pow about once in a thousand
    return float(sum(norm**2 for norm in np.sqrt(np.vecdot(g, g)).tolist()))


def resolve_hyperparams(
    cfg: RunConfig, p: ProblemInstance, mixing: MixingMatrix, x0: np.ndarray
) -> tuple[HyperParams, TheoreticalParams | None]:
    """Explicit hyperparameters pass through; an auto block runs the calculator."""
    if cfg.hyperparams is not None:
        return cfg.hyperparams, None
    auto = cfg.auto
    delta_f = auto.delta_f
    if delta_f is None:
        delta_f = max(f_base(p, x0) - p.f_star, 0.0)
    theory = theoretical_hyperparams(
        epsilon=auto.epsilon, l0=p.l0, l1=p.l1, zeta=p.zeta, sigma=p.sigma,
        m=p.m, gamma=mixing.gamma, delta_f_estimate=delta_f,
        g0_norm_sq=_initial_gradient_energy(p, x0),
        c_k=auto.c_k, c_k_hat=auto.c_k_hat, t_cap=auto.t_cap,
        k_mode=auto.k_mode, rho_max=auto.rho_max,
    )
    return theory.hp, theory


def _run_seeds(
    cfg: RunConfig,
    p: ProblemInstance,
    hp: HyperParams,
    mixing: MixingMatrix,
    x0: np.ndarray,
    seed_offset: int = 0,
) -> tuple[tuple[int, ...], list[Trajectory]]:
    seeds = tuple(
        fanout_seed(cfg.master_seed, seed_offset + idx) for idx in range(cfg.num_seeds)
    )
    trajectories = [
        run(cfg.algorithm, p, hp, mixing, x0, seed, snapshot_every=cfg.snapshot_every)
        for seed in seeds
    ]
    return seeds, trajectories


def _run_checks(
    cfg: RunConfig,
    p: ProblemInstance,
    hp: HyperParams,
    mixing: MixingMatrix,
    trajectories: list[Trajectory],
) -> list[CheckResult]:
    checks: list[CheckResult] = []
    if METHODS[cfg.algorithm].tracked:
        drift = max(traj.tracker_drift_max for traj in trajectories)
        checks.append(
            CheckResult(
                "tracker_identity", drift <= TRACKER_DRIFT_TOL, drift, TRACKER_DRIFT_TOL,
                "relative distance between mean tracker and mean sampled gradient",
            )
        )
    if cfg.algorithm != "dnsgd":
        return checks

    rho = contraction_rho(mixing.lambda2, hp.k_inner)
    if rho < 1.0:
        reports = [verify_consensus_bound(traj, rho, p.m, hp.eta) for traj in trajectories]
        worst = max(reports, key=lambda r: r.worst_cons)
        checks.append(
            CheckResult(
                "consensus_bound", all(r.passed for r in reports),
                worst.worst_cons, worst.bound,
                f"cons_x vs rho*m*eta/(1-rho) over t >= 1, rho={rho:.6g}",
            )
        )
    guard = rho_guard(rho, hp.eta, p.l0, p.l1, p.zeta, p.sigma, hp.b, p.m)
    l_f = lf_effective(p.l0, p.l1, p.zeta)
    if guard.ok and p.sigma == 0.0:
        report = verify_descent([trajectories[0]], p, hp.eta, l_f, mode="deterministic")
        checks.append(
            CheckResult(
                "descent_deterministic", report.passed, report.observed, report.bound,
                f"worst per-step potential decrease margin at t={report.worst_t}",
            )
        )
    if (
        guard.ok
        and p.sigma > 0.0
        and len(trajectories) >= MIN_SEEDS_FOR_STOCHASTIC_CHECK
        and hp.big_t >= 1
    ):
        report = verify_descent(trajectories, p, hp.eta, l_f, mode="stochastic")
        checks.append(
            CheckResult(
                "descent_stochastic", report.passed, report.observed, report.bound,
                f"seed-mean time-averaged gradient norm over {report.n_seeds} seeds",
            )
        )
    return checks


def _write_metrics_csv(path: Path, run_id: str, seed_index: int, traj: Trajectory) -> None:
    m = traj.metrics
    columns = (
        range(traj.big_t + 1), m.f_mean.tolist(), m.grad_norm_mean.tolist(),
        m.agent_grad_norms.max(axis=1).tolist(), m.cons_x.tolist(), m.cons_v.tolist(),
        m.phi.tolist(), traj.samples_per_agent.tolist(), traj.comm_rounds.tolist(),
    )
    lines = [CSV_HEADER]
    lines.extend(
        f"{run_id},{seed_index},{t},{f:.17g},{g:.17g},{g_max:.17g},{cx:.17g},{cv:.17g},"
        f"{phi:.17g},{samples},{comms}"
        for t, f, g, g_max, cx, cv, phi, samples, comms in zip(*columns)
    )
    path.write_text("\n".join(lines) + "\n")


def _write_run_outputs(result: RunResult, run_id: str) -> None:
    out = result.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for idx, traj in enumerate(result.trajectories):
        _write_metrics_csv(out / f"metrics_seed{idx:03d}.csv", run_id, idx, traj)

    check_lines = ["check,passed,observed,threshold,detail"]
    for c in result.checks:
        check_lines.append(
            f"{c.name},{c.passed},{_fmt(c.observed)},{_fmt(c.threshold)},\"{c.detail}\""
        )
    (out / "checks.csv").write_text("\n".join(check_lines) + "\n")

    echo = {
        "config": dataclasses.asdict(result.config),
        "resolved": {
            "eta": result.hp.eta, "b": result.hp.b, "big_t": result.hp.big_t,
            "k_inner": result.hp.k_inner, "k_init": result.hp.k_init,
            "epsilon": result.hp.epsilon,
            "lambda2": result.mixing.lambda2, "gamma": result.mixing.gamma,
            "rho": contraction_rho(result.mixing.lambda2, result.hp.k_inner),
            "seeds": list(result.seeds),
        },
    }
    (out / "config_echo.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")

    lines = [f"run_id: {run_id}"]
    lines.append(f"algorithm: {result.config.algorithm}")
    pr = result.problem
    lines.append(
        f"problem: {pr.family} d={pr.d} m={pr.m} l0={_fmt(pr.l0)} l1={_fmt(pr.l1)} "
        f"zeta={_fmt(pr.zeta)} sigma={_fmt(pr.sigma)}"
    )
    lines.append(
        f"topology: {result.graph.kind} lambda2={_fmt(result.mixing.lambda2)} "
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
            f"rho={_fmt(th.rho_actual)} guard_ok={th.guard.ok} t_uncapped={th.t_uncapped}"
        )
    lines.append(f"seeds: {result.config.num_seeds}")
    mins = [s.min_grad_mean for s in result.per_seed_stationarity]
    avgs = [s.avg_grad_mean for s in result.per_seed_stationarity]
    outs = [s.agent_max_at_output for s in result.per_seed_stationarity]
    lines.append(f"min grad_norm_mean (seed mean): {_fmt(float(np.mean(mins)))}")
    lines.append(f"avg grad_norm_mean (seed mean): {_fmt(float(np.mean(avgs)))}")
    lines.append(f"agent max at output draw (worst seed): {_fmt(max(outs))}")
    lines.append(f"box exits: {result.box_exits_total}")
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"check {c.name}: {status} (observed {_fmt(c.observed)}, threshold {_fmt(c.threshold)})"
        )
    (out / "summary.txt").write_text("\n".join(lines) + "\n")


def run_experiment(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    write_outputs: bool = True,
) -> RunResult:
    """Run cfg.num_seeds independent trajectories and evaluate the checks.

    out_dir overrides cfg.out_dir; write_outputs=False keeps everything in
    memory (the acceptance suite reuses trajectories this way).
    """
    p = build_problem(cfg.problem)
    graph, mixing = build_mixing(cfg.topology, p.m)
    x0 = resolve_x0(cfg.x0, p.d)
    hp, theory = resolve_hyperparams(cfg, p, mixing, x0)
    seeds, trajectories = _run_seeds(cfg, p, hp, mixing, x0)
    checks = _run_checks(cfg, p, hp, mixing, trajectories)
    per_seed = [stationarity_summary(traj) for traj in trajectories]
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    result = RunResult(
        config=cfg, problem=p, graph=graph, mixing=mixing, hp=hp, theory=theory,
        x0=x0, seeds=seeds, trajectories=trajectories, checks=checks,
        per_seed_stationarity=per_seed, out_dir=out if write_outputs else None,
    )
    if write_outputs:
        run_id = f"{cfg.algorithm}-{cfg.problem.family}-m{p.m}-s{cfg.master_seed}"
        _write_run_outputs(result, run_id)
    return result


@dataclass
class SweepPoint:
    m: int
    hp: HyperParams
    theory: TheoreticalParams
    lambda2: float
    gamma: float
    seeds_reached: int
    num_seeds: int
    mean_samples_per_agent: float
    mean_comm_rounds: float
    trajectories: list[Trajectory]


@dataclass
class SweepResult:
    config: SweepConfig
    points: list[SweepPoint]
    out_dir: Path | None


def _first_hit(traj: Trajectory, target: float) -> tuple[int, int] | None:
    """(samples_per_agent, comm_rounds) at the first state whose grad_norm_mean reaches target."""
    hits = np.flatnonzero(traj.metrics.grad_norm_mean <= target)
    if hits.size == 0:
        return None
    return int(traj.samples_per_agent[hits[0]]), int(traj.comm_rounds[hits[0]])


def sweep_speedup(
    cfg: SweepConfig,
    out_dir: str | Path | None = None,
    write_outputs: bool = True,
) -> SweepResult:
    """Scaling sweep over network sizes at a fixed target accuracy.

    For each m the problem and mixing matrix are rebuilt, the calculator is
    rerun (so the batch size scales with 1/m), and the first iteration whose
    mean-iterate gradient norm reaches target_epsilon is recorded. Points
    where no seed reaches the target produce nan rows rather than errors.
    """
    points: list[SweepPoint] = []
    for m_index, m in enumerate(cfg.m_list):
        p = build_problem(cfg.problem, m=m)
        _, mixing = build_mixing(cfg.topology, m)
        x0 = resolve_x0(cfg.x0, p.d)
        run_cfg = RunConfig(
            problem=cfg.problem, topology=cfg.topology, algorithm=cfg.algorithm,
            x0=cfg.x0, master_seed=cfg.master_seed, auto=cfg.auto,
            num_seeds=cfg.num_seeds, snapshot_every=cfg.snapshot_every,
            out_dir=cfg.out_dir,
        )
        hp, theory = resolve_hyperparams(run_cfg, p, mixing, x0)
        _, trajectories = _run_seeds(
            run_cfg, p, hp, mixing, x0, seed_offset=m_index * cfg.num_seeds
        )
        hits = [_first_hit(traj, cfg.target_epsilon) for traj in trajectories]
        reached = [h for h in hits if h is not None]
        if reached:
            mean_samples = float(np.mean([h[0] for h in reached]))
            mean_comm = float(np.mean([h[1] for h in reached]))
        else:
            mean_samples = math.nan
            mean_comm = math.nan
        points.append(
            SweepPoint(
                m=m, hp=hp, theory=theory,
                lambda2=mixing.lambda2, gamma=mixing.gamma,
                seeds_reached=len(reached), num_seeds=cfg.num_seeds,
                mean_samples_per_agent=mean_samples, mean_comm_rounds=mean_comm,
                trajectories=trajectories,
            )
        )

    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    result = SweepResult(config=cfg, points=points, out_dir=out if write_outputs else None)
    if write_outputs:
        out.mkdir(parents=True, exist_ok=True)
        lines = ["m,seeds_reached,num_seeds,mean_samples_per_agent,mean_comm_rounds"]
        for pt in points:
            lines.append(
                f"{pt.m},{pt.seeds_reached},{pt.num_seeds},"
                f"{_fmt(pt.mean_samples_per_agent)},{_fmt(pt.mean_comm_rounds)}"
            )
        (out / "speedup.csv").write_text("\n".join(lines) + "\n")
        (out / "config_echo.json").write_text(
            json.dumps({"config": dataclasses.asdict(cfg)}, indent=2, sort_keys=True) + "\n"
        )
        slines = [f"sweep: {cfg.algorithm} target_epsilon={_fmt(cfg.target_epsilon)}"]
        for pt in points:
            slines.append(
                f"m={pt.m}: b={pt.hp.b} big_t={pt.hp.big_t} k_inner={pt.hp.k_inner} "
                f"reached {pt.seeds_reached}/{pt.num_seeds} "
                f"mean_samples={_fmt(pt.mean_samples_per_agent)} "
                f"mean_comm={_fmt(pt.mean_comm_rounds)}"
            )
        (out / "summary.txt").write_text("\n".join(slines) + "\n")
    return result
