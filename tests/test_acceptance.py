"""Acceptance gate: one test per stated criterion, timed against its budget.

Each test registers a PASS/FAIL line through conftest.record_criterion so the
per-criterion status is printed at the end of the pytest run. Expensive runs
(criteria 3, 4, 5) are session fixtures shared with the bound checks in
criteria 6 and 9.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import record_criterion, worst_case_contraction

from dnsgd.analysis import stationarity_summary, verify_consensus_bound, verify_descent
from dnsgd.cli import main as cli_main
from dnsgd.config import (
    AutoHyperConfig,
    ProblemConfig,
    RunConfig,
    SweepConfig,
    TopologyConfig,
)
from dnsgd.gossip import acc_gossip, consensus_error
from dnsgd.harness import run_experiment, sweep_speedup
from dnsgd.hyperparams import HyperParams
from dnsgd.optimizers import run
from dnsgd.problems import (
    check_relaxed_smooth,
    f_base,
    grad_base,
    make_problem,
    sample_grad,
)
from dnsgd.streams import derive_stream
from dnsgd.topology import build_topology, metropolis_mixing, validate_mixing


@pytest.fixture(scope="session")
def crit3():
    cfg = RunConfig(
        problem=ProblemConfig(
            family="exp_pair", d=10, m=8, zeta=0.2, sigma=0.1, seed=1, rate=1.0
        ),
        topology=TopologyConfig(kind="ring"),
        algorithm="dnsgd",
        x0=1.5,
        master_seed=2024,
        auto=AutoHyperConfig(epsilon=0.2, t_cap=50_000),
        num_seeds=10,
    )
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def crit4():
    cfg = RunConfig(
        problem=ProblemConfig(
            family="quadratic", d=5, m=4, zeta=0.5, sigma=0.0, seed=3, curvature=1.0
        ),
        topology=TopologyConfig(kind="ring"),
        algorithm="dnsgd",
        x0=0.6,
        master_seed=7,
        auto=AutoHyperConfig(epsilon=0.12),
        num_seeds=1,
    )
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def crit5():
    run = RunConfig(
        problem=ProblemConfig(
            family="exp_pair", d=10, m=2, zeta=0.2, sigma=1.0, seed=1, rate=1.0
        ),
        topology=TopologyConfig(kind="ring"),
        algorithm="dnsgd",
        x0=1.0,
        master_seed=77,
        auto=AutoHyperConfig(epsilon=0.3, t_cap=200),
        num_seeds=10,
    )
    cfg = SweepConfig(run=run, m_list=(2, 4, 8, 16), target_epsilon=0.3)
    t0 = time.perf_counter()
    result = sweep_speedup(cfg)
    return result, time.perf_counter() - t0


def test_criterion_1_gossip_contraction():
    t0 = time.perf_counter()
    mix = metropolis_mixing(build_topology("ring", 16))
    rng = np.random.default_rng(1001)
    contraction_ok = True
    worst_mean_rel = 0.0
    for _ in range(20):
        y0 = rng.normal(size=(16, 5)) * float(rng.uniform(0.5, 3.0))
        ybar0 = y0.mean(axis=0)
        e0 = consensus_error(y0)
        for k in range(1, 21):
            yk = acc_gossip(y0, mix, k)
            if consensus_error(yk) > worst_case_contraction(mix.lambda2, k) * e0 * (1 + 1e-12):
                contraction_ok = False
            rel = np.linalg.norm(yk.mean(axis=0) - ybar0) / max(
                np.linalg.norm(ybar0), 1e-12
            )
            worst_mean_rel = max(worst_mean_rel, rel)
    elapsed = time.perf_counter() - t0
    passed = contraction_ok and worst_mean_rel <= 1e-10 and elapsed < 5.0
    record_criterion(
        1, "gossip contraction", passed,
        f"mean drift {worst_mean_rel:.2e}, {elapsed:.2f}s",
    )
    assert passed


def test_criterion_2_mixing_validation():
    t0 = time.perf_counter()
    failures = []
    for kind in ("ring", "path", "complete", "erdos_renyi"):
        p = 0.6 if kind == "erdos_renyi" else None
        for m in (2, 4, 8, 16, 32):
            for seed in range(20):
                g = build_topology(kind, m, p=p, seed=seed)
                report = validate_mixing(metropolis_mixing(g))
                if not report.passed:
                    bad = [k for k, c in report.clauses.items() if not c.passed]
                    failures.append(f"{kind} m={m} seed={seed}: {bad}")
    elapsed = time.perf_counter() - t0
    passed = not failures and elapsed < 10.0
    record_criterion(
        2, "mixing validation", passed,
        failures[0] if failures else f"400 matrices, {elapsed:.2f}s",
    )
    assert passed, failures[:3]


def test_criterion_3_stationarity(crit3):
    result, elapsed = crit3
    summary = stationarity_summary(result.trajectory)
    seed_mean_avg = float(np.mean(summary.avg_grad_mean))
    worst_min = float(summary.min_grad_mean.max())
    eps = result.hp.epsilon
    passed = seed_mean_avg <= eps and worst_min <= eps / 2 and elapsed < 120.0
    record_criterion(
        3, "dnsgd stationarity", passed,
        f"avg {seed_mean_avg:.4f} <= {eps}, worst min {worst_min:.4f} <= {eps / 2}, "
        f"T={result.hp.big_t}, {elapsed:.1f}s",
    )
    assert passed


def test_criterion_4_deterministic_descent(crit4):
    result, elapsed = crit4
    assert result.theory is not None and result.theory.guard.ok
    report = verify_descent(
        result.trajectory, result.problem, result.hp.eta, mode="deterministic", tol=1e-9
    )
    passed = report.passed and elapsed < 10.0
    record_criterion(
        4, "deterministic descent", passed,
        f"worst margin {report.observed:.2e} over {result.hp.big_t} iterations, "
        f"{elapsed:.1f}s",
    )
    assert passed


def test_criterion_5_linear_speedup(crit5):
    result, elapsed = crit5
    means = [pt.mean_samples_per_agent for pt in result.points]
    all_reached = all(pt.seeds_reached == pt.run.config.num_seeds for pt in result.points)
    non_increasing = all(a >= b for a, b in zip(means, means[1:]))
    ratio = means[0] / means[-1]
    passed = all_reached and non_increasing and ratio >= 4.0 and elapsed < 300.0
    record_criterion(
        5, "linear speedup", passed,
        f"samples/agent {[round(v) for v in means]}, ratio {ratio:.1f}, {elapsed:.1f}s",
    )
    assert passed, means


def test_criterion_6_consensus_bound(crit3, crit4, crit5):
    results = [crit3[0], crit4[0], *(pt.run for pt in crit5[0].points)]
    reports = [
        verify_consensus_bound(r.trajectory, r.theory.guard.rho, r.problem.m, r.hp.eta)
        for r in results
    ]
    worst = max(r.observed / r.threshold for r in reports)
    passed = all(r.passed for r in reports)
    n_seeds = sum(r.trajectory.num_seeds for r in results)
    record_criterion(
        6, "consensus radius", passed,
        f"{n_seeds} runs, worst cons/bound {worst:.2e}",
    )
    assert passed


def test_criterion_7_smoothness_counterexample():
    t0 = time.perf_counter()
    l1 = 1.0 / math.log(2.0)
    up = check_relaxed_smooth(
        lambda x: np.exp(x), dim=1, l0=0.0, l1=l1, region=2.0, trials=10_000, seed=3
    )
    down = check_relaxed_smooth(
        lambda x: -np.exp(-x), dim=1, l0=0.0, l1=l1, region=2.0, trials=10_000, seed=4
    )
    witness = (np.zeros(1), np.array([math.log(2.0)]))
    avg = check_relaxed_smooth(
        lambda x: np.sinh(x), dim=1, l0=0.0, l1=l1, region=2.0, trials=10_000,
        seed=5, extra_pairs=[witness],
    )
    elapsed = time.perf_counter() - t0
    halves_certified = (
        up.passed and up.violations == 0 and down.passed and down.violations == 0
    )
    gap_ok = (
        not avg.passed
        and abs(avg.worst_gap - 0.75) <= 1e-9 * 0.75
        and np.array_equal(avg.witness_x, witness[0])
        and np.array_equal(avg.witness_y, witness[1])
    )
    passed = halves_certified and gap_ok and elapsed < 5.0
    record_criterion(
        7, "smoothness counterexample", passed,
        f"halves hold over 2x10^4 pairs, average gap {avg.worst_gap:.12f}, "
        f"{elapsed:.2f}s",
    )
    assert passed


def test_criterion_8_oracle_correctness():
    t0 = time.perf_counter()
    instances = (
        make_problem("exp_pair", d=4, rate=1.0, m=3, zeta=0.3, sigma=0.0, seed=2),
        make_problem("poly_even", d=4, power=4, scale=0.5, m=3, zeta=0.3, sigma=0.0, seed=2),
        make_problem("quadratic", d=4, curvature=1.5, m=3, zeta=0.3, sigma=0.0, seed=2),
    )
    rng = np.random.default_rng(321)
    fd_ok = True
    for p in instances:
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=p.d)
            g = grad_base(p, x)
            fd = np.array([
                (f_base(p, x + h) - f_base(p, x - h)) / 2e-6
                for h in np.eye(p.d) * 1e-6
            ])
            if np.linalg.norm(g - fd) > 1e-6 * max(1.0, np.linalg.norm(g)):
                fd_ok = False

    p = make_problem("quadratic", d=3, curvature=1.0, m=2, zeta=0.4, sigma=0.5, seed=7)
    x = np.array([0.3, -1.1, 0.7])
    exact = grad_base(p, x) + p.offsets[0]
    b, n = 4, 20_000
    rng = derive_stream(909, "oracle")  # read in order, as a run reads it
    x_rows = np.tile(x, (p.m, 1))
    draws = np.empty((n, p.d))
    for t in range(n):
        draws[t] = sample_grad(p, x_rows, b, rng)[0]
    mean_err = float(np.abs(draws.mean(axis=0) - exact).max())
    mean_tol = 5.0 * p.sigma / math.sqrt(b * p.d * n)
    sq = float(np.mean(np.sum((draws - exact) ** 2, axis=1)))
    var_expect = p.sigma**2 / b
    var_tol = 5.0 * math.sqrt(2.0 / (n * p.d)) * var_expect
    mc_ok = mean_err <= mean_tol and abs(sq - var_expect) <= var_tol
    elapsed = time.perf_counter() - t0
    passed = fd_ok and mc_ok and elapsed < 30.0
    record_criterion(
        8, "oracle correctness", passed,
        f"fd 300 points ok={fd_ok}, mc mean err {mean_err:.2e} <= {mean_tol:.2e}, "
        f"var err {abs(sq - var_expect):.2e} <= {var_tol:.2e}, {elapsed:.1f}s",
    )
    assert passed


def test_criterion_9_tracker_identity(crit3, crit4, crit5):
    trajs = [crit3[0].trajectory, crit4[0].trajectory]
    trajs.extend(pt.run.trajectory for pt in crit5[0].points)
    p = make_problem("exp_pair", d=4, rate=1.0, m=4, zeta=0.2, sigma=0.5, seed=5)
    mix = metropolis_mixing(build_topology("ring", 4))
    hp = HyperParams(eta=0.02, b=2, big_t=50, k_inner=3, k_init=1, epsilon=0.1)
    trajs.append(run("dsgt", p, hp, mix, np.full(4, 0.8), seeds=[31]))
    worst = max(float(traj.tracker_drifts.max()) for traj in trajs)
    passed = worst <= 1e-8
    n_seeds = sum(traj.num_seeds for traj in trajs)
    record_criterion(
        9, "tracker identity", passed,
        f"{n_seeds} runs, worst drift {worst:.2e}",
    )
    assert passed


def test_criterion_10_determinism_golden(tmp_path):
    cfg = {
        "problem": {
            "family": "exp_pair", "d": 6, "m": 4, "zeta": 0.2, "sigma": 0.4,
            "seed": 9, "rate": 1.0,
        },
        "topology": {"kind": "ring"},
        "algorithm": "dnsgd",
        "x0": 1.0,
        "master_seed": 4242,
        "hyperparams": {
            "eta": 0.03, "b": 4, "big_t": 12, "k_inner": 11, "k_init": 2,
            "epsilon": 0.2,
        },
        "num_seeds": 4,
    }
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(cfg))
    outs = {}
    for key in range(3):
        out = tmp_path / f"out-{key}"
        code = cli_main([
            "run", "--config", str(path),
            "--out-dir", str(out),
        ])
        assert code == 0
        outs[key] = b"".join(
            (out / f"metrics_seed{i:03d}.csv").read_bytes() for i in range(4)
        )
    blobs = list(outs.values())
    passed = blobs[0] == blobs[1] == blobs[2]
    record_criterion(
        10, "determinism golden", passed,
        f"4 seeds x {len(blobs)} runs, {len(blobs[0])} bytes each",
    )
    assert passed
