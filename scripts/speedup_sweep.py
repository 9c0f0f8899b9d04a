#!/usr/bin/env python3
"""Measure per-agent sample cost versus network size in the noise-dominant regime.

With sigma large the calculator's batch size scales like 1/m, so the samples
each agent spends to reach a fixed accuracy should drop roughly linearly as
the network grows. Prints one line per network size plus the end-to-end
speedup ratio.

Example:
    python scripts/speedup_sweep.py --m-list 2 4 8 16 --seeds 10 --out-dir out/sweep
"""

import argparse

from dnsgd.config import AutoHyperConfig, ProblemConfig, SweepConfig, TopologyConfig
from dnsgd.harness import sweep_speedup


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", type=float, default=0.3, help="target stationarity")
    ap.add_argument("--sigma", type=float, default=1.0, help="oracle noise level")
    ap.add_argument("--m-list", type=int, nargs="+", default=[2, 4, 8, 16])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--t-cap", type=int, default=200)
    ap.add_argument("--seed", type=int, default=77, help="master seed")
    ap.add_argument("--out-dir", default=None, help="write speedup.csv here")
    args = ap.parse_args()

    cfg = SweepConfig(
        problem=ProblemConfig(
            family="exp_pair", d=10, m=args.m_list[0], zeta=0.2, sigma=args.sigma,
            seed=1, rate=1.0,
        ),
        topology=TopologyConfig(kind="ring"),
        x0=1.0,
        master_seed=args.seed,
        auto=AutoHyperConfig(epsilon=args.epsilon, t_cap=args.t_cap),
        m_list=tuple(args.m_list),
        target_epsilon=args.epsilon,
        num_seeds=args.seeds,
        snapshot_every=0,
    )
    result = sweep_speedup(cfg, out_dir=args.out_dir, write_outputs=args.out_dir is not None)

    print(f"{'m':>4s} {'b':>8s} {'k_inner':>8s} {'reached':>8s} "
          f"{'samples/agent':>14s} {'comm rounds':>12s}")
    for pt in result.points:
        print(f"{pt.m:4d} {pt.hp.b:8d} {pt.hp.k_inner:8d} "
              f"{pt.seeds_reached:3d}/{pt.num_seeds:<3d} "
              f"{pt.mean_samples_per_agent:14.1f} {pt.mean_comm_rounds:12.1f}")
    first, last = result.points[0], result.points[-1]
    if first.seeds_reached and last.seeds_reached:
        ratio = first.mean_samples_per_agent / last.mean_samples_per_agent
        print(f"\nsample speedup m={first.m} -> m={last.m}: {ratio:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
