#!/usr/bin/env python3
"""Run all four methods on the same problem and print a comparison table.

The problem is the heterogeneous exponential-pair family whose smoothness
modulus grows with the gradient norm, the regime the normalized method is
built for. Step size, batch size, and gossip depth come from the calculator
at the requested accuracy; the baselines reuse the same step size so the
comparison isolates the update rule (dnasa treats it as its eta_max).

Example:
    python scripts/compare_optimizers.py --epsilon 0.2 --seeds 3 --out-dir out/compare
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from dnsgd.config import ConfigError, parse_run_config
from dnsgd.harness import run_experiment
from dnsgd.optimizers import ALGORITHMS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", type=float, default=0.2, help="target stationarity")
    ap.add_argument("--sigma", type=float, default=0.1, help="oracle noise level")
    ap.add_argument("--seeds", type=int, default=3, help="independent runs per method")
    ap.add_argument("--t-cap", type=int, default=3000, help="iteration cap")
    ap.add_argument("--seed", type=int, default=2024, help="master seed")
    ap.add_argument("--out-dir", default=None, help="write per-method CSVs here")
    args = ap.parse_args()

    try:  # validated like a run config, so a bad option exits 2 with its field
        base = parse_run_config({
            "problem": {
                "family": "exp_pair", "d": 10, "m": 8, "zeta": 0.2, "sigma": args.sigma,
                "seed": 1, "rate": 1.0,
            },
            "topology": {"kind": "ring"},
            "algorithm": "dnsgd",
            "x0": 1.5,
            "master_seed": args.seed,
            "auto": {"epsilon": args.epsilon, "t_cap": args.t_cap},
            "num_seeds": args.seeds,
        })
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    print(f"{'method':8s} {'avg ||grad||':>14s} {'min ||grad||':>14s} "
          f"{'cons_x (final)':>15s} {'samples/agent':>14s} {'comm rounds':>12s}")
    for alg in ALGORITHMS:
        cfg = base._replace(algorithm=alg)
        out_dir = None
        if args.out_dir is not None:
            out_dir = Path(args.out_dir) / alg
        result = run_experiment(cfg, out_dir=out_dir, write_outputs=out_dir is not None)
        traj, st = result.trajectory, result.stationarity
        avg = np.mean(st.avg_grad_mean)
        best = np.mean(st.min_grad_mean)
        final = np.mean(traj.metrics.cons_x[:, -1])
        print(f"{alg:8s} {avg:14.5f} {best:14.5f} {final:15.3e} "
              f"{int(traj.samples_per_agent[-1]):14d} {int(traj.comm_rounds[-1]):12d}")
    hp = result.hp
    print(f"\ncalculator: eta={hp.eta:.5g} b={hp.b} big_t={hp.big_t} "
          f"k_inner={hp.k_inner} k_init={hp.k_init}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
