#!/usr/bin/env python3
"""Batch flow runs across types and integrators, with trajectory dumps.

Example:
    python3 scripts/flow_battery.py --types A2,B2,G2,A3 --starts 5 --outdir runs/
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from sktflow import (
    FlowConfig,
    Normalization,
    PositivityError,
    SimpleType,
    build_root_system,
    integrate,
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--types", default="A2,B2,G2,A3", help="comma-separated type tokens")
    ap.add_argument("--norm", default="long2", choices=["long2", "short2", "killing"])
    ap.add_argument("--starts", type=int, default=5, help="random starts per type")
    ap.add_argument("--low", type=float, default=0.9, help="lower bound of the start box")
    ap.add_argument("--high", type=float, default=2.0, help="upper bound of the start box")
    ap.add_argument("--t-end", type=float, default=400.0)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--integrators", default="rk4_fixed,rkf45")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default=None, help="write per-run CSV files here")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    rng = np.random.default_rng(args.seed)
    outdir = Path(args.outdir) if args.outdir else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    norm = Normalization.parse(args.norm)
    failures = 0
    print(f"{'type':<6} {'integrator':<10} {'start':<28} {'termination':<22} "
          f"{'steps':>6} {'evals':>6} {'t_final':>9} {'dist_to_1':>10} {'wall_s':>7}")
    for token in args.types.split(","):
        token = token.strip()
        rs = build_root_system(SimpleType(token[0].upper(), int(token[1:])), norm)
        starts = [rng.uniform(args.low, args.high, rs.rank) for _ in range(args.starts)]
        for integrator in args.integrators.split(","):
            cfg = FlowConfig(integrator=integrator.strip(), t_end=args.t_end, tol=args.tol)
            for i, x0 in enumerate(starts):
                try:
                    traj = integrate(rs, x0, cfg)
                except PositivityError as exc:
                    print(f"{token:<6} {integrator:<10} start outside domain: {exc}")
                    failures += 1
                    continue
                dist = np.abs(traj.states[-1] - 1).max()
                if traj.termination != "converged":
                    failures += 1
                start_s = ",".join(f"{v:.3f}" for v in x0)
                print(f"{token:<6} {integrator:<10} {start_s:<28} {traj.termination:<22} "
                      f"{traj.stats.accepted:>6} {traj.stats.evaluations:>6} "
                      f"{traj.times[-1]:>9.3f} {dist:>10.2e} {traj.stats.wall_s:>7.3f}")
                if outdir:
                    traj.to_csv(outdir / f"{token}_{integrator}_{i}.csv")
    if failures:
        print(f"{failures} run(s) did not converge")
        return 1
    print("all runs converged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
