#!/usr/bin/env python3
"""Batch flow runs across types and integrators, with trajectory dumps.

A product is one token with its factors joined by x, such as A2xG2; its
starts are drawn factor by factor. After the runs, one `total` line per
integrator gives its summed evaluations and wall_s and the microseconds per
evaluation, the flow's per-evaluation cost. The last line is `digest <sha256>` over
every run's times, states, F values and gradient norms, its termination and
its FlowStats but wall_s (or its error), so two builds that give the same
digest at one seed gave the same bits.

Example:
    python3 scripts/flow_battery.py --types A2,B2,G2,A3,A2xG2 --starts 5 --outdir runs/
"""

import argparse
import hashlib
import sys
from dataclasses import asdict
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
from sktflow.flow import F_RISE_TOL


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--types", default="A2,B2,G2,A3",
                    help="comma-separated type tokens, products joined by x (A2xG2)")
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


def _feed(digest, traj):
    """Add one run's arrays, termination and FlowStats but wall_s to digest."""
    for column in (traj.times, traj.states, traj.f_values, traj.grad_inf):
        digest.update(column.tobytes())
    stats = {name: value for name, value in asdict(traj.stats).items() if name != "wall_s"}
    digest.update(f"{traj.termination} {stats!r}".encode())


def main(argv=None):
    args = parse_args(argv)
    groups = []
    for token in args.types.split(","):
        try:
            groups.append(SimpleType.parse_product(token))
        except ValueError as exc:
            print(f"error: in {token.strip()!r}: {exc}")
            return 2
    rng = np.random.default_rng(args.seed)
    outdir = Path(args.outdir) if args.outdir else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    norm = Normalization.parse(args.norm)
    failures = 0
    totals = {}  # integrator: [evaluations, wall_s]
    digest = hashlib.sha256()
    print(f"{'type':<6} {'integrator':<10} {'start':<28} {'termination':<22} "
          f"{'steps':>6} {'evals':>6} {'halvings':>8} {'f_rises':>7} {'t_final':>9} "
          f"{'dist_to_1':>10} {'wall_s':>7}")
    for stypes in groups:
        token = "x".join(str(stype) for stype in stypes)
        systems = [build_root_system(stype, norm) for stype in stypes]
        starts = [
            np.concatenate([rng.uniform(args.low, args.high, rs.rank) for rs in systems])
            for _ in range(args.starts)
        ]
        for integrator in args.integrators.split(","):
            cfg = FlowConfig(integrator=integrator.strip(), t_end=args.t_end, tol=args.tol)
            for i, x0 in enumerate(starts):
                try:
                    traj = integrate(systems, x0, cfg)
                except PositivityError as exc:
                    print(f"{token:<6} {integrator:<10} start outside domain: {exc}")
                    digest.update(f"error {exc}".encode())
                    failures += 1
                    continue
                _feed(digest, traj)
                total = totals.setdefault(cfg.integrator, [0, 0.0])
                total[0] += traj.stats.evaluations
                total[1] += traj.stats.wall_s
                dist = np.abs(traj.states[-1] - 1).max()
                rise = np.diff(traj.f_values).max(initial=0.0)
                if traj.termination != "converged" or rise > F_RISE_TOL:
                    failures += 1
                start_s = ",".join(f"{v:.3f}" for v in x0)
                st = traj.stats
                print(f"{token:<6} {integrator:<10} {start_s:<28} {traj.termination:<22} "
                      f"{st.accepted:>6} {st.evaluations:>6} {st.halvings:>8} {st.f_rises:>7} "
                      f"{traj.times[-1]:>9.3f} {dist:>10.2e} {st.wall_s:>7.3f}")
                if rise > F_RISE_TOL:
                    print(f"{token:<6} {integrator:<10} F rose by {rise:.3g}")
                if outdir:
                    traj.to_csv(outdir / f"{token}_{integrator}_{i}.csv")
    if failures:
        print(f"{failures} run(s) did not converge or raised F")
    else:
        print("all runs converged without raising F")
    for integrator, (evaluations, wall_s) in totals.items():
        per_evaluation = 1e6 * wall_s / evaluations
        print(f"total {integrator:<10} evaluations {evaluations}  wall_s {wall_s:.3f}  "
              f"us_per_evaluation {per_evaluation:.2f}")
    print(f"digest {digest.hexdigest()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
