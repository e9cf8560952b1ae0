#!/usr/bin/env python3
"""Build each type's exact tables and time them layer by layer.

For every type, one line gives the milliseconds of each layer, in the
order they run: the root system (`build`, cold unless something else holds
the system), the structure constants (`constants`), the quad tables
(`quads`: zero_sum_quads and positive_quads), and the identity suite
(`verify`, with `--cocycle-limit` quads drawn by `--seed`, or all of them).
The last line is `digest <sha256>` over every type's exact tables: the
positive roots, sum_index, the sign and square tables of the structure
constants, both quad tables, and the identity report's counts, failures
and failure count, but no time. Two builds that give the same digest built
the same exact tables.

Example:
    python3 scripts/catalog_tables.py --types A8,F4,E6,E7,E8
"""

import argparse
import hashlib
import sys
import time

import numpy as np

from sktflow import (
    Normalization,
    SimpleType,
    build_root_system,
    structure_constants,
    verify_identities,
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--types", default="A2,B3,C3,D5,G2,F4,A8,E6,E7,E8",
                    help="comma-separated simple type tokens")
    ap.add_argument("--norm", default="long2", choices=["long2", "short2", "killing"])
    ap.add_argument("--cocycle-limit", type=int, default=None,
                    help="cocycle quads checked per type, drawn without replacement")
    ap.add_argument("--seed", type=int, default=0, help="sampling seed for --cocycle-limit")
    return ap.parse_args(argv)


def _feed(digest, array):
    """Add an integer array's dtype kind, shape and values to digest."""
    digest.update(f"{array.dtype.kind} {array.shape} ".encode())
    digest.update(repr(array.tolist()).encode() if array.dtype == object else array.tobytes())


def main(argv=None):
    args = parse_args(argv)
    try:
        stypes = [SimpleType.parse(token) for token in args.types.split(",")]
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    norm = Normalization.parse(args.norm)
    failed = 0
    digest = hashlib.sha256()
    print(f"{'type':<5} {'roots':>5} {'quads':>6} {'build':>8} {'constants':>9} {'quads':>8}"
          f" {'verify':>8}  identities")
    for stype in stypes:
        t0 = time.perf_counter()
        rs = build_root_system(stype, norm)
        t1 = time.perf_counter()
        sc = structure_constants(rs)
        t2 = time.perf_counter()
        quads, pairs = rs.zero_sum_quads(), rs.positive_quads()
        t3 = time.perf_counter()
        try:
            rep = verify_identities(rs, sc, cocycle_limit=args.cocycle_limit, seed=args.seed)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        t4 = time.perf_counter()
        positives = np.array([r.coeffs for r in rs.positives], dtype=np.int64)
        digest.update(f"{stype} {norm.value} ".encode())
        for array in (positives, rs.sum_index, sc.sign, sc.sq, quads, pairs):
            _feed(digest, array)
        digest.update(f"{rep.counts!r} {rep.failures!r} {rep.failure_count}".encode())
        failed += not rep.passed
        ms = [f"{1e3 * (b - a):8.3f}" for a, b in ((t0, t1), (t1, t2), (t2, t3), (t3, t4))]
        print(f"{str(stype):<5} {rs.npositive:>5} {len(quads):>6} {ms[0]} {ms[1]:>9} {ms[2]}"
              f" {ms[3]}  {'PASS' if rep.passed else 'FAIL'} ({sum(rep.counts.values())} checks)")
    print(f"{failed} type(s) failed" if failed else "all identities pass")
    print(f"digest {digest.hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
