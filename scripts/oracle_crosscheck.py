#!/usr/bin/env python3
"""Cross-check the closed-form residual scan against the cochain differential.

Draws random fiber values (on and off the distinguished family) and random
torus metrics, then compares the two pluriclosed scans component by
component. Also re-verifies the structure-constant identities per type, and
saves each scanned structure and loads it back (a torus metric coupling the
factors does not serialize and is skipped): the loaded structure's
closed-form report must equal the original's. Each scanned d^c omega is
also rebuilt through the public InvariantForm constructors, from its arrays
and from its dict, and the exterior derivative of each rebuilt form must
give the keys and value bits of the package-built one.
A token such as A2xG2 is a product: its identities are checked per factor,
family points are drawn per factor, and off-family points get a torus
metric of the total rank that couples the factors. The last line is
`digest <sha256>` over every scan report's verdict, residuals (as float hex),
witness and check count, but not its elapsed time, so two builds that give
the same digest at one seed gave the same reports.

Example:
    python3 scripts/oracle_crosscheck.py --types A2,B2,C3,A2xG2 --samples 20
"""

import argparse
import hashlib
import os
import sys
import tempfile
import time

import numpy as np

from sktflow import (
    FactorSpec,
    GroupSpec,
    InvariantForm,
    Normalization,
    SimpleType,
    dc_form,
    exterior_derivative,
    family_bound,
    is_pluriclosed,
    load_structure,
    pluriclosed_family,
    save_structure,
    structure_constants,
    verify_identities,
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--types", default="A2,A3,B2,B3,C3,G2")
    ap.add_argument("--norm", default="long2", choices=["long2", "short2", "killing"])
    ap.add_argument("--samples", type=int, default=10, help="random metrics per type")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-10, help="max allowed scan disagreement")
    return ap.parse_args(argv)


def _feed(digest, report):
    """Add one report but its elapsed time to digest."""
    residuals = (report.max_residual, report.skt1_max, report.skt2_max)
    digest.update(
        f"{report.verdict} {' '.join(v.hex() for v in residuals)} {report.witness!r}"
        f" {report.checked}".encode()
    )


def _roundtrip(h, closed, path):
    """None when h does not serialize, else whether h saved to path and
    loaded back gives the closed-form report closed."""
    try:
        save_structure(h, path)
    except ValueError:  # a torus metric coupling the factors
        return None
    return is_pluriclosed(load_structure(path)) == closed


def _rebuilds_agree(h):
    """Whether d^c omega of h, rebuilt by InvariantForm.from_arrays and by the
    dict constructor, has the exterior derivative of the package-built form,
    keys, order and value bits included."""
    dc = dc_form(h)
    want = exterior_derivative(dc).arrays()
    rebuilt = (
        InvariantForm.from_arrays(dc.basis, dc.degree, *dc.arrays()),
        InvariantForm(dc.basis, dc.degree, dict(dc.components)),
    )
    return all(
        all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(exterior_derivative(form).arrays(), want))
        for form in rebuilt
    )


def main(argv=None):
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        return _run(args, os.path.join(tmp, "structure.json"))


def _run(args, path):
    groups = []
    for token in args.types.split(","):
        try:
            groups.append((token.strip(), SimpleType.parse_product(token)))
        except ValueError as exc:
            print(f"error: in {token.strip()!r}: {exc}")
            return 2
    rng = np.random.default_rng(args.seed)
    norm = Normalization.parse(args.norm)
    bad = 0
    digest = hashlib.sha256()
    for token, stypes in groups:
        t0 = time.perf_counter()
        g = GroupSpec([FactorSpec(stype, norm) for stype in stypes])
        passed = all(verify_identities(rs, structure_constants(rs)).passed for rs in g.systems)
        ident = "ok" if passed else "FAILED"
        r = g.layout.size
        worst = 0.0
        trips = kept = rebuilt = 0
        for k in range(args.samples):
            if k % 2 == 0:
                vals = [rng.uniform(family_bound(rs) + 1e-3, 2.5, rs.rank) for rs in g.systems]
                h = pluriclosed_family(g, [tuple(v) for v in vals])
            else:
                x = [tuple(rng.uniform(0.4, 2.5, rs.npositive)) for rs in g.systems]
                a = rng.normal(size=(r, r))
                h = g.build(x=x, torus=a @ a.T + r * np.eye(r))
            closed = is_pluriclosed(h)
            brute = is_pluriclosed(h, mode="brute_force")
            _feed(digest, closed)
            _feed(digest, brute)
            worst = max(
                worst,
                abs(closed.max_residual - brute.max_residual),
                abs(closed.skt1_max - brute.skt1_max),
                abs(closed.skt2_max - brute.skt2_max),
            )
            if closed.verdict != brute.verdict:
                worst = float("inf")
            rebuilt += _rebuilds_agree(h)
            same = _roundtrip(h, closed, path)
            if same is not None:
                trips += 1
                kept += same
        status = "ok" if worst < args.tol else "DISAGREE"
        trip = "ok" if kept == trips else "CHANGED"
        forms = "ok" if rebuilt == args.samples else "CHANGED"
        if status != "ok" or ident != "ok" or trip != "ok" or forms != "ok":
            bad += 1
        print(
            f"{token:<6} identities {ident:<7} scan agreement {worst:.3e} {status:<9} "
            f"round trips {kept}/{trips} {trip:<7} rebuilt forms {rebuilt}/{args.samples}"
            f" {forms:<7} ({time.perf_counter() - t0:.2f}s)"
        )
    print(f"{bad} type(s) failed" if bad else "all types agree")
    print(f"digest {digest.hexdigest()}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
