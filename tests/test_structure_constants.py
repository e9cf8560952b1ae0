"""Chevalley structure constants: exact values and the identity suite."""

from fractions import Fraction
from math import comb

import pytest

from conftest import constants, system
from sktflow import Root, StructureConstants, verify_identities


def test_g2_squares():
    rs = system("G2", "short2")
    sc = constants("G2", "short2")
    a1, a2 = rs.simples
    assert sc.squared(a1, a2) == Fraction(3)
    assert sc.squared(a1, rs.root((1, 1))) == Fraction(4)
    assert sc.squared(a1, rs.root((2, 1))) == Fraction(3)
    assert sc.squared(rs.root((1, 1)), rs.root((2, 1))) == Fraction(3)


def test_b2_squares():
    rs = system("B2")
    sc = constants("B2")
    a1, a2 = rs.simples
    assert sc.squared(a1, a2) == Fraction(1)
    assert sc.squared(a2, rs.root((1, 1))) == Fraction(1)


def test_table_supported_on_root_sums():
    rs = system("A3")
    sc = constants("A3")
    roots = rs.all_roots()
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            v = sc.value(a, b)
            if any(s) and rs.is_root(s):
                assert not v.is_zero
            else:
                assert v.is_zero


def test_zero_on_non_pairs():
    sc = constants("A2")
    # sum leaves the root set
    assert sc.value(Root((1, 1)), Root((1, 0))).is_zero
    # opposite pair: bracket lands in the torus, not handled by this table
    assert sc.value(Root((1, 0)), Root((-1, 0))).is_zero


def test_extraspecial_sign_positive():
    # first special pair of each non-simple positive root carries the + choice
    for token in ("A2", "B2", "G2", "C3"):
        rs = system(token)
        sc = constants(token)
        for gamma in rs.positives:
            if gamma.height == 1:
                continue
            for a in rs.positives:
                rest = tuple(g - x for g, x in zip(gamma.coeffs, a.coeffs))
                if rs.is_root(rest) and all(c >= 0 for c in rest):
                    first = sc.value(a, rs.root(rest))
                    assert first.coeff > 0
                    break


@pytest.mark.parametrize("token", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_identity_suite(token):
    rs = system(token)
    sc = constants(token)
    rep = verify_identities(rs, sc)
    assert rep.passed, rep.failures[:5]
    if rs.npositive > 1:
        assert rep.counts["antisymmetry"] > 0
        assert rep.counts["string_square"] > 0
    if token in ("A3", "C3", "D4", "G2", "F4"):
        assert rep.counts["four_term_cocycle"] > 0


def test_identity_suite_sampled_cocycle():
    rs = system("D4")
    sc = constants("D4")
    rep = verify_identities(rs, sc, cocycle_limit=200, seed=7)
    assert rep.passed
    assert 0 < rep.counts["four_term_cocycle"] <= 200


def test_sampled_cocycle_is_seeded_and_full_at_the_limit():
    rs = system("D4")
    sc = constants("D4")
    full = verify_identities(rs, sc)
    total = comb(2 * rs.npositive, 3)
    assert verify_identities(rs, sc, cocycle_limit=total, seed=5).counts == full.counts
    first = verify_identities(rs, sc, cocycle_limit=total - 1, seed=5)
    again = verify_identities(rs, sc, cocycle_limit=total - 1, seed=5)
    assert first.passed and first.counts == again.counts
    assert first.counts["four_term_cocycle"] > 0
    with pytest.raises(ValueError, match="nonnegative"):
        verify_identities(rs, sc, cocycle_limit=-1)


def _decompositions(rs, gamma):
    """Pairs (a, b) of positive roots, a before b, with a + b = gamma."""
    out = []
    for i, a in enumerate(rs.positives):
        rest = tuple(g - x for g, x in zip(gamma.coeffs, a.coeffs))
        if all(c >= 0 for c in rest) and rs.is_root(rest):
            if rs.index_of(rest) > i:
                out.append((a, rs.root(rest)))
    return out


@pytest.mark.parametrize("token", ["D4", "F4"])
def test_verifier_catches_flipped_non_extraspecial_pair(token):
    # Flipping every entry that N(a, b) determines keeps antisymmetry, negation,
    # the cyclic rotation and the string squares; only the four-term cocycle
    # that ties (a, b) to the extraspecial pair of a + b can see it.
    rs = system(token)
    sc = constants(token)
    a, b = next(d[1] for d in (_decompositions(rs, g) for g in rs.positives) if len(d) > 1)
    mxi = -rs.root(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    keys = [
        key
        for x, y in ((a, b), (b, mxi), (mxi, a))
        for key in ((x, y), (y, x), (-x, -y), (-y, -x))
    ]
    broken = dict(sc.table)
    for x, y in keys:
        broken[x.coeffs, y.coeffs] = -broken[x.coeffs, y.coeffs]
    rep = verify_identities(rs, StructureConstants(system=rs, table=broken))
    assert len(keys) == 12
    assert rep.counts == verify_identities(rs, sc).counts
    assert rep.failures
    assert all(f.startswith("four-term cocycle") for f in rep.failures), rep.failures[:3]


def test_normalization_covariance_of_squares():
    # squared constants scale linearly with the inner product scale
    rl = system("B2")
    rsh = system("B2", "short2")
    sl = constants("B2")
    ssh = constants("B2", "short2")
    for a in rl.positives:
        for b in rl.positives:
            s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            if rl.is_root(s):
                assert ssh.squared(a, b) == 2 * sl.squared(a, b)
