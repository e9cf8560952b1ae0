"""The compiled root tables against their definitions, and the identity counts
they drive, for every normalization."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import constants, system
from sktflow import verify_identities

TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "D5", "A8", "E6", "E7"]
NORMS = ["long2", "short2", "killing"]

# Full-enumeration counts of the identity suite as (table entries, four-term
# cocycle quads, positive pairs), recorded from the verifier that re-derived
# every root sum from coefficient tuples. Antisymmetry, negation symmetry,
# cyclic rotation and string square each count every table entry once.
FULL_COUNTS = {
    "A1": (0, 0, 0),
    "A2": (12, 0, 3),
    "A3": (48, 6, 15),
    "B2": (24, 0, 6),
    "B3": (120, 30, 36),
    "C3": (120, 30, 36),
    "D4": (192, 72, 66),
    "G2": (60, 6, 15),
    "F4": (816, 720, 276),
    "D5": (480, 300, 190),
    "A8": (1008, 756, 630),
    "E6": (1440, 1620, 630),
    "E7": (4032, 7560, 1953),
}


def _covectors(gram, vectors) -> list[list[Fraction]]:
    """Row q of each result is sum over p of v[p] * gram[p][q]."""
    return [[sum((v[p] * gram[p][q] for p in range(len(v))), Fraction(0)) for q in range(len(v))]
            for v in vectors]


def _pairings(gram, left, right) -> list[list[Fraction]]:
    """The Fraction gram double loop over two lists of coefficient vectors."""
    return [[sum((c * y for c, y in zip(cov, b)), Fraction(0)) for b in right]
            for cov in _covectors(gram, left)]


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("token", TYPES)
def test_sum_and_difference_tables(token, norm):
    rs = system(token, norm)
    roots = [r.coeffs for r in rs.all_roots()]
    index = {c: i for i, c in enumerate(roots)}
    want_sum = [[index.get(tuple(x + y for x, y in zip(a, b)), -1) for b in roots] for a in roots]
    want_diff = [[index.get(tuple(x - y for x, y in zip(a, b)), -1) for b in roots] for a in roots]
    assert np.array_equal(rs.sum_index, want_sum)
    assert np.array_equal(rs.diff_index, want_diff)
    assert [roots[k] for k in rs.neg_index] == [tuple(-x for x in c) for c in roots]
    for a, row in zip(roots, want_sum):
        for b, k in zip(roots, row):
            assert rs.is_root(tuple(x + y for x, y in zip(a, b))) == (k >= 0)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("token", TYPES)
def test_integer_inner_products(token, norm):
    rs = system(token, norm)
    gram = rs.gram
    assert all(
        rs.gram_scale * int(rs.gram_int[p, q]) == gram[p][q]
        for p in range(rs.rank)
        for q in range(rs.rank)
    )
    pos = [r.coeffs for r in rs.positives]
    want = _pairings(gram, pos, pos)
    assert [[rs.gram_scale * int(v) for v in row] for row in rs.inner_int] == want
    roots = rs.all_roots()
    if len(roots) <= 24:
        want = _pairings(gram, [r.coeffs for r in roots], [r.coeffs for r in roots])
        for i, a in enumerate(roots):
            for j, b in enumerate(roots):
                assert rs.gram_scale * rs.inner_at(i, j) == want[i][j]
                assert rs.inner(a, b) == want[i][j]


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("token", TYPES)
def test_full_identity_counts(token, norm):
    rep = verify_identities(system(token, norm), constants(token, norm))
    assert rep.passed, rep.failures[:3]
    entries, quads, pairs = FULL_COUNTS[token]
    assert rep.counts == {
        "antisymmetry": entries,
        "negation_symmetry": entries,
        "cyclic_rotation": entries,
        "string_square": entries,
        "four_term_cocycle": quads,
        "sign_flip_square": pairs,
    }


@pytest.mark.parametrize("token", ["A3", "B3", "G2", "D4", "F4"])
def test_positive_quads_and_sums(token):
    rs = system(token)
    pos = [r.coeffs for r in rs.positives]
    n = len(pos)
    index = {c: i for i, c in enumerate(pos)}

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    want_sums = [(i, j, index[add(pos[i], pos[j])])
                 for i in range(n) for j in range(i + 1, n) if add(pos[i], pos[j]) in index]
    assert list(zip(*(v.tolist() for v in rs.positive_sums()))) == want_sums
    want_quads = [(i, j, m, l)
                  for i in range(n) for j in range(i + 1, n)
                  for m in range(n) for l in range(m + 1, n)
                  if {m, l} != {i, j} and add(pos[i], pos[j]) == add(pos[m], pos[l])]
    assert [tuple(q) for q in rs.positive_quads().tolist()] == want_quads
