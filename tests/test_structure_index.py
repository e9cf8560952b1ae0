"""The index-native structure constants against the Surd recursion, the
per-entry Fraction verifier and the triple enumeration of cocycle quads they
replaced, and the root tables against the tuple-by-tuple reflection search,
kept here as references."""

from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import sktflow.structure as structure
from conftest import constants, system
from sktflow import (
    ConsistencyError,
    Normalization,
    SimpleType,
    StructureConstants,
    Surd,
    root_string,
    structure_constants,
    verify_identities,
)
from sktflow.roots import _build_root_system, _gram_long2, _integer_gram

_ZERO = Surd.of(0)
_DRAW_CHUNK = 1 << 16  # cocycle triples unranked per numpy block

TABLE_TYPES = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
NORMS = ["long2", "short2", "killing"]


def _triples(nroots: int, cocycle_limit: int | None, seed: int):
    """Blocks (a, b, c), a < b < c, of root-index triples for the cocycle check.

    Triples are unranked from the combinatorial number system, rank =
    C(c, 3) + C(b, 2) + a: every rank below C(nroots, 3) in turn, or
    cocycle_limit ranks drawn uniformly and independently when that is fewer.
    """
    total = comb(nroots, 3)
    sampled = cocycle_limit is not None and cocycle_limit < total
    if sampled and cocycle_limit < 0:
        raise ValueError(f"cocycle_limit must be nonnegative, got {cocycle_limit}")
    rng = np.random.default_rng(seed) if sampled else None  # numpy.random loads lazily
    k = np.arange(nroots)
    choose3, choose2 = k * (k - 1) * (k - 2) // 6, k * (k - 1) // 2
    count = cocycle_limit if sampled else total
    for start in range(0, count, _DRAW_CHUNK):
        size = min(_DRAW_CHUNK, count - start)
        ranks = rng.integers(0, total, size=size) if sampled else np.arange(start, start + size)
        c = np.searchsorted(choose3, ranks, "right") - 1
        ranks = ranks - choose3[c]
        b = np.searchsorted(choose2, ranks, "right") - 1
        yield ranks - choose2[b], b, c


def _cocycle_quads(rs, a, b, c):
    """The (a, b, c, d) among the triples with d = -(a+b+c) a root of index
    above c and no opposite pair among a, b, c."""
    add, neg = rs.sum_index, rs.neg_index
    # a+b+c = e a root has <e, x> > 0 for some x in {a, b, c}, so e - x is a
    # root (or zero, an opposite pair): e is reached through one pair sum
    e = np.full(len(a), -1)
    for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
        xy = add[x, y]
        e = np.maximum(e, np.where(xy >= 0, add[xy, z], -1))
    d = np.where(e >= 0, neg[e], -1)
    keep = (d > c) & (a != neg[b]) & (a != neg[c]) & (b != neg[c])
    return a[keep], b[keep], c[keep], d[keep]


def reference_quads(rs):
    """The cocycle quads by unranking every root-index triple, in rank order."""
    blocks = [np.stack(_cocycle_quads(rs, *block), axis=1)
              for block in _triples(2 * rs.npositive, None, 0)]
    return np.concatenate(blocks) if blocks else np.zeros((0, 4), dtype=np.intp)


def _string_square(rs, i, j):
    roots = rs.all_roots()
    p, q = root_string(rs, roots[i], roots[j])
    return Fraction(q * (1 - p) * rs.inner_at(i, i), 2) * rs.gram_scale


def reference_table(rs):
    """The signed table as a dict of Surds, by the Surd height recursion."""
    n = rs.npositive
    add, sub, neg = rs.sum_index, rs.diff_index, rs.neg_index
    coeffs = [r.coeffs for r in rs.all_roots()]
    table = {}

    def get(x, y):
        return table.get((coeffs[x], coeffs[y]), _ZERO)

    def insert_closure(eta, rho, w):
        nxi = int(neg[add[eta, rho]])
        for x, y in ((eta, rho), (rho, nxi), (nxi, eta)):
            nx, ny = int(neg[x]), int(neg[y])
            for (u, v), val in (((x, y), w), ((y, x), -w), ((nx, ny), -w), ((ny, nx), w)):
                table[coeffs[u], coeffs[v]] = val

    for g, gamma in enumerate(rs.positives):
        if gamma.height == 1:
            continue
        rest = sub[g, :g]
        pairs = [(int(a), int(rest[a])) for a in np.nonzero((rest > np.arange(g)) & (rest < n))[0]]
        a1, b1 = pairs[0]
        w1 = Surd.sqrt(_string_square(rs, a1, b1))
        insert_closure(a1, b1, w1)
        for a, b in pairs[1:]:
            na, nb = int(neg[a]), int(neg[b])
            val = (get(a1, nb) * get(b1, na) - get(a1, na) * get(b1, nb)) / w1
            assert val.squared() == _string_square(rs, a, b)
            insert_closure(a, b, val)
    return table


def reference_verify(rs, table):
    """(counts, failures) of the per-entry Fraction verifier on a dict table."""
    counts = dict.fromkeys(
        ("antisymmetry", "negation_symmetry", "cyclic_rotation", "string_square",
         "four_term_cocycle", "sign_flip_square"), 0)
    failures = []
    add, neg = rs.sum_index, rs.neg_index
    coeffs = [r.coeffs for r in rs.all_roots()]
    nroots = len(coeffs)
    by_index = np.full((nroots, nroots), _ZERO, dtype=object)
    entries = []
    for (r, s), v in table.items():
        i, j = rs.index_of(r), rs.index_of(s)
        by_index[i, j] = v
        entries.append((i, j, v))

    def at(i, j):
        return by_index[i, j]

    for i, j, v in entries:
        r, s = coeffs[i], coeffs[j]
        counts["antisymmetry"] += 1
        if at(j, i) != -v:
            failures.append(f"antisymmetry at ({r}, {s})")
        counts["negation_symmetry"] += 1
        if at(neg[i], neg[j]) != -v:
            failures.append(f"negation symmetry at ({r}, {s})")
        counts["cyclic_rotation"] += 1
        k = add[i, j]
        if k < 0 or at(j, neg[k]) != v or at(neg[k], i) != v:
            failures.append(f"cyclic rotation at ({r}, {s})")
        counts["string_square"] += 1
        if v.squared() != _string_square(rs, i, j):
            failures.append(f"string square at ({r}, {s})")

    def quad_holds(a, b, c, d):
        acc = {}
        for t, sgn in ((at(a, b) * at(c, d), 1), (at(a, c) * at(b, d), -1), (at(a, d) * at(b, c), 1)):
            if not t.is_zero:
                acc[t.core] = acc.get(t.core, Fraction(0)) + sgn * t.coeff
        return all(val == 0 for val in acc.values())

    for block in _triples(nroots, None, 0):
        for a, b, c, d in zip(*(x.tolist() for x in _cocycle_quads(rs, *block))):
            counts["four_term_cocycle"] += 1
            if not quad_holds(a, b, c, d):
                failures.append(
                    f"four-term cocycle at ({coeffs[a]}, {coeffs[b]}, {coeffs[c]}, {coeffs[d]})"
                )

    pos = rs.positives
    for i, j in zip(*np.triu_indices(len(pos), 1)):
        counts["sign_flip_square"] += 1
        lhs = at(i, neg[j]).squared()
        rhs = at(i, j).squared() + rs.gram_scale * rs.inner_at(i, j)
        if lhs != rhs:
            failures.append(f"sign flip square at ({pos[i].label}, {pos[j].label})")
    return counts, failures


def reference_positives(stype):
    """The positive roots' coefficient tuples sorted by (height, coefficients),
    by reflecting one tuple at a time through every simple reflection."""
    g = _integer_gram(_gram_long2(stype))[0].tolist()
    n = stype.rank
    known = {tuple(int(i == j) for i in range(n)) for j in range(n)}
    level = list(known)
    while level:
        nxt = []
        for coeffs in level:
            for j in range(n):
                pairing = 2 * sum(c * g[i][j] for i, c in enumerate(coeffs) if c)
                assert pairing % g[j][j] == 0
                image = list(coeffs)
                image[j] -= pairing // g[j][j]
                if tuple(image) not in known:
                    known.add(tuple(image))
                    nxt.append(tuple(image))
        level = nxt
    return sorted((c for c in known if sum(c) > 0), key=lambda c: (sum(c), c))


# ------------------------------------------------------------ tables


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("token", TABLE_TYPES)
def test_root_tables_equal_the_reflection_search(token, norm):
    rs = system(token, norm)
    pos = reference_positives(rs.stype)
    assert [r.coeffs for r in rs.positives] == pos
    assert rs.maximal_root.coeffs == pos[-1] and rs.maximal_root.sign == 1
    roots = pos + [tuple(-c for c in r) for r in pos]
    index = {c: i for i, c in enumerate(roots)}
    for table, op in ((rs.sum_index, 1), (rs.diff_index, -1)):
        want = [[index.get(tuple(x + op * y for x, y in zip(a, b)), -1) for b in roots]
                for a in roots]
        assert np.array_equal(table, want)


@pytest.mark.parametrize("token", ["A1", "G2", "F4", "E7"])
def test_per_system_tables_are_built_once_and_read_only(token):
    rs = system(token)
    for table in (rs.zero_sum_quads, rs.positive_quads, lambda: structure._string_squares(rs)):
        first = table()
        assert table() is first
        assert not first.flags.writeable
    # a fresh system of the type builds equal tables of its own
    fresh = _build_root_system(rs.stype, Normalization.LONG2)
    assert fresh.zero_sum_quads() is not rs.zero_sum_quads()
    assert np.array_equal(fresh.zero_sum_quads(), rs.zero_sum_quads())
    assert np.array_equal(structure._string_squares(fresh), structure._string_squares(rs))


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("token", TABLE_TYPES)
def test_tables_are_unchanged(token, norm):
    rs = system(token, norm)
    sc = constants(token, norm)
    ref = reference_table(rs)
    assert len(sc.table) == len(ref)
    assert set(sc.table) == set(ref)
    nroots = 2 * rs.npositive
    want = np.zeros((nroots, nroots))
    for (r, s), v in ref.items():
        i, j = rs.index_of(r), rs.index_of(s)
        got = sc.at(i, j)
        assert got == v and sc.table[r, s] == v
        assert (got.coeff, got.core) == (v.coeff, v.core)
        assert sc.sign[i, j] == (1 if v.coeff > 0 else -1)
        assert sc.squared(r, s) == v.squared()
        want[i, j] = float(v)
    assert np.count_nonzero(sc.sign) == len(ref)
    hexes = [[x.hex() for x in row] for row in want.tolist()]
    assert [[x.hex() for x in row] for row in sc.float_array.tolist()] == hexes
    assert not sc.float_array.flags.writeable


@pytest.mark.parametrize("token", TABLE_TYPES)
def test_zero_sum_quads_match_the_triple_enumeration(token):
    rs = system(token)
    assert np.array_equal(rs.zero_sum_quads(), reference_quads(rs))


def test_mapping_constructor_round_trips():
    rs = system("F4")
    sc = constants("F4")
    again = StructureConstants(system=rs, table=dict(sc.table))
    assert again.unit == sc.unit
    assert np.array_equal(again.sign, sc.sign) and np.array_equal(again.sq, sc.sq)
    assert again.sq.dtype == np.int64


def test_derived_value_that_breaks_the_string_formula_raises(monkeypatch):
    rs = system("G2")
    strings = structure._string_squares(rs)
    bumped = strings.copy()
    # the second decomposition of the highest root
    n = rs.npositive
    a, b = [(a, b) for a in range(n) for b in range(a + 1, n) if rs.sum_index[a, b] == n - 1][1]
    bumped[a, b] += 1
    monkeypatch.setattr(structure, "_string_squares", lambda _: bumped)
    with pytest.raises(ConsistencyError, match="disagrees with the string formula"):
        structure_constants(rs)


# ------------------------------------------------------------ checks

CORRUPT_TYPES = ["B2", "G2", "A3", "B3", "C3", "D4", "F4"]


def _closure_keys(rs):
    """The 12 keys one non-extraspecial positive pair (a, b) determines, or None."""
    n = rs.npositive
    for g in range(n):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rs.sum_index[a, b] == g]
        if len(pairs) > 1:
            a, b = pairs[1]
            break
    else:
        return None
    coeffs = [r.coeffs for r in rs.all_roots()]
    neg, mxi = rs.neg_index, rs.neg_index[rs.sum_index[a, b]]
    return [
        (coeffs[u], coeffs[v])
        for x, y in ((a, b), (b, mxi), (mxi, a))
        for u, v in ((x, y), (y, x), (neg[x], neg[y]), (neg[y], neg[x]))
    ]


def _corrupt(rs, table, how):
    table = dict(table)
    keys = sorted(table)
    key = keys[len(keys) // 3]
    if how == "flip_one":
        table[key] = -table[key]
    elif how == "flip_closure":
        for k in _closure_keys(rs):
            table[k] = -table[k]
    elif how == "times_two":
        table[key] = table[key] * 2
    elif how == "times_sqrt_3_2":
        table[key] = table[key] * Surd(Fraction(1, 2), 6)
    elif how == "zero":
        table[key] = _ZERO
    elif how == "extra_entry":
        coeffs = [r.coeffs for r in rs.all_roots()]
        i, j = next(
            (i, j) for i in range(len(coeffs)) for j in range(len(coeffs))
            if rs.sum_index[i, j] < 0 and j not in (i, rs.neg_index[i])
        )
        table[coeffs[i], coeffs[j]] = Surd.of(1)
    elif how == "huge_denominator":
        table[key] = table[key] * Surd.sqrt(Fraction(3, 2**80))
    return table


CORRUPTIONS = [
    "flip_one", "flip_closure", "times_two", "times_sqrt_3_2", "zero", "extra_entry",
    "huge_denominator",
]
CASES = [
    (token, how)
    for token in CORRUPT_TYPES
    for how in CORRUPTIONS
    if how != "flip_closure" or _closure_keys(system(token)) is not None
]


@pytest.mark.parametrize("token,how", CASES)
def test_checks_still_catch_what_they_caught(token, how, monkeypatch):
    rs = system(token)
    broken = _corrupt(rs, reference_table(rs), how)
    want_counts, want_failures = reference_verify(rs, broken)
    sc = StructureConstants(system=rs, table=broken)
    assert sc.sq.dtype == (object if how == "huge_denominator" else np.int64)
    rep = verify_identities(rs, sc)
    assert rep.counts == want_counts
    assert rep.failure_count == len(want_failures) > 0
    assert not rep.passed
    assert len(rep.failures) == min(len(want_failures), structure._MAX_FAILURES)
    assert not Counter(rep.failures) - Counter(want_failures)
    monkeypatch.setattr(structure, "_MAX_FAILURES", 10**9)
    assert Counter(verify_identities(rs, sc).failures) == Counter(want_failures)


@pytest.mark.parametrize("token", ["A3", "B3", "G2", "D4", "F4", "E6"])
def test_object_path_keeps_reports(token, monkeypatch):
    rs = system(token)
    sampled = {"cocycle_limit": 3000, "seed": 2} if token == "E6" else {}
    want = verify_identities(rs, constants(token), **sampled)
    broken = _corrupt(rs, constants(token).table, "flip_one")
    want_broken = verify_identities(rs, StructureConstants(system=rs, table=broken), **sampled)
    monkeypatch.setattr(structure, "_INT64_SAFE", 0)
    sc = structure_constants(rs)
    assert sc.sq.dtype == object
    assert np.array_equal(sc.sign, constants(token).sign)
    assert np.array_equal(sc.sq, constants(token).sq)
    assert verify_identities(rs, sc, **sampled) == want
    got_broken = verify_identities(rs, StructureConstants(system=rs, table=broken), **sampled)
    assert got_broken == want_broken and not got_broken.passed


def test_table_of_another_type_is_refused():
    a2, b3 = system("A2"), system("B3")
    with pytest.raises(ValueError, match="B3.*A2"):
        verify_identities(a2, constants("B3"))
    with pytest.raises(ValueError, match="A2.*B3"):
        verify_identities(b3, constants("A2"))


def test_normalization_mismatch_is_reported():
    rep = verify_identities(system("G2", "killing"), constants("G2", "long2"))
    want_counts, want_failures = reference_verify(
        system("G2", "killing"), reference_table(system("G2", "long2"))
    )
    assert rep.counts == want_counts
    assert rep.failure_count == len(want_failures) == 72
    assert Counter(rep.failures) == Counter(want_failures)


def test_failure_messages_are_capped_and_counted():
    rs = system("F4")
    broken = {k: v * 2 for k, v in constants("F4").table.items()}
    _, want_failures = reference_verify(rs, broken)
    rep = verify_identities(rs, StructureConstants(system=rs, table=broken))
    assert rep.failure_count == len(want_failures) > 100
    assert len(rep.failures) == 100
    assert rep.failures == [f for f in want_failures if f.startswith("string square")][:100]
    assert rep.elapsed_s > 0
    again = verify_identities(rs, StructureConstants(system=rs, table=broken))
    assert again == rep  # elapsed_s is not compared


# ------------------------------------------------------------ sampled cocycle


def _randomly_signed(token):
    """The table with each entry's sign flipped by a fair coin, so that about
    half of the cocycle quads fail."""
    rs = system(token)
    rng = np.random.default_rng(0)
    table = {k: -v if rng.random() < 0.5 else v for k, v in sorted(constants(token).table.items())}
    return rs, StructureConstants(system=rs, table=table)


def _cocycle_failures(rep):
    return [f for f in rep.failures if f.startswith("four-term cocycle")]


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(x in rest for x in part)


@pytest.mark.parametrize("limit", [0, 1, 40, 299, 300, 301, 10**6])
def test_sampled_cocycle_checks_distinct_quads_of_the_full_list(limit, monkeypatch):
    monkeypatch.setattr(structure, "_MAX_FAILURES", 10**9)
    rs, sc = _randomly_signed("D5")
    nquads = len(rs.zero_sum_quads())
    assert nquads == 300
    full = verify_identities(rs, sc)
    failing = _cocycle_failures(full)
    assert len(set(failing)) == len(failing) > nquads // 3
    rep = verify_identities(rs, sc, cocycle_limit=limit, seed=3)
    assert rep.counts["four_term_cocycle"] == min(limit, nquads)
    # the quads checked are distinct and kept in list order
    assert _is_subsequence(_cocycle_failures(rep), failing)
    assert rep == verify_identities(rs, sc, cocycle_limit=limit, seed=3)
    if limit >= nquads:
        assert rep == full
    elif limit > 1:
        other = verify_identities(rs, sc, cocycle_limit=limit, seed=4)
        assert _cocycle_failures(other) != _cocycle_failures(rep)
    assert [f for f in rep.failures if f not in failing] == [
        f for f in full.failures if f not in failing
    ]


@pytest.mark.parametrize("token", ["A8", "F4", "E7"])
def test_a_warm_check_equals_a_cold_one(token):
    rs = system(token)
    nquads = len(rs.zero_sum_quads())
    entries = sorted(constants(token).table.items())
    flipped = {k: -v if n % 7 == 0 else v for n, (k, v) in enumerate(entries)}
    for table in (None, flipped):
        warm_sc = constants(token) if table is None else StructureConstants(system=rs, table=table)
        for seed in range(3):
            for limit in (0, nquads // 10, None):
                # a system nothing else holds: its quads, string squares and
                # squarefree split are built anew
                cold = _build_root_system(rs.stype, Normalization.LONG2)
                cold_sc = structure_constants(cold) if table is None else StructureConstants(
                    system=cold, table=table)
                want = verify_identities(cold, cold_sc, cocycle_limit=limit, seed=seed)
                for _ in range(2):
                    got = verify_identities(rs, warm_sc, cocycle_limit=limit, seed=seed)
                    assert (got.counts, got.failures, got.failure_count) == (
                        want.counts, want.failures, want.failure_count)
                assert got.passed == (table is None)


@pytest.mark.parametrize("token", ["A2", "G2"])
@pytest.mark.parametrize("name,value", [
    ("seed", -1), ("seed", True), ("seed", 2.5), ("seed", None), ("seed", "1"),
    ("cocycle_limit", -1), ("cocycle_limit", True), ("cocycle_limit", False),
    ("cocycle_limit", 2.5), ("cocycle_limit", "3"),
])
def test_seed_and_cocycle_limit_must_be_nonnegative_ints(token, name, value, monkeypatch):
    rs, sc = system(token), constants(token)
    # refused before any work: the quads are not even read
    monkeypatch.setattr(type(rs), "zero_sum_quads", lambda self: pytest.fail("quads were read"))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        verify_identities(rs, sc, **{name: value})


@pytest.mark.parametrize("token", ["A2", "G2"])
def test_integer_seeds_and_limits_are_accepted(token):
    rs, sc = system(token), constants(token)
    full = verify_identities(rs, sc)
    for kwargs in ({"seed": np.int64(3), "cocycle_limit": np.int32(1)},
                   {"seed": 0, "cocycle_limit": 0}):
        rep = verify_identities(rs, sc, **kwargs)
        assert rep.passed
        assert rep.counts["four_term_cocycle"] == min(kwargs["cocycle_limit"],
                                                     full.counts["four_term_cocycle"])
