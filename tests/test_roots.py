"""Root enumeration, gram data, normalization scaling, root strings."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import system
from sktflow import (
    ConsistencyError,
    DynkinTypeError,
    FactorLayout,
    FactorSpec,
    GroupSpec,
    Normalization,
    Root,
    RootStringError,
    SimpleType,
    build_root_system,
    killing_normalization_constant,
    moduli_dimensions,
    root_string,
)

COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A7": 28,
    "B2": 4, "B3": 9, "B5": 25,
    "C3": 9, "C4": 16,
    "D3": 6, "D4": 12, "D6": 30,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24, "G2": 6,
}


@pytest.mark.parametrize("token,count", sorted(COUNTS.items()))
def test_positive_counts(token, count):
    rs = system(token)
    assert rs.npositive == count
    assert len({r.coeffs for r in rs.positives}) == count


def test_invalid_types():
    with pytest.raises(DynkinTypeError, match="D requires rank ≥ 3"):
        SimpleType("D", 2)
    with pytest.raises(DynkinTypeError, match="B requires rank ≥ 2"):
        SimpleType("B", 1)
    with pytest.raises(DynkinTypeError, match=r"E requires rank"):
        SimpleType("E", 5)
    with pytest.raises(DynkinTypeError, match="F requires rank 4"):
        SimpleType("F", 3)
    with pytest.raises(DynkinTypeError, match="G requires rank 2"):
        SimpleType("G", 3)
    with pytest.raises(DynkinTypeError):
        SimpleType("H", 2)
    with pytest.raises(DynkinTypeError):
        SimpleType("A", 0)


@pytest.mark.parametrize("rank", [True, 2.0, "2"])
def test_rank_must_be_an_int(rank):
    with pytest.raises(DynkinTypeError, match="rank must be a positive integer"):
        SimpleType("A", rank)


def test_parse_type_token():
    assert SimpleType.parse("A2") == SimpleType("A", 2)
    assert SimpleType.parse(" d4 ") == SimpleType("D", 4)
    assert SimpleType.parse("E8") == SimpleType("E", 8)
    for bad in ("A2x", "A", "", "2", "A-2", "A²", "AA2"):
        with pytest.raises(DynkinTypeError, match="cannot parse type token"):
            SimpleType.parse(bad)
    for bad, message in (("Q2", "unknown family"), ("E5", "E requires rank")):
        with pytest.raises(DynkinTypeError, match=message):
            SimpleType.parse(bad)


def test_parse_product_token():
    g2 = SimpleType("G", 2)
    assert SimpleType.parse_product("A2xG2") == (SimpleType("A", 2), g2)
    assert SimpleType.parse_product(" a1 x b3xg2 ") == (SimpleType("A", 1), SimpleType("B", 3), g2)
    assert SimpleType.parse_product("E8") == (SimpleType("E", 8),)
    for bad in ("A2x", "xA2", "A2xxG2", "A2x ", "", " "):
        with pytest.raises(DynkinTypeError, match="has an empty factor"):
            SimpleType.parse_product(bad)
    for bad, message in (("A2xQ2", "unknown family"), ("A2xG", "cannot parse type token")):
        with pytest.raises(DynkinTypeError, match=message):
            SimpleType.parse_product(bad)


def test_gram_oracles():
    assert system("A2").gram == ((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2)))
    assert system("B2").gram == ((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(1)))
    assert system("G2").gram == (
        (Fraction(2, 3), Fraction(-1)),
        (Fraction(-1), Fraction(2)),
    )
    assert system("G2", "short2").gram == (
        (Fraction(2), Fraction(-3)),
        (Fraction(-3), Fraction(6)),
    )
    # C3: two short then one long simple root
    g = system("C3").gram
    assert [g[i][i] for i in range(3)] == [Fraction(1), Fraction(1), Fraction(2)]


def test_gram_symmetric_and_positive():
    for token in ("A3", "B3", "C4", "D4", "F4", "E6"):
        rs = system(token)
        G = rs.gram_float
        assert np.allclose(G, G.T)
        assert np.linalg.eigvalsh(G).min() > 0


def test_canonical_order():
    rs = system("G2")
    labels = [r.label for r in rs.positives]
    assert labels == ["a2", "a1", "a1+a2", "2a1+a2", "3a1+a2", "3a1+2a2"]
    heights = [r.height for r in rs.positives]
    assert heights == sorted(heights)


def test_simples_are_coordinate_order():
    for token in ("A3", "B2", "G2", "D4"):
        rs = system(token)
        for j, s in enumerate(rs.simples):
            assert s.coeffs == tuple(int(i == j) for i in range(rs.rank))


def test_maximal_root():
    assert system("A2").maximal_root.coeffs == (1, 1)
    assert system("G2").maximal_root.coeffs == (3, 2)
    assert system("F4").maximal_root.coeffs == (2, 3, 4, 2)
    assert system("E8").maximal_root.height == 29


def test_root_negation_and_labels():
    r = Root((1, 2))
    assert r.label == "a1+2a2"
    assert (-r).label == "-(a1+2a2)"
    assert (-r).coeffs == (-1, -2)
    assert (-(-r)) == r
    with pytest.raises(ValueError):
        Root((0, 0))
    with pytest.raises(ValueError):
        Root((1, -1))


def test_a_root_is_its_coefficients():
    assert Root((-1, 0)) == -Root((1, 0)) == system("A2").root((-1, 0))
    assert Root((-1, 0)).sign == -1 and Root((0, 2)).sign == 1
    assert Root((-1, -1)).positive == Root((1, 1))


def test_a_root_holds_python_ints():
    # a list or numpy integers are read once, into a hashable tuple of ints
    rs = system("A2")
    for coeffs in ([1, 1], np.array([1, 1]), (np.int8(1), np.uint64(1))):
        root = Root(coeffs)
        assert root == Root((1, 1)) and hash(root) == hash(Root((1, 1)))
        assert type(root.coeffs) is tuple and all(type(c) is int for c in root.coeffs)
        assert rs.index_of(coeffs) == rs.index_of(root) == 2
    assert all(type(c) is int for r in rs.all_roots() for c in r.coeffs)


def test_layout_locates_numpy_integers():
    layout = FactorLayout([system("A2"), system("G2")])
    for index in (3, np.int64(3), np.uint8(3)):
        f, i = layout.locate(index)
        assert (f, i) == (1, 1) and type(i) is int
    assert layout.locate(np.intp(4), rows=True) == (1, 1)


DUAL_COXETER = {
    "A1": 2, "A2": 3, "A5": 6,
    "B2": 3, "B4": 7,
    "C3": 4, "C5": 6,
    "D4": 6, "D5": 8,
    "E6": 12, "E7": 18, "E8": 30,
    "F4": 9, "G2": 4,
}


@pytest.mark.parametrize("token,hv", sorted(DUAL_COXETER.items()))
def test_killing_constant(token, hv):
    rs = system(token)
    assert killing_normalization_constant(rs) == Fraction(1, 2 * hv)


CATALOG = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("norm", ["long2", "short2", "killing"])
def test_gram_times_positive_root_square_sum_is_scalar(norm):
    # Q K^T K = c I with c = 1 / (2 killing constant), Q = gram_scale * gram_int:
    # so gram_int K^T K is an integer multiple d of I, and d * gram_scale = c
    for token in CATALOG:
        rs = system(token, norm)
        k = rs.coefficient_matrix.astype(np.int64)
        m = rs.gram_int @ (k.T @ k)
        d = int(m[0, 0])
        assert np.array_equal(m, d * np.eye(rs.rank, dtype=np.int64)), (token, m)
        assert d * rs.gram_scale == 1 / (2 * killing_normalization_constant(rs)), token


def test_killing_idempotent():
    rs = system("B3", "killing")
    assert killing_normalization_constant(rs) == Fraction(1)


def test_short2_scaling():
    long2 = system("B2").gram_float
    short2 = system("B2", "short2").gram_float
    assert np.allclose(short2, 2 * long2)
    assert np.allclose(system("G2", "short2").gram_float, 3 * system("G2").gram_float)


def test_normalization_parse():
    assert Normalization.parse("LONG2") is Normalization.LONG2
    assert Normalization.parse("killing") is Normalization.KILLING
    with pytest.raises(ValueError, match="unknown normalization"):
        Normalization.parse("euclid")


def test_inner_and_cartan():
    rs = system("G2", "short2")
    a1, a2 = rs.simples
    assert rs.inner(a1, a1) == Fraction(2)
    assert rs.inner(a1, a2) == Fraction(-3)
    assert rs.cartan_integer(a1, a2) == -1
    assert rs.cartan_integer(a2, a1) == -3
    # exact integrality of all Cartan pairings
    for a in rs.positives:
        for b in rs.positives:
            c = rs.cartan_integer(a, b)
            assert c == int(c)


def test_is_root_and_index():
    rs = system("A2")
    assert rs.is_root((1, 1)) and rs.is_root((-1, -1))
    assert not rs.is_root((2, 1)) and not rs.is_root((0, 0))
    for i, r in enumerate(rs.positives):
        assert rs.index_of(r) == i and rs.index_of(-r) == rs.npositive + i
    assert len(rs.all_roots()) == 2 * rs.npositive


def test_root_string_oracles():
    rs = system("A2")
    a1, a2 = rs.simples
    assert root_string(rs, a1, a2) == (0, 1)
    rg = system("G2")
    b1, b2 = rg.simples
    assert root_string(rg, b1, b2) == (0, 3)
    ab = rg.root((1, 1))
    assert root_string(rg, ab, b1) == (-1, 2)
    with pytest.raises(RootStringError):
        root_string(rs, a1, a1)
    with pytest.raises(RootStringError):
        root_string(rs, a1, -a1)


@pytest.mark.parametrize("token", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_root_string_cartan_relation(token):
    rs = system(token)
    for a in rs.positives:
        for b in rs.all_roots():
            if b.coeffs in (a.coeffs, tuple(-c for c in a.coeffs)):
                continue
            p, q = root_string(rs, a, b)
            assert p <= 0 <= q
            assert p + q == -rs.cartan_integer(b, a)


def test_factor_layout_on_unequal_ranks():
    a1, g2, b3 = system("A1"), system("G2"), system("B3")
    layout = FactorLayout([a1, g2, b3])
    assert layout.size == 6
    assert layout.slices == (slice(0, 1), slice(1, 3), slice(3, 6))
    assert layout.embed(1, [5.0, 7.0]).tolist() == [0.0, 5.0, 7.0, 0.0, 0.0, 0.0]
    q = layout.blockdiag(rs.gram_float for rs in layout.systems)
    for rs, sl in zip(layout.systems, layout.slices):
        assert np.array_equal(q[sl, sl], rs.gram_float)
    assert np.count_nonzero(q) == sum(np.count_nonzero(rs.gram_float) for rs in layout.systems)
    with pytest.raises(ValueError, match="one torus block per factor"):
        layout.blockdiag([a1.gram_float, g2.gram_float])
    with pytest.raises(ValueError, match="factor 1 .* must be 2x2"):
        layout.blockdiag([a1.gram_float, b3.gram_float, b3.gram_float])
    # every accepted form of a factor list resolves to the same layout
    group = GroupSpec([FactorSpec(rs.stype) for rs in layout.systems])
    assert FactorLayout.of(layout) is layout
    assert FactorLayout.of(group) is group.layout
    assert FactorLayout.of([a1, g2, b3]).slices == layout.slices
    assert FactorLayout.of(g2).slices == (slice(0, 2),)


def test_moduli_dimensions():
    assert moduli_dimensions(1, 3) == (4, 2, 4, 0, 6)
    assert moduli_dimensions(2, 6) == (9, 8, 10, 2, 18)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]))
def test_closure_under_negation_and_sum(token):
    rs = system(token)
    roots = {r.coeffs for r in rs.all_roots()}
    for c in roots:
        assert tuple(-x for x in c) in roots
    # sums of root pairs are roots exactly when is_root says so
    pos = [r.coeffs for r in rs.positives]
    for a in pos[: min(len(pos), 8)]:
        for b in pos[: min(len(pos), 8)]:
            s = tuple(x + y for x, y in zip(a, b))
            assert rs.is_root(s) == (s in roots)
