"""Basis brackets and the exterior derivative on invariant forms."""

import itertools

import numpy as np
import pytest

from sktflow import (
    ChevalleyBasis,
    FactorSpec,
    GroupSpec,
    InvariantForm,
    Normalization,
    SimpleType,
    exterior_derivative,
)
from sktflow.forms import sort_sign


def _basis(*tokens, norm=Normalization.LONG2):
    group = GroupSpec([FactorSpec(SimpleType(t[0], int(t[1:])), norm) for t in tokens])
    return group.basis


def _reference_bracket(basis, i, j):
    """[X_i, X_j] for i < j from the descriptors and Root arithmetic alone."""
    (ki, fi, ri), (kj, fj, rj) = basis.descriptors[i], basis.descriptors[j]
    if ki == "H" and kj == "H" or fi != fj:
        return ()
    rs, sc = basis.factors[fi]
    if ki == "H":
        c = float(rs.inner(rj, rs.simples[ri]))
        return ((j, c),) if c else ()
    total = tuple(a + b for a, b in zip(ri.coeffs, rj.coeffs))
    if not any(total):
        start = basis.torus_index(fi, 0)
        return tuple((start + k, float(c)) for k, c in enumerate(ri.coeffs) if c)
    if not rs.is_root(total):
        return ()
    return ((basis.root_index(fi, rs.root(total)), sc.as_float(ri, rj)),)


def _hex_table(items):
    return [(key, [(m, float(c).hex()) for m, c in terms]) for key, terms in items]


@pytest.mark.parametrize("norm", list(Normalization))
@pytest.mark.parametrize(
    "tokens",
    [("A1",), ("A2",), ("A3",), ("B2",), ("B3",), ("C3",), ("D4",), ("G2",), ("F4",),
     ("A1", "A2"), ("B3", "G2")],
)
def test_bracket_table_matches_pairwise_root_arithmetic(tokens, norm):
    basis = _basis(*tokens, norm=norm)
    reference = []
    for i, j in itertools.combinations(range(basis.dim), 2):
        terms = _reference_bracket(basis, i, j)
        if terms:
            reference.append(((i, j), terms))
    got = list(basis.nonzero_brackets())
    assert [k for k, _ in got] == [k for k, _ in reference]  # keys in the same order
    assert _hex_table(got) == _hex_table(reference)
    assert all(type(c) is float for _, terms in got for _, c in terms)


@pytest.mark.parametrize("tokens", [("E6",), ("E7",), ("E8",), ("A1", "B2", "G2")])
def test_bracket_table_matches_pairwise_root_arithmetic_on_large_types(tokens):
    test_bracket_table_matches_pairwise_root_arithmetic(tokens, Normalization.LONG2)


def test_pair_of_follows_the_layout():
    basis = _basis("A1", "B2")
    assert basis.pair_of[: basis.layout.size].tolist() == [-1, -1, -1]
    for f, (rs, _) in enumerate(basis.factors):
        for root in rs.positives:
            i, j = basis.root_index(f, root), basis.root_index(f, -root)
            assert j == i + 1 and basis.pair_of[i] == basis.pair_of[j] >= 0
    fiber = basis.pair_of[basis.layout.size :].tolist()
    assert fiber == sorted(fiber) and len(set(fiber)) == len(fiber) // 2


def test_sort_sign_is_the_permutation_parity():
    for perm in itertools.permutations(range(5)):
        seen, transpositions = set(), 0
        for start in range(5):  # a cycle of length L is L - 1 transpositions
            length = 0
            while start not in seen:
                seen.add(start)
                start, length = perm[start], length + 1
            transpositions += max(length - 1, 0)
        assert sort_sign(perm) == (-1) ** transpositions
        assert sort_sign([10 * p - 3 for p in perm]) == sort_sign(perm)


def test_layout_single_factor():
    basis = _basis("A2")
    assert basis.dim == 2 + 2 * 3
    i = basis.root_index(0, basis.factors[0][0].positives[0])
    j = basis.root_index(0, -basis.factors[0][0].positives[0])
    assert j == i + 1


def test_bracket_antisymmetry():
    basis = _basis("B2")
    for i in range(basis.dim):
        for j in range(basis.dim):
            left = dict(basis.bracket(i, j))
            right = {k: -v for k, v in basis.bracket(j, i)}
            assert left == right


def test_cross_factor_brackets_vanish():
    basis = _basis("A1", "A2")
    rs0, rs1 = basis.factors[0][0], basis.factors[1][0]
    i = basis.root_index(0, rs0.positives[0])
    j = basis.root_index(1, rs1.positives[0])
    assert basis.bracket(i, j) == ()
    assert basis.bracket(basis.torus_index(0, 0), j) == ()


def test_jacobi_identity_sampled():
    basis = _basis("G2")
    rng = np.random.default_rng(0)
    dim = basis.dim

    def ad(i, vec):
        out = np.zeros(dim, dtype=complex)
        for j in np.nonzero(vec)[0]:
            for k, c in basis.bracket(i, int(j)):
                out[k] += c * vec[j]
        return out

    for _ in range(40):
        i, j, k = (int(v) for v in rng.integers(0, dim, 3))
        ek = np.zeros(dim, dtype=complex)
        ek[k] = 1.0
        jac = ad(i, ad(j, ek)) - ad(j, ad(i, ek))
        for m, c in basis.bracket(i, j):
            jac -= c * ad(m, ek)
        assert np.abs(jac).max() < 1e-12


def test_form_value_parity():
    basis = _basis("A2")
    f = InvariantForm(basis, 2, {})
    f.set((0, 3), 2.5)
    assert f.value(0, 3) == 2.5
    assert f.value(3, 0) == -2.5
    assert f.value(3, 3) == 0.0
    assert f.max_abs() == 2.5


def test_exterior_derivative_degree_and_d_squared():
    basis = _basis("B2")
    rng = np.random.default_rng(1)
    f = InvariantForm(basis, 2, {})
    idx = [tuple(sorted(rng.choice(basis.dim, 2, replace=False))) for _ in range(8)]
    for key in idx:
        f.set(key, complex(rng.normal(), rng.normal()))
    df = exterior_derivative(f)
    assert df.degree == 3
    ddf = exterior_derivative(df)
    assert ddf.max_abs() < 1e-12


def test_d_squared_on_three_forms():
    basis = _basis("A2")
    rng = np.random.default_rng(2)
    f = InvariantForm(basis, 3, {})
    for _ in range(10):
        key = tuple(sorted(int(v) for v in rng.choice(basis.dim, 3, replace=False)))
        f.set(key, complex(rng.normal(), rng.normal()))
    assert exterior_derivative(exterior_derivative(f)).max_abs() < 1e-12


def test_exterior_derivative_of_killing_dual_is_closed():
    # B(x, [y, z]) as a 3-form component pattern: d of invariant 0-forms is 0,
    # and d applied twice to any stored form vanishes; spot a 1-form too.
    basis = _basis("A2")
    f = InvariantForm(basis, 1, {})
    f.set((0,), 1.0)
    f.set((2,), 0.5 + 0.25j)
    ddf = exterior_derivative(exterior_derivative(f))
    assert ddf.max_abs() < 1e-12


@pytest.mark.parametrize(
    "components",
    [{(4, 2): -1.0}, {(2, 40): 1.0}, {(2, 4): 1.0, (3,): 0.5}, {(2, 2): 1.0}, {(-1, 3): 1.0},
     {(True, 2): 1.0}, {(0, 3): 1.0, (np.True_, 2): 1.0}],
    ids=["unsorted", "out_of_range", "short_key", "repeated", "negative", "bool", "numpy_bool"],
)
def test_exterior_derivative_refuses_malformed_keys(components):
    basis = _basis("A2")  # dim 8
    with pytest.raises(ValueError, match="strictly increasing indices in \\[0, 8\\)"):
        exterior_derivative(InvariantForm(basis, 2, components))


def test_exterior_derivative_takes_numpy_integer_keys():
    basis = _basis("A2")
    plain = InvariantForm(basis, 2, {(2, 4): 1.0, (0, 5): 0.5j})
    numpy_keys = InvariantForm(basis, 2, {(np.int64(2), np.int64(4)): 1.0, (0, np.int32(5)): 0.5j})
    assert exterior_derivative(numpy_keys).components == exterior_derivative(plain).components
    # numpy stacks int64 next to uint64 as float64; the keys are still valid
    mixed = InvariantForm(basis, 2, {(np.uint64(2), np.int64(4)): 1.0, (0, np.uint64(5)): 0.5j})
    assert exterior_derivative(mixed).components == exterior_derivative(plain).components
    assert exterior_derivative(InvariantForm(basis, 2, {})).components == {}


@pytest.mark.parametrize("value", [float("inf"), complex(0.0, float("nan")), float("nan")])
def test_exterior_derivative_refuses_non_finite_values(value):
    basis = _basis("A2")
    with pytest.raises(ValueError, match=r"component \(2,\) of a form must be finite"):
        exterior_derivative(InvariantForm(basis, 1, {(0,): 1.0, (2,): value}))
