"""The bracket table and the forms built from it, as arrays, against the loops they replaced.

`ChevalleyBasis` builds `bracket_arrays` straight from the root tables,
`sigma_form` contracts those arrays with the pairing covector, and
`dc_form` and `exterior_derivative` hand their components on as arrays.
The references below are the former dict builder of the bracket table and
the former `sigma_form` loop, kept verbatim apart from names: the arrays
must give the same rows, dtypes, keys, key order and float bits.
"""

from functools import lru_cache

import numpy as np
import pytest

from sktflow import (
    ChevalleyBasis,
    FactorSpec,
    GroupSpec,
    InvariantForm,
    Normalization,
    SimpleType,
    dc_form,
    exterior_derivative,
    pluriclosed_family,
    sigma_form,
)

CATALOG = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
PRODUCTS = ("A1xA2", "B3xG2", "A1xA2xG2")
SIGMA_GROUPS = ("A1", "A2", "B2", "G2", "B3", "C3", "F4", "E6", "E8", *PRODUCTS)


@lru_cache(maxsize=None)
def _group(token, norm=Normalization.LONG2):
    return GroupSpec([FactorSpec(SimpleType.parse(t), norm) for t in token.split("x")])


# ---------------------------------------------------------------- references

def _reference_brackets(basis):
    table = {}
    for f, (rs, sc) in enumerate(basis.factors):
        torus = basis.layout.slices[f].start
        elem = [basis.element_index(f, r) for r in range(2 * rs.npositive)]
        fl = sc.float_array.tolist()
        for a, simple in enumerate(rs.simples):
            ia = rs.index_of(simple)
            for r, e in enumerate(elem):
                c = float(rs.gram_scale * rs.inner_at(r, ia))
                if c:
                    table[(torus + a, e)] = ((e, c),)
        for t, root in enumerate(rs.positives):
            table[(elem[t], elem[rs.neg_index[t]])] = tuple(
                (torus + k, float(c)) for k, c in enumerate(root.coeffs) if c
            )
        for r, s in np.argwhere(rs.sum_index >= 0).tolist():
            if elem[r] < elem[s]:
                table[(elem[r], elem[s])] = ((elem[rs.sum_index[r, s]], fl[r][s]),)
    return dict(sorted(table.items()))


def _reference_bracket_arrays(basis):
    rows = [(i, j, m, c) for (i, j), terms in _reference_brackets(basis).items() for m, c in terms]
    i, j, m, c = zip(*rows) if rows else ((),) * 4
    ints = (np.array(v, dtype=np.int32) for v in (i, j, m))
    return (*ints, np.array(c, dtype=float))


def _reference_sigma_form(h, x):
    basis = h.group.basis
    parsed = h.parse_argument(x)
    pairing = [0] * basis.dim
    if isinstance(parsed, np.ndarray):
        pairing[: h.group.layout.size] = [row @ parsed for row in h.group.layout.gram_float]
    else:
        f, i = parsed
        pairing[int(basis.element_index(f, h.group.systems[f].neg_index[i]))] = 1
    comps = {}
    for (i, j), terms in _reference_brackets(basis).items():
        val = sum((c * pairing[m] for m, c in terms), 0j)
        if val:
            comps[(i, j)] = val
    return comps


def _bits(components):
    return [(k, complex(v).real.hex(), complex(v).imag.hex()) for k, v in components.items()]


# ---------------------------------------------------------------- bracket table

@pytest.mark.parametrize("norm", list(Normalization))
@pytest.mark.parametrize("token", CATALOG + list(PRODUCTS))
def test_bracket_arrays_equal_the_dict_builder(token, norm):
    basis = _group(token, norm).basis
    want = _reference_bracket_arrays(basis)
    for got, ref in zip(basis.bracket_arrays, want, strict=True):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        assert not got.flags.writeable
    assert dict(basis.nonzero_brackets()) == _reference_brackets(basis)


def test_bracket_views_are_lazy():
    g = _group("B3xG2")
    basis = ChevalleyBasis(g.layout, g.constants)
    view = basis.nonzero_brackets()
    assert len(view) == len(_reference_brackets(basis))
    assert "_brackets" not in vars(basis) and "descriptors" not in vars(basis)
    assert list(view) == list(_reference_brackets(basis).items())
    assert basis.descriptors == g.basis.descriptors
    assert basis.descriptors[0] == ("H", 0, 0)
    assert basis.descriptors[basis.layout.size] == ("E", 0, g.systems[0].positives[0])
    assert not hasattr(view, "__setitem__")


# ---------------------------------------------------------------- sigma_form

def _arguments(g, rng):
    """Real and complex torus vectors, and a positive and a negative root per factor."""
    r = g.layout.size
    args = [rng.normal(size=r), rng.normal(size=r) + 1j * rng.normal(size=r), np.eye(r)[0]]
    for f, rs in enumerate(g.systems):
        args += [(f, rs.positives[-1]), (f, -rs.positives[0])]
    return args


@pytest.mark.parametrize("token", SIGMA_GROUPS)
def test_sigma_form_is_bit_identical_to_the_loop(token):
    g = _group(token)
    rng = np.random.default_rng(len(token))
    x = [rng.uniform(0.5, 2.5, rs.npositive).tolist() for rs in g.systems]
    for h in (g.build(), g.build(x)):
        for arg in _arguments(g, rng):
            got = sigma_form(h, arg)
            assert got.degree == 2
            assert all(type(v) is complex for v in got.components.values())
            assert _bits(got.components) == _bits(_reference_sigma_form(h, arg))


# ---------------------------------------------------------------- array-held forms

def _ddc(token):
    g = _group(token)
    h = pluriclosed_family(g, [np.linspace(1.2, 1.7, rs.rank).tolist() for rs in g.systems])
    return exterior_derivative(dc_form(h))


def test_array_components_read_like_a_dict():
    form = _ddc("B3xG2")
    comps = form.components
    keys, values = form.arrays()
    assert keys.dtype == np.int32 and keys.shape == (len(values), 4)
    assert len(comps) == len(values) > 0
    assert "_dict" not in vars(comps)  # len() built no dict
    plain = dict(zip(map(tuple, keys.tolist()), values.tolist()))
    assert list(comps.items()) == list(plain.items()) and comps == plain
    assert all(type(k[0]) is int and type(v) is complex for k, v in comps.items())
    key = next(iter(plain))
    assert form.value(*key) == plain[key]
    assert form.value(key[1], key[0], *key[2:]) == -plain[key]
    assert form.max_abs() == max(abs(v) for v in plain.values())
    zeroed = InvariantForm(form.basis, form.degree, {**plain, key: 0.0})
    assert zeroed.components[key] == 0.0 and zeroed.value(*key) == 0.0
    assert len(zeroed.components) == len(plain)


@pytest.mark.parametrize("token", ["G2", "A1xB2"])
def test_exterior_derivative_reads_array_and_dict_forms_alike(token):
    three = dc_form(_group(token).build())
    plain = InvariantForm(three.basis, 3, dict(three.components))
    assert _bits(exterior_derivative(three).components) == _bits(
        exterior_derivative(plain).components
    )
    empty = exterior_derivative(InvariantForm.from_arrays(
        three.basis, 3, np.zeros((0, 3), dtype=np.int32), np.zeros(0, dtype=complex)
    ))
    assert empty.degree == 4 and len(empty.components) == 0 and empty.components == {}


@pytest.mark.parametrize(
    "rows", [[[2, 4], [4, 3]], [[2, 8]], [[-1, 3]], [[2, 2]]],
    ids=["unsorted", "out_of_range", "negative", "repeated"],
)
def test_exterior_derivative_refuses_malformed_array_keys(rows):
    basis = _group("A2").basis  # dim 8
    keys = np.array(rows, dtype=np.int32)
    bad = tuple(rows[-1])
    with pytest.raises(ValueError, match=rf"component key \({bad[0]}, {bad[1]}\) of a degree-2"):
        InvariantForm.from_arrays(basis, 2, keys, np.ones(len(rows), dtype=complex))


def test_exterior_derivative_refuses_non_finite_array_values():
    basis = _group("A2").basis
    keys = np.array([[0, 3], [2, 4]], dtype=np.int32)
    with pytest.raises(ValueError, match=r"component \(2, 4\) of a form must be finite"):
        InvariantForm.from_arrays(basis, 2, keys, np.array([1.0, complex(0.0, np.nan)]))


def test_a_form_keeps_its_checked_arrays():
    basis = _group("A2").basis
    keys, values = np.array([[0, 3], [2, 4]], dtype=np.int32), np.array([1.0, 0.5j])
    form = InvariantForm.from_arrays(basis, 2, keys, values)
    keys[1], values[1] = [4, 2], np.nan  # the caller's arrays, not the form's
    assert dict(form.components) == {(0, 3): 1.0, (2, 4): 0.5j}
    made = (form, InvariantForm(basis, 2, {(0, 3): 1.0}), exterior_derivative(form), _ddc("G2"))
    for f in made:
        for a in f.arrays():
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = 0
