"""Hermitian structures: form components, pluriclosed scans, serialization."""

import io
import itertools
import json
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sktflow import (
    FactorSpec,
    FiberMetric,
    GroupSpec,
    HermitianStructure,
    MissingComplexStructureError,
    Normalization,
    PositivityError,
    SimpleType,
    TorusMetric,
    biinvariant_compatible,
    canonical_jt,
    critical_point,
    d_omega,
    d_star_omega,
    dc_form,
    dc_omega,
    ddc_omega,
    exterior_derivative,
    family_bound,
    family_values,
    is_cyt,
    is_irreducible,
    is_pluriclosed,
    kahler_flag_residual,
    load_structure,
    omega_form,
    pluriclosed_family,
    save_structure,
    sigma_form,
    structure_from_dict,
    structure_to_dict,
    theta_form,
)
import sktflow.hermitian as hermitian_module
import sktflow.residuals as residuals_module
from sktflow.family import finite_positive
from sktflow.residuals import PairRows, QuadRows, pair_values


def _group(*tokens, **kw):
    return GroupSpec(
        [FactorSpec(SimpleType(t[0], int(t[1:])), **kw) for t in tokens]
    )


def _rand_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


A2 = _group("A2")


# ---------------------------------------------------------------- family

def test_family_values_and_bound():
    rs = A2.systems[0]
    assert np.allclose(family_values(rs, (2.0, 2.0)), [2.0, 2.0, 3.0])
    assert family_bound(rs) == pytest.approx(1 - 1 / 2)
    rg = _group("G2").systems[0]
    assert family_bound(rg) == pytest.approx(1 - 1 / 5)


def test_family_positivity_error_fields():
    g = _group("B2")
    with pytest.raises(PositivityError) as exc:
        pluriclosed_family(g, (0.6, 0.6))
    err = exc.value
    assert err.root_label == "a1+2a2"
    assert err.value == pytest.approx(-0.2)
    assert err.bound == pytest.approx(2 / 3)


def test_family_structure_is_pluriclosed_both_modes():
    h = pluriclosed_family(A2, (2.0, 2.0))
    for mode in ("closed_form", "brute_force"):
        rep = is_pluriclosed(h, mode=mode)
        assert rep.verdict and rep.max_residual < 1e-12


def test_family_multi_factor():
    g = _group("A2", "B2")
    h = pluriclosed_family(g, [(1.5, 2.0), (1.2, 1.1)])
    assert is_pluriclosed(h).verdict
    assert is_pluriclosed(h, mode="brute_force").verdict


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.floats(0.55, 3.0), st.floats(0.55, 3.0)))
def test_family_always_pluriclosed_a2(simple_values):
    h = pluriclosed_family(A2, simple_values)
    assert is_pluriclosed(h).max_residual < 1e-9


def test_off_family_detected():
    h = A2.build(x=[(2.0, 2.0, 4.0)])
    rep = is_pluriclosed(h)
    assert not rep.verdict
    assert rep.max_residual == pytest.approx(1.0)
    assert rep.skt1_max == pytest.approx(1.0)
    assert "pair" in rep.witness and "factor 0" in rep.witness
    brute = is_pluriclosed(h, mode="brute_force")
    assert not brute.verdict
    assert brute.max_residual == pytest.approx(1.0)


def test_cross_factor_torus_coupling_detected():
    g = _group("A1", "A1")
    gt = g.layout.gram_float.astype(float)
    gt[0, 1] = gt[1, 0] = 0.3
    h = g.build(torus=gt)
    rep = is_pluriclosed(h)
    assert not rep.verdict
    assert rep.max_residual == pytest.approx(0.3)
    assert "factor 0" in rep.witness and "factor 1" in rep.witness
    assert is_pluriclosed(h, mode="brute_force").max_residual == pytest.approx(0.3)


@pytest.mark.parametrize(
    "token,row,witness",
    [
        ("A2", [1.5, 1.2, 1.3], "pair (a2, a1+a2) in factor 0"),
        ("G2", [1.77, 1.04, 0.58, 0.53, 2.13, 2.33],
         "quad (a1, 3a1+2a2, -(a1+a2), -(3a1+a2)) in factor 0"),
    ],
)
def test_witness_of_an_exact_tie_across_factors_is_the_first_factor(token, row, witness):
    # both factors hold the same residuals bit for bit; the first row in scan
    # order (factor 0's pairs, its quads, factor 1's pairs, ...) names the report
    one = is_pluriclosed(_group(token).build([row]))
    rep = is_pluriclosed(_group(token, token).build([row, row]))
    assert rep.witness == one.witness == witness
    assert rep.max_residual == one.max_residual > 0
    assert (rep.skt1_max, rep.skt2_max) == (one.skt1_max, one.skt2_max)


def test_an_exact_tie_between_a_pair_and_a_quad_goes_to_the_earlier_row(monkeypatch):
    g = _group("G2", "G2")
    pairs, quads = g.residual_tables
    # the first row of each block; G2 has 15 pairs i < j
    pair_at = {"pairs 0": 0, "pairs 1": 15, "cross": 30}
    quad_at = {"quads 0": 0, "quads 1": quads.rows.shape[1] // 2}
    order = ["pairs 0", "pairs 1", "cross", "quads 0", "quads 1"]
    for (p_name, p), (q_name, q) in itertools.product(pair_at.items(), quad_at.items()):
        pv, qv = np.zeros(pairs.rows.shape[1]), np.zeros(quads.rows.shape[1])
        pv[p], qv[q] = 3.0, -3.0
        monkeypatch.setattr(residuals_module, "pair_values", lambda h, t, v=pv: v)
        monkeypatch.setattr(residuals_module, "quad_values", lambda h, t, v=qv: v)
        rep = is_pluriclosed(g.build())
        first = min(p_name, q_name, key=order.index)
        assert rep.witness == (pairs.witness(g, p) if first == p_name else quads.witness(g, q))
        assert rep.max_residual == rep.skt1_max == rep.skt2_max == 1.5


def _assert_not_scanned(monkeypatch, h, modes=("closed_form", "brute_force")):
    """Above SCAN_RANGE is_pluriclosed runs neither scan, warns nothing and
    reports (False, inf, None, inf, inf, 0) in every mode."""
    def refuse(h):
        raise AssertionError("a scan ran above SCAN_RANGE")

    monkeypatch.setattr(hermitian_module, "closed_form_scan", refuse)
    monkeypatch.setattr(hermitian_module, "_brute_force_scan", refuse)
    assert h.scale > hermitian_module.SCAN_RANGE
    for mode in modes:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = is_pluriclosed(h, mode=mode)
        assert (rep.verdict, rep.max_residual, rep.witness) == (False, np.inf, None)
        assert (rep.skt1_max, rep.skt2_max, rep.checked) == (np.inf, np.inf, 0)
        assert rep.mode == mode and rep.scale == h.scale


@pytest.mark.parametrize("token", ["A2", "G2"])
def test_closed_form_scan_of_huge_fiber_values_does_not_warn(token, monkeypatch):
    g = _group(token)
    _assert_not_scanned(monkeypatch, g.build([[1e308] * g.systems[0].npositive]), ("closed_form",))


@pytest.mark.parametrize("token", ["A2", "G2"])
def test_brute_force_scan_of_huge_fiber_values_reports_an_inf_residual(token, monkeypatch):
    g = _group(token)
    _assert_not_scanned(monkeypatch, g.build([[1e308] * g.systems[0].npositive]))


def test_brute_force_scan_of_an_overflowing_dd_c_reports_an_inf_residual(monkeypatch):
    # these structures overflowed dd^c inside the brute-force scan before the
    # range was checked first
    g = _group("A3")
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = g.build([10 ** rng.uniform(300, 308.25, g.systems[0].npositive)])
        _assert_not_scanned(monkeypatch, h)


def test_a_structure_above_the_scan_range_is_not_scanned(monkeypatch):
    h = A2.build([[np.nextafter(hermitian_module.SCAN_RANGE, np.inf), 1.0, 1.0]])
    _assert_not_scanned(monkeypatch, h)


@pytest.mark.parametrize(
    "token,a,b,value",
    [("A3", (0, 0, 1), (1, 0, 0), 0.0), ("B2", (1, 0), (1, 1), 2.0), ("G2", (0, 1), (1, 1), 2.0)],
    ids=["A3", "B2", "G2"],
)
def test_ddc_omega_of_a_pair_near_the_float_ceiling_is_finite(token, a, b, value):
    # with x_a = x_b = 1.7e308 a missing root sum read any other root's value
    # and multiplied 0 by an overflowed difference; it reads a's own value
    g = _group(token)
    rs = g.systems[0]
    a, b = rs.root(a), rs.root(b)
    x = np.ones(rs.npositive)
    x[[rs.index_of(a), rs.index_of(b)]] = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = ddc_omega(g.build([x]), a, -a, b, -b)
        small = ddc_omega(g.build([x / 1024], torus=g.layout.gram_float / 1024), a, -a, b, -b)
    assert big.hex() == (1024 * small).hex() == value.hex()


def test_kahler_flag_residual():
    assert kahler_flag_residual(A2.build()) == pytest.approx(1.0)
    assert kahler_flag_residual(A2.build(x=[(1.0, 1.0, 1.0)])) == pytest.approx(1.0)
    assert kahler_flag_residual(A2.build(x=[(1.0, 1.0, 2.0)])) == pytest.approx(0.0)


# ---------------------------------------------------------------- components

def test_d_dc_on_root_triples():
    h = A2.build()
    rs = A2.systems[0]
    sc = A2.constants[0]
    a1, a2 = rs.simples
    ab = rs.root((1, 1))
    n = sc.as_float(a1, a2)
    # same-factor triple summing to zero
    val_d = d_omega(h, a1, a2, -ab)
    val_dc = dc_omega(h, a1, a2, -ab)
    assert val_d == pytest.approx(-1j * n)
    assert val_dc == pytest.approx(-n)
    # not summing to zero
    assert d_omega(h, a1, a2, ab) == 0
    # antisymmetry in arguments
    assert d_omega(h, a2, a1, -ab) == pytest.approx(-val_d)
    # swap of two arguments is odd, cyclic rotation is even
    assert dc_omega(h, -ab, a2, a1) == pytest.approx(-val_dc)
    assert dc_omega(h, -ab, a1, a2) == pytest.approx(val_dc)


def test_d_omega_mixed_needs_jt():
    h = A2.build()
    rs = A2.systems[0]
    a1 = rs.simples[0]
    with pytest.raises(MissingComplexStructureError):
        d_omega(h, np.array([1.0, 0.0]), a1, -a1)
    # dc does not need jt
    v = np.array([1.0, 0.0])
    got = dc_omega(h, v, a1, -a1)
    gk = h.gt @ np.array(a1.coeffs, dtype=float)
    assert got == pytest.approx(-float(v @ gk))


def test_ddc_pair_oracle_values():
    h = A2.build(x=[(2.0, 2.0, 4.0)])
    rs = A2.systems[0]
    a1, a2 = rs.simples
    # residual is half the component magnitude
    comp = ddc_omega(h, a1, -a1, a2, -a2)
    assert abs(comp) / 2 == pytest.approx(1.0)
    # torus argument kills the component
    assert ddc_omega(h, np.array([1.0, 0.0]), -a1, a2, -a2) == 0
    # argument transposition flips sign
    assert ddc_omega(h, -a1, a1, a2, -a2) == pytest.approx(-comp)


def test_d_star_oracles():
    assert np.allclose(d_star_omega(A2.build()), [-2.0, -2.0])
    h = pluriclosed_family(A2, (2.0, 2.0))
    assert np.allclose(d_star_omega(h), [-5 / 6, -5 / 6])
    b2 = _group("B2")
    assert np.allclose(d_star_omega(b2.build()), [-3.0, -4.0])
    # fiber values enter reciprocally
    assert d_star_omega(b2.build([1.0, 1.0, 0.5, 0.25])).tolist() == [-7.0, -11.0]


def test_a_group_holds_one_layout_and_one_killing_torus():
    g = _group("A2", "G2")
    assert g.basis.layout is g.layout
    family = pluriclosed_family(g, [(1.2, 1.3), (1.1, 1.4)])
    assert g.build().torus is family.torus is g.killing_torus
    assert not g.killing_torus.matrix.flags.writeable


def test_theta_sigma_and_derivative_relation():
    g = _group("B2")
    rng = np.random.default_rng(5)
    gt = _rand_spd(rng, 2)
    x = rng.uniform(0.5, 2.0, 4)
    h = g.build(x=[tuple(x)], torus=gt)
    basis = g.basis
    v = rng.normal(size=2)
    theta = theta_form(h, v)
    sigma = sigma_form(h, solve_p := np.linalg.solve(h.group.layout.gram_float, gt @ v))
    dtheta = exterior_derivative(theta)
    keys = set(dtheta.components) | set(sigma.components)
    worst = max(
        abs(dtheta.components.get(k, 0j) - sigma.components.get(k, 0j)) for k in keys
    )
    assert worst < 1e-12


def test_closed_form_matches_brute_on_random_metrics():
    rng = np.random.default_rng(11)
    for tokens, norm in ((("A2",), "long2"), (("B2",), "long2"), (("G2",), "short2")):
        g = GroupSpec(
            [FactorSpec(SimpleType(t[0], int(t[1:])), Normalization.parse(norm)) for t in tokens]
        )
        rs = g.systems[0]
        for _ in range(3):
            x = rng.uniform(0.4, 2.5, rs.npositive)
            gt = _rand_spd(rng, rs.rank)
            h = g.build(x=[tuple(x)], torus=gt)
            ce = exterior_derivative(dc_form(h))
            basis = g.basis
            dim = basis.dim
            elems = []
            for i in range(dim):
                d = basis.descriptors[i]
                if d[0] == "H":
                    ev = np.zeros(g.layout.size)
                    ev[basis.torus_index(d[1], d[2])] = 1.0
                    elems.append(ev)
                else:
                    elems.append(d[2])
            worst = 0.0
            from itertools import combinations

            for quad in combinations(range(dim), 4):
                closed = ddc_omega(h, *(elems[q] for q in quad))
                oracle = ce.value(*quad)
                assert abs(oracle.imag) < 1e-10
                worst = max(worst, abs(closed - oracle.real))
            assert worst < 1e-10, (tokens, worst)


def _per_row_pair_values(h, t):
    """pair_values with the torus term as one dot per row, (k_a @ g_T) @ k_b."""
    k = [
        h.group.layout.embed(f, root.coeffs)
        for f, rs in enumerate(h.group.systems)
        for root in rs.positives
    ]
    i, j, up, down = t.rows
    val = 2.0 * np.array([float((k[a] @ h.gt) @ k[b]) for a, b in zip(i, j)])
    x = np.concatenate(h.xhat)
    xi, xj = x[i], x[j]
    val -= t.up * (x[up] - xi - xj)
    val -= t.down * (t.down_eps * x[down] - xi + xj)
    return val


@pytest.mark.parametrize(
    "tokens", [("E7",), ("E8",), ("A3", "C3"), ("F4", "A2")], ids="x".join
)
def test_pair_torus_product_equals_per_row_dots_bit_for_bit(tokens):
    # the types where a matrix product and per-row dots may use different BLAS kernels
    g = _group(*tokens)
    rng = np.random.default_rng(3)
    on = pluriclosed_family(g, [rng.uniform(1.0, 2.0, rs.rank).tolist() for rs in g.systems])
    coupled = g.build(on.fiber, torus=_rand_spd(rng, g.layout.size))
    pairs, quads = g.residual_tables
    assert isinstance(pairs, PairRows) and isinstance(quads, QuadRows)
    npos = [rs.npositive for rs in g.systems]
    within = sum(n * (n - 1) // 2 for n in npos)
    assert pairs.rows.shape[1] == within + sum(a * b for a, b in itertools.combinations(npos, 2))
    for h in (on, coupled):
        assert pair_values(h, pairs).tobytes() == _per_row_pair_values(h, pairs).tobytes()


TERM_GROUPS = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2", "A1xB2", "B3xG2", "A3xC3", "A1xA2xG2"]
)


def _check_term(rs, offset, at, coef, sums, eps=None):
    """The term spans every row: coef is nonzero exactly where sums is a
    root, and there at names the sum's stacked positive root and eps its
    sign. A term without eps (a + b of two positive roots) is positive
    wherever it is a root, which is why its table keeps no sign for it."""
    n, has = rs.npositive, sums >= 0
    assert len(coef) == len(at) == len(sums)
    assert np.array_equal(coef != 0, has)
    assert np.array_equal(at[has], offset + sums[has] % n)
    if eps is None:
        assert (sums[has] < n).all()
    else:
        assert len(eps) == len(sums)
        assert np.array_equal(eps[has], np.where(sums[has] < n, 1, -1))


@pytest.mark.parametrize("token", TERM_GROUPS)
def test_every_term_spans_its_table(token):
    g = _group(*token.split("x"))
    pairs, quads = g.residual_tables

    def locate(rows):  # (factors, indices within them) of stacked positive rows
        found = [g.layout.locate(int(v), rows=True) for v in rows]
        return np.array(found, dtype=int).reshape(-1, 2).T

    assert pairs.rows.dtype == quads.rows.dtype == np.int32
    (fa, ia), (fb, jb), (fq, _) = locate(pairs.rows[0]), locate(pairs.rows[1]), locate(quads.rows[0])
    for f, rs in enumerate(g.systems):
        offset, mine, quad = g.layout.row_slices[f].start, (fa == f) & (fb == f), fq == f
        i, j = ia[mine], jb[mine]
        assert len(i) == rs.npositive * (rs.npositive - 1) // 2 and (i < j).all()
        _, _, up, down = pairs.rows[:, mine]
        _check_term(rs, offset, up, pairs.up[mine], rs.sum_index[i, j])
        _check_term(rs, offset, down, pairs.down[mine], rs.diff_index[i, j], pairs.down_eps[mine])
        qa, qb, qc, qd, ab, ac, ad = quads.rows[:, quad]
        qi, qj, qm, ql = (v - offset for v in (qa, qb, qc, qd))
        assert len(qi) == len(rs.positive_quads())
        _check_term(rs, offset, ab, quads.ab[quad], rs.sum_index[qi, qj])
        _check_term(rs, offset, ac, quads.ac[quad], rs.diff_index[qi, qm], quads.ac_eps[quad])
        _check_term(rs, offset, ad, quads.ad[quad], rs.diff_index[qi, ql], quads.ad_eps[quad])
    # pairs across factors have no root sum: coef 0 on every such row, whose
    # sums read its own root a
    cross = fa != fb
    assert (fa[cross] < fb[cross]).all()
    assert (pairs.rows[2:, cross] == pairs.rows[0, cross]).all()
    for coef in (pairs.up, pairs.down):
        assert len(coef) == pairs.rows.shape[1] and not coef[cross].any()


def test_d_omega_matches_exterior_derivative_of_omega():
    rng = np.random.default_rng(13)
    g = _group("A2")
    rs = g.systems[0]
    gt = _rand_spd(rng, 2)
    jt = canonical_jt(gt)
    x = rng.uniform(0.5, 2.0, 3)
    h = g.build(x=[tuple(x)], torus=gt, jt=jt)
    basis = g.basis
    om = omega_form(h)
    dom = exterior_derivative(om)
    elems = []
    for i in range(basis.dim):
        d = basis.descriptors[i]
        if d[0] == "H":
            ev = np.zeros(2)
            ev[d[2]] = 1.0
            elems.append(ev)
        else:
            elems.append(d[2])
    from itertools import combinations

    for tri in combinations(range(basis.dim), 3):
        closed = d_omega(h, *(elems[t] for t in tri))
        assert abs(closed - dom.value(*tri)) < 1e-10


@pytest.mark.parametrize("tokens", [("F4",), ("B3", "G2")])
def test_brute_force_buckets_match_descriptor_reference(tokens):
    # 20 structures, off the family and on it in turn: off it the worst
    # component is an skt1 pair, on it rounding picks skt1 or skt2 pairs; the
    # mixed components, with a torus element, are rounding too and stay
    # below both, so no witness here is mixed
    g = _group(*tokens)
    rng = np.random.default_rng(17)
    basis = g.basis

    def reference(key):
        descs = [basis.descriptors[m] for m in key]
        if any(d[0] == "H" for d in descs):
            return "mixed"
        pairs = Counter((d[1], d[2].positive.coeffs) for d in descs)
        return "skt1" if sorted(pairs.values()) == [2, 2] else "skt2"

    want, words, buckets = {}, Counter(), set()
    for trial in range(20):
        if trial % 2:
            h = pluriclosed_family(g, [tuple(rng.uniform(1.0, 1.05, rs.rank)) for rs in g.systems])
        else:
            x = [tuple(rng.uniform(0.5, 2.5, rs.npositive)) for rs in g.systems]
            h = g.build(x=x, torus=_rand_spd(rng, g.layout.size))
        four = exterior_derivative(dc_form(h))
        for key in four.components:
            if key not in want:
                want[key] = reference(key)
        buckets.update(want[key] for key in four.components)
        rep = is_pluriclosed(h, mode="brute_force")
        keys, values = four.arrays()
        first = tuple(keys[int(np.argmax(np.abs(values)))].tolist())  # first maximal key
        word = rep.witness.split(" ")[0]
        assert word == want[first]
        words[word] += 1
        for bucket, worst in (("skt1", rep.skt1_max), ("skt2", rep.skt2_max)):
            rows = (abs(v) / 2.0 for k, v in four.components.items() if want[k] == bucket)
            assert worst == max(rows, default=0.0)
    assert buckets == {"skt1", "skt2", "mixed"}
    assert set(words) == {"skt1", "skt2"}


def test_brute_force_scan_goes_through_the_module_level_functions(monkeypatch):
    # the traced scan benchmark times these two by wrapping the module attributes
    calls = Counter()
    for name in ("exterior_derivative", "dc_form"):
        def counted(*args, _fn=getattr(hermitian_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(hermitian_module, name, counted)
    assert is_pluriclosed(pluriclosed_family(A2, (1.5, 2.0)), mode="brute_force").verdict
    assert calls == {"exterior_derivative": 1, "dc_form": 1}


# ---------------------------------------------------------------- validation

def test_torus_metric_validation():
    with pytest.raises(ValueError, match="symmetric"):
        TorusMetric(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        TorusMetric(np.array([[1.0, 0.0], [0.0, -2.0]]))


def test_fiber_positivity():
    with pytest.raises(PositivityError):
        A2.build(x=[(1.0, -0.5, 1.0)])


def _reference_fiber_values(values):
    """The fiber conversion and check FiberMetric ran before it read each
    row as an array, verbatim apart from the name."""
    vals = tuple(tuple(float(v) for v in row) for row in values)
    for f, row in enumerate(vals):
        for t, v in enumerate(row):
            if not finite_positive(v):
                raise PositivityError(
                    f"fiber value {v:.6g} at factor {f}, root position {t}"
                    " is not finite and positive",
                    value=v,
                )
    return vals


def _refusal(fn, *args):
    with pytest.raises(PositivityError) as exc:
        fn(*args)
    return str(exc.value), exc.value.value


@pytest.mark.parametrize("tokens", [("A2",), ("A1", "A2")], ids=["A2", "A1xA2"])
def test_fiber_metric_refuses_like_the_per_value_loop(tokens):
    g = _group(*tokens)
    rng = np.random.default_rng(len(tokens))
    good = [rng.uniform(0.5, 2.0, rs.npositive).tolist() for rs in g.systems]
    for rows in (good, [np.array(row) for row in good]):
        want = _reference_fiber_values(rows)
        for got in (FiberMetric(rows).values, g.build(rows).fiber.values):
            assert got == want and all(type(v) is float for row in got for v in row)
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0):
        for f, rs in enumerate(g.systems):
            for t in sorted({0, rs.npositive // 2, rs.npositive - 1}):
                rows = [list(row) for row in good]
                rows[f][t] = bad
                message, value = _refusal(_reference_fiber_values, rows)
                for fn in (FiberMetric, g.build):
                    got_message, got_value = _refusal(fn, rows)
                    assert got_message == message and type(got_value) is type(value) is float
                    assert got_value == value or (np.isnan(got_value) and np.isnan(value))
                    assert f"factor {f}, root position {t}" in got_message


def test_fiber_metric_refuses_a_complex_row():
    g = _group("A1", "A2")
    rows = [[1.5], np.array([1.5 + 1j, 1.2, 1.3])]
    for make in (FiberMetric, g.build, lambda r: HermitianStructure(g, fiber=r)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not warned about
            with pytest.raises(ValueError, match="values must be real, got complex"):
                make(rows)
    # a zero imaginary part is refused too, as the flow entry points do
    with pytest.raises(ValueError, match="values must be real"):
        _group("A2").build([np.array([1.5, 1.2, 1.3], dtype=complex)])
    with pytest.raises(ValueError, match="one row of numbers per factor"):
        FiberMetric([[[1.5], [1.2], [1.3]]])


def test_jt_validation():
    g = _group("A2")
    gt = g.layout.gram_float.astype(float)
    with pytest.raises(ValueError, match="compatible"):
        g.build(jt=np.array([[0.0, -2.0], [0.5, 0.0]]))
    ok = canonical_jt(gt)
    h = g.build(jt=ok)
    assert h.jt is not None
    with pytest.raises(ValueError):
        canonical_jt(_rand_spd(np.random.default_rng(0), 3))  # odd rank


def test_torus_metric_and_jt_keep_a_read_only_copy_of_the_caller_array():
    g = _group("A2")
    m = np.array([[2.0, -1.0], [-1.0, 2.0]])
    j = canonical_jt(m)
    j_before = j.copy()
    h = g.build(torus=m)
    hj = g.build(torus=m, jt=j)
    m[0, 1] = 50.0  # would make the metric asymmetric
    j[0, 0] = 5.0  # would break J^2 = -1
    for built in (h, hj):
        assert built.gt.tolist() == [[2.0, -1.0], [-1.0, 2.0]]
    assert np.array_equal(hj.jt.matrix, j_before)
    for matrix in (h.gt, hj.gt, hj.jt.matrix):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 7.0


@pytest.mark.parametrize("z", [1e-12, 1e-9, 1.0, 1e6, 1e12])
@pytest.mark.parametrize("token", ["A2", "E6"])
def test_jt_compatibility_does_not_depend_on_the_scale(token, z):
    # J^T G J = G is homogeneous in G, so scaling the metric by z keeps the verdict
    g = _group(token, z=z)
    gt = g.build().gt
    assert g.build(jt=canonical_jt(gt)).jt is not None
    # the standard jt is not compatible with A2's Killing metric (defect |G|), nor E6's
    standard = np.kron(np.eye(len(gt) // 2), [[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="not compatible"):
        g.build(jt=standard)


def test_factor_spec_validation():
    with pytest.raises(ValueError):
        FactorSpec(SimpleType("A", 2), z=-1.0)
    with pytest.raises(ValueError):
        A2.build(x=[(1.0, 1.0)])  # wrong length


@pytest.mark.parametrize("value", [1e200, 1e-200], ids=["overflow", "underflow"])
def test_effective_fiber_values_must_be_finite_and_positive(value):
    g = GroupSpec([FactorSpec(SimpleType("A", 1)), FactorSpec(SimpleType("A", 2), z=value)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not warned about
        with pytest.raises(PositivityError, match="factor 1, root position 0") as exc:
            g.build(x=[(1.0,), (value, value, value)])
    assert exc.value.value == value * value
    data = {"factors": [{"family": "A", "rank": 2, "z": value, "x": [value] * 3}]}
    with pytest.raises(PositivityError, match="factor 0, root position 0"):
        structure_from_dict(data)


def test_one_row_per_factor_is_refused_when_empty_or_scalar():
    product = _group("A1", "A2")
    for g in (A2, product):
        for bad in ([], 1.5):
            with pytest.raises(ValueError, match="simple values"):
                pluriclosed_family(g, bad)
            with pytest.raises(ValueError, match="fiber values"):
                g.build(bad)
    # the factor-count messages are unchanged, and ragged rows still load
    with pytest.raises(ValueError, match="one tuple of simple values per factor"):
        pluriclosed_family(product, [(1.5,)])
    with pytest.raises(ValueError, match="factor count does not match"):
        product.build([(1.0,)])
    assert product.build([(2.0,), (1.0, 1.0, 1.0)]).xhat[0].tolist() == [2.0]
    assert A2.build((1.0, 2.0, 3.0)).xhat[0].tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("rank", [2.5, 2.0, True, "2", None])
def test_load_accepts_only_an_integer_rank(rank):
    data = {"factors": [{"family": "A", "rank": 1}, {"family": "A", "rank": rank}]}
    with pytest.raises(ValueError, match="factor 1: rank must be a positive integer"):
        structure_from_dict(data)


# ---------------------------------------------------------------- cone

def test_biinvariant_cone_coupled_factors():
    b = 2.0
    g = _group("A1", "A1")
    jt = np.array([[0.0, -1.0 / b], [b, 0.0]])
    cone = biinvariant_compatible(g, jt)
    assert cone.dimension == 1
    z = cone.representative
    assert z is not None and z[0] / z[1] == pytest.approx(b * b)
    assert is_irreducible(g, jt)


def test_biinvariant_cone_blockdiag_reducible():
    g = _group("A2", "A2")
    h = g.build()
    jt = np.zeros((4, 4))
    jt[:2, :2] = canonical_jt(h.gt[:2, :2])
    jt[2:, 2:] = canonical_jt(h.gt[2:, 2:])
    cone = biinvariant_compatible(g, jt)
    assert cone.dimension == 2
    assert cone.representative is not None
    assert not is_irreducible(g, jt)


def test_biinvariant_cone_unequal_ranks():
    # the coupled A1 pair above, next to an A2 factor with its own jt block
    b = 2.0
    g = _group("A1", "A1", "A2")
    jt = np.zeros((4, 4))
    jt[:2, :2] = [[0.0, -1.0 / b], [b, 0.0]]
    jt[2:, 2:] = canonical_jt(g.systems[2].gram_float)
    cone = biinvariant_compatible(g, jt)
    assert cone.dimension == 2
    z = cone.representative
    assert z is not None and z[0] / z[1] == pytest.approx(b * b)
    assert not is_irreducible(g, jt)


def _subset_scan_irreducible(g, j, tol=1e-12):
    spans = [list(range(sl.start, sl.stop)) for sl in g.layout.slices]
    nfac = len(spans)
    for mask in range(1, 2**nfac - 1):
        inside = [i for f in range(nfac) if mask >> f & 1 for i in spans[f]]
        outside = [i for f in range(nfac) if not mask >> f & 1 for i in spans[f]]
        if np.abs(j[np.ix_(outside, inside)]).max() <= tol:
            return False
    return True


def test_irreducibility_by_coupling_graph():
    rng = np.random.default_rng(21)
    for tokens in (("A1",), ("A1", "A2"), ("A2", "A1", "B2"), ("A1", "A1", "G2", "A1")):
        g = _group(*tokens)
        for _ in range(25):
            j = np.zeros((g.layout.size, g.layout.size))
            for sa, sb in itertools.product(g.layout.slices, repeat=2):
                if rng.random() < 0.4:
                    j[sb, sa] = rng.normal(size=(sb.stop - sb.start, sa.stop - sa.start))
            assert is_irreducible(g, j) == _subset_scan_irreducible(g, j)
    # 22 factors, past the reach of a subset scan
    g = _group(*["A1"] * 22)
    assert not is_irreducible(g, canonical_jt(np.eye(22)))  # factors paired 2k, 2k + 1
    assert is_irreducible(g, canonical_jt(_rand_spd(rng, 22)))
    cycle = np.roll(np.eye(22), 1, axis=0)  # factor k -> factor k + 1 only
    assert is_irreducible(g, cycle)
    cycle[0, 21] = 0.0  # the cycle broken into a path
    assert not is_irreducible(g, cycle)


@pytest.mark.parametrize("size", [1, 4])
def test_irreducibility_refuses_jt_of_the_wrong_size(size):
    g = _group("A1", "A1")  # total rank 2
    with pytest.raises(ValueError, match=rf"jt must be 2x2 for this group, got shape \({size}, {size}\)"):
        is_irreducible(g, np.eye(size))
    with pytest.raises(ValueError, match="jt must be 2x2"):
        biinvariant_compatible(g, np.eye(size))


# ---------------------------------------------------------------- files

def test_json_round_trip(tmp_path):
    g = _group("A2", "B2")
    h = pluriclosed_family(g, [(1.5, 2.0), (1.3, 1.4)])
    d = structure_to_dict(h)
    h2 = structure_from_dict(d)
    assert np.allclose(np.concatenate(h.xhat), np.concatenate(h2.xhat))
    assert np.allclose(h.gt, h2.gt)
    path = tmp_path / "s.json"
    save_structure(h, path)
    h3 = load_structure(path)
    assert structure_to_dict(h3) == d


def test_json_explicit_blocks_and_jt(tmp_path):
    g = _group("A2")
    gt = _rand_spd(np.random.default_rng(3), 2)
    jt = canonical_jt(gt)
    h = g.build(torus=TorusMetric(g.layout.blockdiag([gt])), jt=jt)
    path = tmp_path / "s.json"
    save_structure(h, path)
    h2 = load_structure(path)
    assert np.allclose(h2.gt, gt)
    assert h2.jt is not None and np.allclose(h2.jt.matrix, jt)


def test_json_explicit_blocks_unequal_ranks(tmp_path):
    g = _group("A1", "G2")
    blocks = [[[3.0]], _rand_spd(np.random.default_rng(5), 2)]
    h = g.build(torus=TorusMetric(g.layout.blockdiag(blocks)))
    d = structure_to_dict(h)
    assert d["torus"] == {"blocks": [[[3.0]], blocks[1].tolist()]}
    path = tmp_path / "s.json"
    save_structure(h, path)
    h2 = load_structure(path)
    assert np.array_equal(h2.gt, h.gt)
    assert structure_to_dict(h2) == d


def test_load_refuses_blocks_that_do_not_match_factor_ranks():
    # sizes 2 and 1 add up to the total rank 3, but A1 needs 1 and A2 needs 2
    data = {
        "factors": [{"family": "A", "rank": 1}, {"family": "A", "rank": 2}],
        "torus": {"blocks": [[[2, 0.5], [0.5, 2]], [[3]]]},
    }
    with pytest.raises(ValueError, match="factor 0"):
        structure_from_dict(data)


def test_json_bad_inputs():
    with pytest.raises(ValueError):
        structure_from_dict({})
    with pytest.raises(ValueError):
        structure_from_dict({"factors": [{"family": "A"}], "torus": "killing"})
    with pytest.raises(ValueError):
        structure_from_dict(
            {"factors": [{"family": "D", "rank": 2, "x": []}], "torus": "killing"}
        )


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_refuses_non_finite_fiber_value(tmp_path, token):
    path = tmp_path / "s.json"
    path.write_text(
        '{"factors": [{"family": "A", "rank": 2, "x": [1.0, %s, 2.0]}], "torus": "killing"}'
        % token
    )
    with pytest.raises(PositivityError, match="not finite and positive"):
        load_structure(path)


NON_FINITE_STRUCTURES = {
    "z": '{"factors": [{"family": "A", "rank": 2, "z": Infinity}], "torus": "killing"}',
    "torus": '{"factors": [{"family": "A", "rank": 2}],'
    ' "torus": {"blocks": [[[Infinity, 0], [0, 2]]]}}',
    "jt": '{"factors": [{"family": "A", "rank": 2}], "torus": "killing",'
    ' "jt": [[NaN, -1], [1, 0]]}',
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_STRUCTURES))
def test_load_refuses_non_finite_numbers(tmp_path, entry):
    path = tmp_path / "s.json"
    path.write_text(NON_FINITE_STRUCTURES[entry])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            load_structure(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_family_refuses_non_finite_simple_value(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic can warn
        with pytest.raises(PositivityError) as exc:
            pluriclosed_family(A2, (bad, 1.5))
    assert exc.value.root_label == A2.systems[0].simples[0].label


def test_save_refuses_cross_factor_coupling(tmp_path):
    g = _group("A1", "A1")
    gt = g.layout.gram_float.astype(float)
    gt[0, 1] = gt[1, 0] = 0.25
    h = g.build(torus=gt)
    with pytest.raises(ValueError, match="couples different factors"):
        save_structure(h, tmp_path / "bad.json")


def test_refused_save_leaves_the_file_as_it_was(tmp_path):
    g = _group("A1", "A1")
    path = tmp_path / "s.json"
    save_structure(g.build(), path)
    before = path.read_bytes()
    gt = g.layout.gram_float.astype(float)
    gt[0, 1] = gt[1, 0] = 0.25
    with pytest.raises(ValueError, match="couples different factors"):
        save_structure(g.build(torus=gt), path)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match="couples different factors"):
        save_structure(g.build(torus=gt), tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()


@pytest.mark.parametrize("tokens", [("A2",), ("A1", "G2"), ("B2", "A2")])
def test_saved_bytes_are_those_json_dump_wrote(tmp_path, tokens):
    g = _group(*tokens)
    rng = np.random.default_rng(len(tokens))
    gt = g.layout.blockdiag([_rand_spd(rng, rs.rank) for rs in g.systems])
    jt = canonical_jt(gt) if g.layout.size % 2 == 0 else None
    for h in (g.build(), g.build(torus=TorusMetric(gt), jt=jt)):
        path = tmp_path / "s.json"
        save_structure(h, path)
        want = io.StringIO()
        json.dump(structure_to_dict(h), want, indent=2)
        want.write("\n")
        assert path.read_bytes() == want.getvalue().encode("utf-8")


_OFF_A2 = A2.build(x=[(2.0, 2.0, 4.0)])
_JT_A2 = canonical_jt(_OFF_A2.gt)
TOL_CALLS = {
    "is_pluriclosed": lambda tol: is_pluriclosed(_OFF_A2, tol=tol),
    "is_pluriclosed_brute_force": lambda tol: is_pluriclosed(_OFF_A2, "brute_force", tol),
    "is_cyt": lambda tol: is_cyt(_OFF_A2, tol=tol),
    "biinvariant_compatible": lambda tol: biinvariant_compatible(A2, _JT_A2, tol=tol),
    "is_irreducible": lambda tol: is_irreducible(A2, _JT_A2, tol=tol),
    "critical_point": lambda tol: critical_point(A2.systems[0], tol=tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(TOL_CALLS))
def test_tolerances_must_be_finite_and_positive(name, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        TOL_CALLS[name](tol)


# The paper's count: on each simple factor the solutions of dd^c omega = 0
# form a family of rank + 1 parameters, the simple values and the factor
# scale. dd^c omega is linear and homogeneous in the fiber values and the
# torus metric, so the family is the kernel of one matrix, built here column
# by column through the cochain oracle exterior_derivative(dc_form).
@pytest.mark.parametrize(
    "tokens",
    [("A2",), ("B2",), ("G2",), ("A3",), ("B3",), ("C3",), ("F4",), ("A2", "G2")],
    ids="x".join,
)
def test_pluriclosed_kernel_has_dimension_rank_plus_one_per_factor(tokens):
    g = _group(*tokens)
    r = g.layout.size
    x0 = [np.full(rs.npositive, 1.5) for rs in g.systems]
    gt0 = g.layout.gram_float.astype(float)

    def ddc(x, gt):
        return exterior_derivative(dc_form(g.build(x=x, torus=gt))).components

    base = ddc(x0, gt0)
    moved = []
    for f, rs in enumerate(g.systems):
        for t in range(rs.npositive):
            x = [row.copy() for row in x0]
            x[f][t] += 0.25
            moved.append(ddc(x, gt0))
    for p, q in itertools.combinations_with_replacement(range(r), 2):
        gt = gt0.copy()
        gt[p, q] += 0.05
        gt[q, p] = gt[p, q]
        moved.append(ddc(x0, gt))
    keys = sorted(set(base).union(*moved))
    m = np.array([[c.get(k, 0j) - base.get(k, 0j) for k in keys] for c in moved]).T
    svals = np.linalg.svd(np.vstack([m.real, m.imag]), compute_uv=False)
    rank = int((svals > 1e-8).sum())
    assert len(moved) - rank == sum(rs.rank + 1 for rs in g.systems)
    assert svals[:rank].min() > 1e-2 and svals[rank:].max() < 1e-12


# ---------------------------------------------------------------- argument and loader types

A2G2 = _group("A2", "G2")


def _g2_args():
    rs = A2G2.systems[1]
    b, c = rs.simples
    return b, c, rs.root((1, 1))


@pytest.mark.parametrize("bad", [True, False, np.True_, 1.0, "1"], ids=repr)
def test_factor_index_must_be_an_integer(bad):
    b, c, bc = _g2_args()
    h = A2G2.build()
    for call in (
        lambda: theta_form(h, (bad, b)),
        lambda: sigma_form(h, (bad, b)),
        lambda: dc_omega(h, (bad, b), (1, c), (1, -bc)),
        lambda: ddc_omega(h, (1, b), (1, -b), (bad, c), (1, -c)),
    ):
        with pytest.raises(ValueError, match="factor index must be an integer"):
            call()


def test_numpy_integer_factor_index_reads_as_the_int():
    b, c, bc = _g2_args()
    gt = _rand_spd(np.random.default_rng(3), A2G2.layout.size)
    x = [(1.0, 2.0, 1.5), (0.7, 1.2, 2.4, 2.2, 0.9, 1.4)]
    h = A2G2.build(x=x, torus=gt, jt=canonical_jt(gt))
    one = np.int64(1)
    assert theta_form(h, (one, b)).components == theta_form(h, (1, b)).components
    assert sigma_form(h, (one, -c)).components == sigma_form(h, (1, -c)).components
    for fn in (d_omega, dc_omega):
        assert fn(h, (one, b), (1, c), (np.int32(1), -bc)) == fn(h, (1, b), (1, c), (1, -bc)) != 0
        v = np.arange(1.0, 5.0)
        assert fn(h, v, (one, b), (one, -b)) == fn(h, v, (1, b), (1, -b)) != 0
    args = ((0, A2G2.systems[0].simples[0]), (0, -A2G2.systems[0].simples[0]), (1, b), (1, -b))
    np_args = [(np.uint8(f), r) for f, r in args]
    assert ddc_omega(h, *np_args) == ddc_omega(h, *args) != 0
    with pytest.raises(ValueError, match="factor index 2 out of range"):
        theta_form(h, (np.int64(2), b))
    keys = [*theta_form(h, (one, b)).components, *theta_form(h, (1, -bc)).components]
    assert keys and all(type(k) is int for key in keys for k in key)
    keys = sigma_form(h, (one, b)).components
    assert keys and all(type(k) is int for key in keys for k in key)


LOADER_REFUSALS = {
    "x_string": ({"x": "123"}, "factor 0: x must be a list of numbers, got '123'"),
    "x_bools": ({"x": [True, True, 2]}, "factor 0: x must be a list of numbers"),
    "x_number": ({"x": 1.5}, "factor 0: x must be a list of numbers"),
    "x_nested": ({"x": [[1, 2, 3]]}, "factor 0: x must be a list of numbers"),
    "x_dict": ({"x": {"0": 1.0}}, "factor 0: x must be a list of numbers"),
    "z_true": ({"z": True}, "factor 0: z must be a number, got True"),
    "z_string": ({"z": "2"}, "factor 0: z must be a number, got '2'"),
    "z_null": ({"z": None}, "factor 0: z must be a number, got None"),
    "z_list": ({"z": [2.0]}, "factor 0: z must be a number"),
}


@pytest.mark.parametrize("case", sorted(LOADER_REFUSALS))
def test_load_accepts_only_numbers_for_z_and_x(case):
    entry, message = LOADER_REFUSALS[case]
    data = {"factors": [dict({"family": "A", "rank": 2}, **entry)]}
    with pytest.raises(ValueError, match=re.escape(message)):
        structure_from_dict(data)
    # the factor named is the one holding the bad entry
    data = {"factors": [{"family": "A", "rank": 1}, dict({"family": "A", "rank": 2}, **entry)]}
    with pytest.raises(ValueError, match=re.escape(message.replace("factor 0", "factor 1"))):
        structure_from_dict(data)


# torus blocks and jt are matrices of JSON numbers, checked entry by entry
MATRIX_REFUSALS = {
    "blocks_bools": (
        {"torus": {"blocks": [[[True, False], [False, True]]]}},
        "torus block 0 entry (0, 0) must be a number, got True",
    ),
    "blocks_strings": (
        {"torus": {"blocks": [[["2", "-1"], ["-1", "2"]]]}},
        "torus block 0 entry (0, 0) must be a number, got '2'",
    ),
    "blocks_null": (
        {"torus": {"blocks": [[[2, -1], [-1, None]]]}},
        "torus block 0 entry (1, 1) must be a number, got None",
    ),
    "jt_string": ({"jt": [["0", -1], [1, 0]]}, "jt entry (0, 0) must be a number, got '0'"),
    "jt_bool": ({"jt": [[0, -1], [True, 0]]}, "jt entry (1, 0) must be a number, got True"),
    "jt_nested": ({"jt": [[0, [-1]], [1, 0]]}, "jt entry (0, 1) must be a number, got [-1]"),
    "jt_text": ({"jt": "01"}, "jt entry (0, 0) must be a number, got '0'"),
}


@pytest.mark.parametrize("case", sorted(MATRIX_REFUSALS))
def test_load_accepts_only_numbers_in_torus_blocks_and_jt(case):
    entry, message = MATRIX_REFUSALS[case]
    data = dict({"factors": [{"family": "A", "rank": 2}]}, **entry)
    with pytest.raises(ValueError, match=re.escape(message)):
        structure_from_dict(data)
    if "torus" in entry:  # the block named is the one holding the bad entry
        data["factors"].insert(0, {"family": "A", "rank": 1})
        data["torus"] = {"blocks": [[[2]], *entry["torus"]["blocks"]]}
        with pytest.raises(ValueError, match=re.escape(message.replace("block 0", "block 1"))):
            structure_from_dict(data)


def test_load_takes_number_matrices_for_torus_blocks_and_jt():
    g = _group("A2")
    q = g.layout.gram_float
    jt = canonical_jt(q)
    data = {"factors": [{"family": "A", "rank": 2}], "torus": {"blocks": [q.tolist()]},
            "jt": jt.tolist()}
    h = structure_from_dict(data)
    assert h.gt.tobytes() == q.tobytes() and h.jt.matrix.tobytes() == jt.tobytes()


@pytest.mark.parametrize("where", ["z", "x", "torus", "jt"])
def test_load_refuses_an_integer_too_large_for_a_float(where):
    big = 10**400
    row = {"family": "A", "rank": 2}
    data = {"factors": [row], "torus": "killing"}
    if where == "z":
        row["z"] = big
    elif where == "x":
        row["x"] = [1.0, big, 1.0]
    elif where == "torus":
        data["torus"] = {"blocks": [[[big, 0], [0, 2]]]}
    else:
        data["jt"] = [[0, -big], [1, 0]]
    with pytest.raises(ValueError, match="int too large to convert to float"):
        structure_from_dict(data)


def test_load_still_takes_json_numbers_and_defaults(tmp_path):
    data = {"factors": [{"family": "A", "rank": 2, "z": 2, "x": [1, 2.5, 3]}]}
    data["factors"].append({"family": "G", "rank": 2})
    h = structure_from_dict(data)
    assert h.xhat[0].tolist() == [2.0, 5.0, 6.0]
    assert h.xhat[1].tolist() == [1.0] * 6
    assert type(h.group.factors[0].z) is float
    path = tmp_path / "s.json"
    save_structure(h, path)
    assert structure_to_dict(load_structure(path)) == structure_to_dict(h)


def test_the_stacked_fiber_vector_is_read_only_and_each_factor_a_view_of_it():
    g = _group("B3", "G2")
    h = g.build(x=[tuple(np.linspace(0.5, 2.0, 9)), tuple(np.linspace(1.0, 3.0, 6))])
    assert h.x.tobytes() == np.concatenate(h.xhat).tobytes()
    assert h.x.tobytes() == np.concatenate([f.z * np.array(row) for f, row in
                                            zip(g.factors, h.fiber.values)]).tobytes()
    for f, rows in enumerate(g.layout.row_slices):
        assert h.xhat[f].base is h.x and h.xhat[f].tobytes() == h.x[rows].tobytes()
    for arr in (h.x, *h.xhat):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7.0
