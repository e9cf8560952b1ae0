"""Hermitian structures: form components, pluriclosed scans, serialization."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sktflow import (
    FactorSpec,
    GroupSpec,
    MissingComplexStructureError,
    Normalization,
    PositivityError,
    SimpleType,
    TorusMetric,
    biinvariant_compatible,
    canonical_jt,
    d_omega,
    d_star_omega,
    dc_form,
    dc_omega,
    ddc_omega,
    exterior_derivative,
    family_bound,
    family_values,
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
    gt = g.gram_blockdiag().astype(float)
    gt[0, 1] = gt[1, 0] = 0.3
    h = g.build(torus=gt)
    rep = is_pluriclosed(h)
    assert not rep.verdict
    assert rep.max_residual == pytest.approx(0.3)
    assert "factor 0" in rep.witness and "factor 1" in rep.witness
    assert is_pluriclosed(h, mode="brute_force").max_residual == pytest.approx(0.3)


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


def test_theta_sigma_and_derivative_relation():
    g = _group("B2")
    rng = np.random.default_rng(5)
    gt = _rand_spd(rng, 2)
    x = rng.uniform(0.5, 2.0, 4)
    h = g.build(x=[tuple(x)], torus=gt)
    basis = g.basis
    v = rng.normal(size=2)
    theta = theta_form(h, v, basis)
    sigma = sigma_form(h, solve_p := np.linalg.solve(h.q_full, gt @ v), basis)
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
                    ev = np.zeros(g.total_rank)
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


def test_d_omega_matches_exterior_derivative_of_omega():
    rng = np.random.default_rng(13)
    g = _group("A2")
    rs = g.systems[0]
    gt = _rand_spd(rng, 2)
    jt = canonical_jt(gt)
    x = rng.uniform(0.5, 2.0, 3)
    h = g.build(x=[tuple(x)], torus=gt, jt=jt)
    basis = g.basis
    om = omega_form(h, basis)
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


# ---------------------------------------------------------------- validation

def test_torus_metric_validation():
    with pytest.raises(ValueError, match="symmetric"):
        TorusMetric(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        TorusMetric(np.array([[1.0, 0.0], [0.0, -2.0]]))


def test_fiber_positivity():
    with pytest.raises(PositivityError):
        A2.build(x=[(1.0, -0.5, 1.0)])


def test_jt_validation():
    g = _group("A2")
    gt = g.gram_blockdiag().astype(float)
    with pytest.raises(ValueError, match="compatible"):
        g.build(jt=np.array([[0.0, -2.0], [0.5, 0.0]]))
    ok = canonical_jt(gt)
    h = g.build(jt=ok)
    assert h.jt is not None
    with pytest.raises(ValueError):
        canonical_jt(_rand_spd(np.random.default_rng(0), 3))  # odd rank


def test_factor_spec_validation():
    with pytest.raises(ValueError):
        FactorSpec(SimpleType("A", 2), z=-1.0)
    with pytest.raises(ValueError):
        A2.build(x=[(1.0, 1.0)])  # wrong length


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
    h = g.build(torus=TorusMetric.from_blocks([gt]), jt=jt)
    path = tmp_path / "s.json"
    save_structure(h, path)
    h2 = load_structure(path)
    assert np.allclose(h2.gt, gt)
    assert h2.jt is not None and np.allclose(h2.jt.matrix, jt)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_family_refuses_non_finite_simple_value(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic can warn
        with pytest.raises(PositivityError) as exc:
            pluriclosed_family(A2, (bad, 1.5))
    assert exc.value.root_label == A2.systems[0].simples[0].label


def test_save_refuses_cross_factor_coupling(tmp_path):
    g = _group("A1", "A1")
    gt = g.gram_blockdiag().astype(float)
    gt[0, 1] = gt[1, 0] = 0.25
    h = g.build(torus=gt)
    with pytest.raises(ValueError, match="couples different factors"):
        save_structure(h, tmp_path / "bad.json")
