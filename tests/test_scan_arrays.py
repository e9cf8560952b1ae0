"""The array scans against the scalar loops they replaced, bit for bit.

The references below are the loop implementations of the cochain
differential, of d^c omega and of the closed-form and brute-force scans,
kept verbatim apart from names and the closed-form scan's row order (every pair,
then every quad). The array code must give the same keys, the same key order and the
same float bits, and the same reports down to the witness. The brute-force
reference sums over every candidate component of d^c omega, zeros included,
as the scan replays one plan over them all.
"""

import itertools
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import sktflow.forms as forms_module
from sktflow import (
    FactorSpec,
    GroupSpec,
    InvariantForm,
    SimpleType,
    canonical_jt,
    dc_form,
    exterior_derivative,
    is_pluriclosed,
    omega_form,
    pluriclosed_family,
    sigma_form,
    theta_form,
)

FORM_GROUPS = ("A1", "A2", "B2", "G2", "B3", "C3", "F4", "E6", "A1xB2", "B3xG2", "A1xA2xG2")


@lru_cache(maxsize=None)
def _group(token):
    return GroupSpec([FactorSpec(SimpleType(t[0], int(t[1:]))) for t in token.split("x")])


def _rand_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def _metrics(g, seed):
    """One structure on the affine family, one off it with a coupled torus."""
    rng = np.random.default_rng(seed)
    on = pluriclosed_family(g, [rng.uniform(1.0, 2.0, rs.rank).tolist() for rs in g.systems])
    gt = _rand_spd(rng, g.layout.size)
    jt = canonical_jt(gt) if g.layout.size % 2 == 0 else None
    off = g.build([rng.uniform(0.5, 2.5, rs.npositive).tolist() for rs in g.systems], gt, jt)
    return on, off


# ---------------------------------------------------------------- references

def _reference_exterior_derivative(form, keep_zeros=False):
    by_elem = defaultdict(list)
    for key, val in form.components.items():
        if val == 0 and not keep_zeros:
            continue
        for m in key:
            by_elem[m].append((key, val))

    out = defaultdict(complex)
    for (i, j), terms in form.basis.nonzero_brackets():
        for m, c in terms:
            for key, val in by_elem.get(m, ()):
                rest = tuple(e for e in key if e != m)
                if i in rest or j in rest:
                    continue
                parity_m = bisect_left(rest, m)
                merged = tuple(sorted(rest + (i, j)))
                p, q = merged.index(i), merged.index(j)
                sign = -1 if (parity_m + p + q) % 2 else 1
                out[merged] += sign * c * val
    return {k: v for k, v in out.items() if keep_zeros or v != 0}


def _reference_dc_form(h, keep_zeros=False):
    basis = h.group.basis
    comps = {}
    for f, rs in enumerate(h.group.systems):
        for t, root in enumerate(rs.positives):
            gk = h.gt @ h.group.layout.embed(f, root.coeffs)
            e = basis.element_index(f, t)
            for a in range(h.group.layout.size):
                if gk[a] or keep_zeros:
                    comps[(a, e, e + 1)] = complex(-gk[a])
        n, fl, x = rs.npositive, h.group.constants[f].float_array.tolist(), h.xhat[f].tolist()
        for eta, theta, xi in zip(*(v.tolist() for v in rs.positive_sums())):
            for triple in ((eta, theta, n + xi), (n + eta, n + theta, xi)):
                idx = sorted((basis.element_index(f, r), r) for r in triple)
                rts = [r for _, r in idx]
                signs = [1 if r < n else -1 for r in rts]
                eps = signs[0] * signs[1] * signs[2]
                total_y = sum(-1j * sg * x[r % n] for sg, r in zip(signs, rts))
                comps[tuple(k for k, _ in idx)] = 1j * eps * fl[rts[0]][rts[1]] * total_y
    return comps


def _reference_pair_level_value(h, fa, i, fb, j):
    ka = h.group.layout.embed(fa, h.group.systems[fa].positives[i].coeffs)
    kb = h.group.layout.embed(fb, h.group.systems[fb].positives[j].coeffs)
    val = 2.0 * float(ka @ h.gt @ kb)
    if fa != fb:
        return val
    rs, sc, x = h.group.systems[fa], h.group.constants[fa], h.xhat[fa].tolist()
    n = rs.npositive
    up = rs.sum_index[i, j]
    if up >= 0:
        val -= 2.0 * float(sc.at(i, j).squared()) * (x[up] - x[i] - x[j])
    down = rs.diff_index[i, j]
    if down >= 0:
        eps = 1.0 if down < n else -1.0
        val -= 2.0 * eps * float(sc.at(i, n + j).squared()) * (eps * x[down % n] - x[i] + x[j])
    return val


def _reference_quad_level_value(h, f, a, b, c, d):
    rs, fl, x = h.group.systems[f], h.group.constants[f].float_array.tolist(), h.xhat[f].tolist()
    n, add = rs.npositive, rs.sum_index
    xa, xb, xc, xd = x[a], x[b], x[c - n], x[d - n]
    val = 0.0
    up = add[a, b]
    if up >= 0:
        val += fl[a][b] * fl[c][d] * (xa + xb + xc + xd - 2.0 * x[up])
    ac = add[a, c]
    if ac >= 0:
        eps = 1.0 if ac < n else -1.0
        val -= eps * fl[a][c] * fl[b][d] * (-xa + xb + xc - xd + 2.0 * eps * x[ac % n])
    ad = add[a, d]
    if ad >= 0:
        eps = 1.0 if ad < n else -1.0
        val += eps * fl[a][d] * fl[b][c] * (-xa + xb - xc + xd + 2.0 * eps * x[ad % n])
    return val


def _exact_quad_forms(g):
    """Per row of a simple group's quad table, its dd^c value as an exact
    linear form in the stacked fiber values, {(x row, squarefree core):
    rational coefficient}, zeros dropped. Each table coefficient is replaced
    by its product of two sc.at Surds, times its sign, after checking that
    the float is that product of float_array entries, bit for bit."""
    quads = g.residual_tables[1]
    sc, n = g.constants[0], g.systems[0].npositive
    fl = sc.float_array
    forms = []
    for r, (i, j, m, l, x_ab, x_ac, x_ad) in enumerate(quads.rows.T.tolist()):
        a, b, c, d = i, j, n + m, n + l
        eps_c, eps_d = int(quads.ac_eps[r]), int(quads.ad_eps[r])
        form = defaultdict(Fraction)
        for column, eps, p, q, sign, reads in (
            (quads.ab, 1, (a, b), (c, d), 1, ((i, 1), (j, 1), (m, 1), (l, 1), (x_ab, -2))),
            (quads.ac, eps_c, (a, c), (b, d), -1,
             ((i, -1), (j, 1), (m, 1), (l, -1), (x_ac, 2 * eps_c))),
            (quads.ad, eps_d, (a, d), (b, c), 1,
             ((i, -1), (j, 1), (m, -1), (l, 1), (x_ad, 2 * eps_d))),
        ):
            assert float(column[r]).hex() == (eps * fl[p] * fl[q] + 0.0).hex()
            if column[r] == 0:
                continue
            exact = sc.at(*p) * sc.at(*q) * eps
            for row, k in reads:
                form[(row, exact.core)] += sign * k * exact.coeff
        forms.append({key: v for key, v in form.items() if v})
    return forms


@pytest.mark.parametrize("token", ["G2", "B3", "C3", "F4", "B4", "C4", "D5", "E6", "E7", "E8"])
def test_every_quad_row_equals_its_conjugate_twin_exactly(token):
    """The quad row (i, j, m, l) and its twin (m, l, i, j) are the same
    linear form in the fiber values, in exact arithmetic."""
    g = _group(token)
    quads = g.residual_tables[1]
    forms = _exact_quad_forms(g)
    at = {tuple(key): r for r, key in enumerate(quads.rows[:4].T.tolist())}
    for (i, j, m, l), r in at.items():
        twin = at[(m, l, i, j)]
        assert twin != r and forms[twin] == forms[r]


def _reference_closed_form_scan(h):
    best = (0.0, None)
    skt1_max = 0.0
    skt2_max = 0.0
    nfac = len(h.group.factors)
    for f in range(nfac):
        rs = h.group.systems[f]
        pos = rs.positives
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                r = abs(_reference_pair_level_value(h, f, i, f, j)) / 2.0
                if r > skt1_max:
                    skt1_max = r
                if r > best[0]:
                    best = (r, f"pair ({pos[i].label}, {pos[j].label}) in factor {f}")
    for fa in range(nfac):
        for fb in range(fa + 1, nfac):
            pa, pb = h.group.systems[fa].positives, h.group.systems[fb].positives
            for i, j in itertools.product(range(len(pa)), range(len(pb))):
                r = abs(_reference_pair_level_value(h, fa, i, fb, j)) / 2.0
                if r > skt1_max:
                    skt1_max = r
                if r > best[0]:
                    best = (r, f"pair (factor {fa}: {pa[i].label}, factor {fb}: {pb[j].label})")
    for f in range(nfac):
        rs = h.group.systems[f]
        pos = rs.positives
        n = len(pos)
        for i, j, m, l in rs.positive_quads().tolist():
            r = abs(_reference_quad_level_value(h, f, i, j, n + m, n + l)) / 2.0
            if r > skt2_max:
                skt2_max = r
            if r > best[0]:
                best = (
                    r,
                    f"quad ({pos[i].label}, {pos[j].label}, {(-pos[m]).label}, {(-pos[l]).label})"
                    f" in factor {f}",
                )
    return best[0], best[1], skt1_max, skt2_max


def _reference_bucket(basis, key):
    p0, p1, p2, p3 = (basis.pair_of[m] for m in key)
    if p0 < 0:
        return "mixed"
    return "skt1" if p0 == p1 and p2 == p3 else "skt2"


def _reference_ddc_candidates(h):
    """dd^c omega summed over every candidate component of d^c omega, zeros
    included, with every output component kept."""
    candidates = InvariantForm(h.group.basis, 3, _reference_dc_form(h, keep_zeros=True))
    return _reference_exterior_derivative(candidates, keep_zeros=True)


def _reference_brute_force_scan(h):
    basis = h.group.basis
    four = _reference_ddc_candidates(h)
    best = (0.0, None)
    skt1_max = 0.0
    skt2_max = 0.0
    for key, val in four.items():
        r = abs(val) / 2.0
        bucket = _reference_bucket(basis, key)
        if bucket == "skt1" and r > skt1_max:
            skt1_max = r
        if bucket == "skt2" and r > skt2_max:
            skt2_max = r
        if r > best[0]:
            names = ", ".join(
                f"H_{dd[2] + 1}" if dd[0] == "H" else f"factor {dd[1]}: {dd[2].label}"
                for dd in (basis.descriptors[i] for i in key)
            )
            best = (r, f"{bucket} ({names})")
    return best[0], best[1], skt1_max, skt2_max


# ---------------------------------------------------------------- helpers

def _bits(components):
    """Keys in order with the exact bits of each value."""
    return [(k, complex(v).real.hex(), complex(v).imag.hex()) for k, v in components.items()]


def _report_bits(rep):
    return (rep.verdict, rep.max_residual.hex(), rep.witness, rep.skt1_max.hex(),
            rep.skt2_max.hex())


def _reference_bits(scan, tol=1e-8):
    best, witness, skt1, skt2 = scan
    return (best < tol, best.hex(), witness, skt1.hex(), skt2.hex())


def _forms(h, seed):
    """Inputs of degree 1 to 4: theta, omega (sigma without jt), d omega, d^c omega, dd^c omega."""
    rng = np.random.default_rng(seed)
    g = h.group
    forms = {
        "theta_torus": theta_form(h, rng.normal(size=g.layout.size)),
        "theta_root": theta_form(h, (len(g.factors) - 1, g.systems[-1].positives[-1])),
    }
    two = omega_form(h) if h.jt is not None else sigma_form(h, rng.normal(size=g.layout.size))
    forms["omega"] = two
    forms["d_omega"] = InvariantForm(g.basis, 3, _reference_exterior_derivative(two))
    forms["dc_omega"] = dc_form(h)
    ddc = _reference_exterior_derivative(forms["dc_omega"])
    forms["ddc_omega"] = InvariantForm(g.basis, 4, ddc)
    return forms


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("token", FORM_GROUPS)
def test_exterior_derivative_is_bit_identical_to_the_loop(token):
    for n, h in enumerate(_metrics(_group(token), seed=len(token))):
        for name, form in _forms(h, seed=n).items():
            got = exterior_derivative(form)
            assert got.degree == form.degree + 1
            assert _bits(got.components) == _bits(_reference_exterior_derivative(form)), name


@pytest.mark.parametrize("token", (*FORM_GROUPS, "E7", "A3xC3"))
def test_dc_form_is_bit_identical_to_the_loop(token):
    g = _group(token)
    for h in (*_metrics(g, 1), *_metrics(g, 2), g.build()):
        got = dc_form(h).components
        assert all(type(v) is complex for v in got.values())
        assert _bits(got) == _bits(_reference_dc_form(h))


@pytest.mark.parametrize("block_rows", [1, 7])
def test_exterior_derivative_block_size_does_not_change_output(monkeypatch, block_rows):
    for token in ("G2", "A1xB2", "B3"):
        h = _metrics(_group(token), seed=3)[1]
        forms = _forms(h, seed=4)
        want = {name: _bits(exterior_derivative(f).components) for name, f in forms.items()}
        monkeypatch.setattr(forms_module, "_BLOCK_ROWS", block_rows)
        got = {name: _bits(exterior_derivative(f).components) for name, f in forms.items()}
        monkeypatch.undo()
        assert got == want, token


@pytest.mark.parametrize("token", FORM_GROUPS)
def test_scan_reports_are_bit_identical_to_the_loops(token):
    g = _group(token)
    # the bi-invariant metric has residuals that are exactly zero on most types
    for h in (*_metrics(g, 1), *_metrics(g, 2), g.build()):
        cf = is_pluriclosed(h, mode="closed_form")
        assert _report_bits(cf) == _reference_bits(_reference_closed_form_scan(h))
        bf = is_pluriclosed(h, mode="brute_force")
        assert _report_bits(bf) == _reference_bits(_reference_brute_force_scan(h))


@pytest.mark.parametrize("token", ["F4", "E6", "B3xG2"])
def test_closed_form_agrees_with_brute_force_on_large_and_coupled_groups(token):
    g = _group(token)
    for seed in (5, 6):
        for on_family, h in zip((True, False), _metrics(g, seed)):
            cf = is_pluriclosed(h, mode="closed_form")
            bf = is_pluriclosed(h, mode="brute_force")
            assert cf.verdict == bf.verdict == on_family
            for key in ("max_residual", "skt1_max", "skt2_max"):
                assert abs(getattr(cf, key) - getattr(bf, key)) <= 1e-10, key


@pytest.mark.parametrize("token", ["F4", "E6", "B3xG2", "A3xC3"])
def test_brute_force_scan_reads_the_bits_of_the_public_differential(token):
    # zero candidates add only signed zeros, so every nonzero component of
    # exterior_derivative(dc_form(h)) keeps its bits in the scan
    rng = np.random.default_rng(len(token))
    types = [SimpleType(t[0], int(t[1:])) for t in token.split("x")]
    for trial in range(3):
        g = GroupSpec([FactorSpec(t, z=float(rng.uniform(0.3, 3.0))) for t in types])
        for h in (*_metrics(g, trial), g.build()):
            rep = is_pluriclosed(h, mode="brute_force")
            keys, values = exterior_derivative(dc_form(h)).arrays()
            r = np.abs(values) / 2.0
            bucket = np.array([_reference_bucket(g.basis, k) for k in keys.tolist()])
            best, skt1, skt2 = (float(r.max(where=m, initial=0.0))
                                for m in (True, bucket == "skt1", bucket == "skt2"))
            assert rep.verdict == (best / h.scale < rep.tol)
            assert (rep.max_residual.hex(), rep.skt1_max.hex(), rep.skt2_max.hex()) == (
                best.hex(), skt1.hex(), skt2.hex())


def test_reports_count_what_they_checked():
    g = _group("A1xB2")
    h = _metrics(g, 1)[1]
    cf = is_pluriclosed(h, mode="closed_form")
    # pairs i < j and quads in each factor, then the pairs across factors
    a1, b2 = g.systems
    assert cf.checked == 0 + 6 + len(b2.positive_quads()) + 1 * 4
    bf = is_pluriclosed(h, mode="brute_force")
    # every component the differential sums over every d^c candidate, zero
    # or not: the group's count, on the family too
    assert bf.checked == len(_reference_ddc_candidates(h)) > 0
    on_family = is_pluriclosed(_metrics(g, 1)[0], mode="brute_force")
    assert on_family.checked == bf.checked
    assert cf.elapsed_s >= 0.0 and bf.elapsed_s >= 0.0
    # elapsed time does not take part in report equality
    again = is_pluriclosed(h, mode="closed_form")
    assert again == cf
    f4 = is_pluriclosed(_metrics(_group("F4"), 1)[0])
    rs = _group("F4").systems[0]
    assert f4.checked == rs.npositive * (rs.npositive - 1) // 2 + len(rs.positive_quads())
