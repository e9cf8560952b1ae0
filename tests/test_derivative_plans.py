"""exterior_derivative's cached plans, and the one d^c triple row formula.

exterior_derivative replays a plan that the basis caches per degree and key
set. A replayed plan must give the bits of a fresh plan and of the reference
loop in tests/test_scan_arrays.py, and a key set must never be replayed
against another key set's plan. The brute-force scan builds none of these: it
replays the basis' one ddc_plan, over every d^c candidate. dc_form, d_omega
and dc_omega read the triple row formula `forms.triple_terms`; the scalar
three-root branch that d_omega and dc_omega used before is kept below as
their reference.
"""

import pytest

import sktflow.forms as forms_module
from sktflow import (
    FactorSpec,
    GroupSpec,
    InvariantForm,
    SimpleType,
    d_omega,
    dc_form,
    dc_omega,
    exterior_derivative,
    is_pluriclosed,
)
from test_scan_arrays import (
    _bits,
    _forms,
    _metrics,
    _reference_bits,
    _reference_brute_force_scan,
    _reference_exterior_derivative,
    _report_bits,
)


def _fresh(token):
    """A new group, so its basis holds no plan yet."""
    return GroupSpec([FactorSpec(SimpleType.parse(t)) for t in token.split("x")])


def _on(group, h):
    """h rebuilt on another group of the same type."""
    return group.build(h.fiber, torus=h.torus, jt=h.jt)


def _count_builds(monkeypatch):
    builds = []
    build = forms_module._build_plan

    def counted(basis, keys):
        builds.append(basis)
        return build(basis, keys)

    monkeypatch.setattr(forms_module, "_build_plan", counted)
    return builds


@pytest.mark.parametrize("token", ["F4", "E6", "B3xG2"])
def test_alternating_key_sets_replay_the_bits_of_a_fresh_plan(token, monkeypatch):
    g = _fresh(token)
    # on the family, the Killing torus off it and a coupled torus, in turn:
    # two key sets for exterior_derivative, as the Killing torus' structures
    # share its zero candidates and a coupled torus has none
    (on1, off1), (on2, off2) = _metrics(g, 1), _metrics(g, 2)
    metrics = [on1, g.build(off1.fiber), off1, on2, off2]
    builds = _count_builds(monkeypatch)
    for h in metrics + metrics[::-1]:
        report = _report_bits(is_pluriclosed(h, mode="brute_force"))
        assert report == _report_bits(is_pluriclosed(_on(_fresh(token), h), mode="brute_force"))
        assert report == _reference_bits(_reference_brute_force_scan(h))
    # the scan builds the basis' one plan, whatever the structure
    assert sum(basis is g.basis for basis in builds) == 1 and g.basis._plans == {}
    for h in metrics + metrics[::-1]:
        got = exterior_derivative(dc_form(h))
        fresh = exterior_derivative(dc_form(_on(_fresh(token), h)))
        assert _bits(got.components) == _bits(fresh.components)
        assert _bits(got.components) == _bits(_reference_exterior_derivative(dc_form(h)))
    # exterior_derivative builds one plan per key set on g, then only replays
    assert sum(basis is g.basis for basis in builds) == 3
    assert len(g.basis._plans[3]) == 2


def _dropping(form, k):
    """form without its first k components, held as a dict."""
    items = list(form.components.items())[k:]
    return InvariantForm(form.basis, form.degree, dict(items))


def test_a_basis_keeps_at_most_two_plans_per_degree(monkeypatch):
    g = _fresh("G2")
    dc = dc_form(_metrics(g, 1)[1])
    forms = [_dropping(dc, k) for k in range(3)]
    builds = _count_builds(monkeypatch)
    want = [_bits(_reference_exterior_derivative(f)) for f in forms]
    for f, bits in zip(forms, want):
        assert _bits(exterior_derivative(f).components) == bits
    assert len(builds) == 3 and len(g.basis._plans[3]) == 2
    # the oldest plan went first: the newest is replayed, the first is rebuilt
    assert _bits(exterior_derivative(forms[2]).components) == want[2]
    assert len(builds) == 3
    assert _bits(exterior_derivative(forms[0]).components) == want[0]
    assert len(builds) == 4 and len(g.basis._plans[3]) == 2
    # plans of another degree are kept apart
    exterior_derivative(exterior_derivative(forms[0]))
    assert len(g.basis._plans[3]) == 2 and len(g.basis._plans[4]) == 1


@pytest.mark.parametrize("token", ["G2", "A1xB2", "B3"])
def test_a_key_set_of_the_same_length_is_never_replayed_on_another_plan(token):
    g = _fresh(token)
    dc = dc_form(_metrics(g, 2)[1])
    items = list(dc.components.items())
    reordered = InvariantForm(g.basis, 3, dict(items[::-1]))
    # the same values, with the last key swapped for a key dc does not hold
    basis_dim = g.basis.dim
    spare = next(
        (a, b, c)
        for a in range(basis_dim) for b in range(a + 1, basis_dim) for c in range(b + 1, basis_dim)
        if (a, b, c) not in dc.components
        and _reference_exterior_derivative(InvariantForm(g.basis, 3, {(a, b, c): 1.0}))
    )
    swapped = InvariantForm(g.basis, 3, dict(items[:-1] + [(spare, items[-1][1])]))
    for form in (dc, reordered, swapped, dc, swapped, reordered):
        got = exterior_derivative(form)
        assert _bits(got.components) == _bits(_reference_exterior_derivative(form))
        fresh = InvariantForm(_fresh(token).basis, 3, dict(form.components))
        assert _bits(got.components) == _bits(exterior_derivative(fresh).components)


@pytest.mark.parametrize("block_rows", [1, 7])
def test_exterior_derivative_block_size_does_not_change_a_fresh_plan(monkeypatch, block_rows):
    for token in ("G2", "A1xB2", "B3"):
        h = _metrics(_fresh(token), seed=3)[1]
        want = {name: _bits(exterior_derivative(f).components)
                for name, f in _forms(h, seed=4).items()}
        monkeypatch.setattr(forms_module, "_BLOCK_ROWS", block_rows)
        h = _on(_fresh(token), h)
        got = {name: _bits(exterior_derivative(f).components)
               for name, f in _forms(h, seed=4).items()}
        monkeypatch.undo()
        assert got == want, token


def _reference_triple(h, roots, conjugate):
    """The three-root branch of d_omega and dc_omega before the row formula."""
    (f1, i1), (f2, i2), (f3, i3) = roots
    rs = h.group.systems[f1]
    n = float(h.group.constants[f1].float_array[i1, i2])
    x, npos = h.xhat[f1].tolist(), rs.npositive
    s1, s2, s3 = (1 if i < npos else -1 for i in (i1, i2, i3))
    y1, y2, y3 = (-1j * s * x[i % npos] for s, i in ((s1, i1), (s2, i2), (s3, i3)))
    ys = y1 + y2 + y3
    return 1j * (s1 * s2 * s3) * n * ys if conjugate else n * ys


def _hex(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


@pytest.mark.parametrize("token", ["A2", "G2", "B3", "A1xB2"])
def test_d_and_dc_omega_on_triples_share_dc_forms_row_formula(token):
    g = _fresh(token)
    basis = g.basis
    for h in (*_metrics(g, 1), *_metrics(g, 2), g.build()):
        comps = dc_form(h).components
        triples = [key for key in comps if min(key) >= basis.layout.size]
        assert len(triples) == sum(2 * len(rs.positive_sums()[0]) for rs in g.systems)
        for key in triples:
            args = [(f, root) for _, f, root in (basis.descriptors[e] for e in key)]
            roots = [(f, g.systems[f].index_of(root)) for f, root in args]
            assert _hex(dc_omega(h, *args)) == _hex(comps[key])
            # in three argument orders, against the former branch
            for turn in (args, args[1:] + args[:1], args[::-1]):
                at = [roots[args.index(a)] for a in turn]
                assert _hex(dc_omega(h, *turn)) == _hex(_reference_triple(h, at, True))
                assert _hex(d_omega(h, *turn)) == _hex(_reference_triple(h, at, False))
