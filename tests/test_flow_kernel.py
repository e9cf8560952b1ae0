"""The whole-layout flow kernel: one guarded family_gradient per evaluation.

`flow._Evaluator` reads a `FactorLayout` as one root system: its stacked,
block-diagonal K and -Q give every stage in one pass, whatever the factor
count. On a single factor the result is bit-identical to the factor's own
formula; on a product it agrees with the per-factor pieces to the last few
bits. A value that fails the one guard is refused by `family._refuse`,
which locates it by the layout's offsets.
"""

from functools import lru_cache

import numpy as np
import pytest

import sktflow.flow
from conftest import parse_token, system
from sktflow import (
    FactorLayout,
    FactorSpec,
    FlowConfig,
    GroupSpec,
    PositivityError,
    family_bound,
    family_values,
    functional_F,
    grad_F,
    integrate,
    rhs,
)
from sktflow.family import Violation as _Violation, _refuse, family_gradient
from sktflow.flow import _Evaluator
from sktflow.hermitian import _signed_root

CATALOG = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
PRODUCTS = ("A2xG2", "B3xG2", "A1xA2xG2")
EPS = FlowConfig().eps_pos


@lru_cache(maxsize=None)
def _systems(token):
    return tuple(system(t) for t in token.split("x"))


def _starts(token, seed=0):
    """A family point and a start just above the family bound, factor by factor."""
    rng = np.random.default_rng(seed)
    systems = _systems(token)
    point = np.concatenate([rng.uniform(0.9, 2.0, rs.rank) for rs in systems])
    near = np.concatenate([family_bound(rs) + rng.uniform(1e-4, 1e-3, rs.rank) for rs in systems])
    return point, near


# ---------------------------------------------------------------- the layout's arrays


@pytest.mark.parametrize("token", ["G2", *PRODUCTS])
def test_layout_stacks_embedded_roots_and_block_diagonal_gram(token):
    layout = FactorLayout(_systems(token))
    k, q = layout.coefficient_matrix, layout.gram_float
    assert k.shape == (sum(rs.npositive for rs in layout.systems), layout.size)
    for f, (rs, rows, cols) in enumerate(zip(layout.systems, layout.row_slices, layout.slices)):
        assert np.array_equal(k[rows], layout.embed(f, rs.coefficient_matrix))
        assert np.array_equal(q[cols, cols], rs.gram_float)
        assert layout.locate(rows.start, rows=True) == (f, 0)
        assert layout.locate(cols.stop - 1) == (f, rs.rank - 1)
    assert np.array_equal(q, layout.blockdiag(rs.gram_float for rs in layout.systems))
    for m in (k, q):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0


def test_group_reads_the_layout_arrays():
    group = GroupSpec([FactorSpec(parse_token(t)) for t in ("A1", "A2", "G2")])
    layout = group.layout
    # the component functions read each root, and its negative with +0.0 in
    # every zero entry, from the layout's rows
    for f, (rs, rows) in enumerate(zip(group.systems, layout.row_slices)):
        for i, k in enumerate(layout.coefficient_matrix[rows]):
            assert _signed_root(group, f, i).tobytes() == k.tobytes()
            assert _signed_root(group, f, rs.npositive + i).tobytes() == (0.0 - k).tobytes()


# ---------------------------------------------------------------- the kernel's bits


@pytest.mark.parametrize("token", CATALOG)
def test_single_factor_rhs_is_the_factor_formula_bit_for_bit(token):
    rs = system(token)
    for x in _starts(token):
        assert np.array_equal(rhs(rs, x), -rs.gram_float @ grad_F(rs, x))


@pytest.mark.parametrize("token", PRODUCTS)
def test_product_rhs_agrees_with_the_per_factor_pieces(token):
    systems = _systems(token)
    layout = FactorLayout(systems)
    for x in _starts(token):
        pieces = [x[sl] for sl in layout.slices]
        joint = np.concatenate([-rs.gram_float @ grad_F(rs, p) for rs, p in zip(systems, pieces)])
        # 1e-14 on values of order one; near the bound the rhs reaches 10^3 or more
        atol = 1e-14 * max(1.0, float(np.abs(joint).max()))
        assert np.allclose(rhs(systems, x), joint, rtol=0.0, atol=atol)
        total = sum(functional_F(rs, p) for rs, p in zip(systems, pieces))
        assert functional_F(systems, x) == pytest.approx(total, rel=0.0, abs=1e-13)


def test_integrate_evaluates_the_whole_layout_once_per_stage(monkeypatch):
    seen = []
    original = sktflow.flow.family_gradient

    def counted(rs, s, eps=0.0, factor=None):
        seen.append(rs)
        return original(rs, s, eps, factor)

    monkeypatch.setattr(sktflow.flow, "family_gradient", counted)
    systems = _systems("A1xA2xG2")
    traj = integrate(systems, _starts("A1xA2xG2")[0], FlowConfig(t_end=5.0))
    assert len(seen) == traj.stats.evaluations > 0
    assert all(isinstance(rs, FactorLayout) for rs in seen)


# ---------------------------------------------------------------- refusals on products


def _bad_starts(token):
    """(state, factor, simple index, value) for NaN, +inf and -1 on every coordinate."""
    layout = FactorLayout(_systems(token))
    for f, sl in enumerate(layout.slices):
        for i in range(sl.stop - sl.start):
            for bad in (np.nan, np.inf, -1.0):
                x = np.full(layout.size, 1.5)
                x[sl.start + i] = bad
                yield pytest.param(token, x, f, i, bad, id=f"{token}-f{f}-a{i + 1}-{bad}")


def _check(exc, rs, root, factor, value):
    assert exc.root_label == root.label
    where = f"root {root.label} in factor {factor} is {value:.6g}, not finite and positive"
    assert where in str(exc)
    assert exc.bound == family_bound(rs)


BAD_STARTS = [p for token in ("A2xG2", "A1xA2xG2") for p in _bad_starts(token)]


@pytest.mark.parametrize("token,x,factor,i,bad", BAD_STARTS)
def test_bad_simple_value_on_a_product_is_named(token, x, factor, i, bad):
    systems = _systems(token)
    rs = systems[factor]
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(PositivityError) as info:
            rhs(systems, x)
        _check(info.value, rs, rs.simples[i], factor, bad)
        # the guarded evaluation halves on -1, which is at or below eps
        evaluate = _Evaluator(systems)
        if bad < 0:
            with pytest.raises(_Violation):
                evaluate(x, EPS)
        else:
            with pytest.raises(PositivityError) as info:
                evaluate(x, EPS)
            _check(info.value, rs, rs.simples[i], factor, bad)
        with pytest.raises(PositivityError) as info:
            integrate(systems, x)
        _check(info.value, rs, rs.simples[i], factor, bad)


def _near_zero_start(token, factor):
    """All simple values of one factor equal, so its maximal root's value is in (0, eps]."""
    layout = FactorLayout(_systems(token))
    rs = layout.systems[factor]
    x = np.full(layout.size, 1.5)
    x[layout.slices[factor]] = 1.0 - (1.0 - EPS / 2) / rs.maximal_root.height
    return x


@pytest.mark.parametrize("token,factor", [("A2xG2", 0), ("A2xG2", 1),
                                          ("A1xA2xG2", 0), ("A1xA2xG2", 1), ("A1xA2xG2", 2)])
def test_induced_value_within_eps_on_a_product_halves(token, factor):
    systems = _systems(token)
    layout = FactorLayout(systems)
    x = _near_zero_start(token, factor)
    rs = systems[factor]
    v = family_values(rs, x[layout.slices[factor]])
    assert 0 < v.min() <= EPS and np.argmin(v) == rs.npositive - 1
    assert np.isfinite(rhs(systems, x)).all()  # rhs guards at 0 only
    with pytest.raises(_Violation):
        _Evaluator(systems)(x, EPS)
    traj = integrate(systems, x, FlowConfig(t_end=1.0))
    assert traj.termination == "positivity_violation"
    assert traj.stats.accepted == 0 and traj.stats.halvings > 0


@pytest.mark.parametrize("token", ["G2", *PRODUCTS])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0, EPS / 2])
def test_refusal_locates_a_failing_value_in_every_factor_row(token, bad):
    layout = FactorLayout(_systems(token))
    s = np.full(layout.size, 1.5)
    good = family_gradient(layout, s)[0]
    for t in range(len(good)):
        f, i = layout.locate(t, rows=True)
        rs = layout.systems[f]
        v = good.copy()
        v[t] = bad
        for eps in (0.0, EPS):
            if eps < bad < np.inf:
                continue  # passes this guard
            if eps > 0 and bad <= eps:
                with pytest.raises(_Violation):
                    _refuse(layout, s, v, eps)
                continue
            with pytest.raises(PositivityError) as info:
                _refuse(layout, s, v, eps)
            exc = info.value
            assert exc.root_label == rs.positives[i].label
            named = f" in factor {f} " in str(exc)
            assert named == (len(layout.systems) > 1)
            assert exc.value == bad or (np.isnan(exc.value) and np.isnan(bad))


def test_refusal_names_a_bad_simple_value_first():
    layout = FactorLayout(_systems("A1xA2xG2"))
    s = np.full(layout.size, 1.5)
    v = family_gradient(layout, s)[0]
    v[0] = -1.0  # a failing row of factor 0 ...
    s[3] = np.nan  # ... and a NaN simple value of factor 2, a1
    with pytest.raises(PositivityError, match="root a1 in factor 2 is nan"):
        _refuse(layout, s, v, 0.0)

