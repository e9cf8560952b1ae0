"""The exact identity behind the family's one critical point, and Q > 0.

On the family v = 1 + K(s - 1) and grad F = Kᵀ(1 - 1/v), so

    (s - 1) · grad F = (v - 1) · (1 - 1/v) = Σ_β (v_β - 1)² / v_β.

Where every v_β is positive the right side vanishes only when every v_β is
1, and K holds the simple roots as rows, so s = 1: all ones is the only
critical point of F, as `functional_F` states. The identity is checked in
Fractions, with K as integers, at rational points just above
`family_bound` on every catalog type, where the maximal root's value comes
close to 0, and on three products read through a FactorLayout; at
simple values all (h - 1)/h that value is exactly 0, and `family_bound`
is that number within one ulp. The flow is x' = -Q grad F, so with Q positive definite its
rest points are exactly the critical points and F falls everywhere else;
Q's integer Gram matrix is checked positive definite by exact elimination.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import system
from sktflow import FactorLayout, Normalization, family_bound
from sktflow.family import family_gradient

CATALOG = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def _points(rs):
    """Three rational points above family_bound: all, some or half of their
    simple values just above it."""
    h = rs.maximal_root.height
    bound = Fraction(h - 1, h)
    assert abs(Fraction(family_bound(rs)) - bound) < Fraction(1, 10**15)
    r = rs.rank
    return [
        [bound + Fraction(1, 1000)] * r,
        [bound + Fraction(i + 1, 7 * r) for i in range(r)],
        [bound + Fraction(1, 10**6) if i % 2 else Fraction(3) + Fraction(i, 5) for i in range(r)],
    ]


def _exact(k, s):
    """v = 1 + K(s - 1) and grad F = Kᵀ(1 - 1/v) in Fractions."""
    v = [1 + sum(kj * (sj - 1) for kj, sj in zip(row, s)) for row in k]
    grad = [sum(row[i] * (1 - 1 / vb) for row, vb in zip(k, v)) for i in range(len(s))]
    return v, grad


@pytest.mark.parametrize("token", CATALOG)
def test_descent_identity_holds_exactly_near_the_family_bound(token):
    rs = system(token)
    k = rs.coefficient_matrix.astype(np.int64).tolist()
    assert np.array_equal(np.array(k, dtype=float), rs.coefficient_matrix)
    for s in _points(rs):
        v, grad = _exact(k, s)
        assert min(v) > 0
        lhs = sum((si - 1) * gi for si, gi in zip(s, grad))
        assert lhs == sum((vb - 1) ** 2 / vb for vb in v)
        assert lhs > 0  # s is not all ones
        # the float kernel evaluates the same map
        fv, fg = family_gradient(rs, np.array([float(x) for x in s]))
        scale = max(abs(float(g)) for g in grad)
        assert np.allclose(fv, [float(x) for x in v], rtol=1e-9, atol=0)
        assert np.allclose(fg, [float(g) for g in grad], rtol=1e-9, atol=1e-9 * scale)
    v, grad = _exact(k, [Fraction(1)] * rs.rank)
    assert set(v) == {1} and set(grad) == {0}
    assert not family_gradient(rs, np.ones(rs.rank))[1].any()


@pytest.mark.parametrize("token", CATALOG)
def test_family_bound_is_where_the_maximal_root_value_reaches_zero(token):
    rs = system(token)
    k = rs.coefficient_matrix.astype(np.int64).tolist()
    h = rs.maximal_root.height
    bound = Fraction(h - 1, h)
    at = [1 + sum(row) * (bound - 1) for row in k]  # v at simple values all equal to bound
    assert at[-1] == 0  # the maximal root is the last positive root
    assert all(x > 0 for x in at[:-1])
    v, _ = _exact(k, [bound + Fraction(1, 10**6)] * rs.rank)
    assert min(v) > 0
    f = family_bound(rs)
    assert abs(Fraction(f) - bound) <= Fraction(math.ulp(f))


PRODUCTS = ["A2xG2", "B3xG2", "A3xC3"]


@pytest.mark.parametrize("token", PRODUCTS)
def test_descent_identity_holds_exactly_on_products(token):
    systems = [system(t) for t in token.split("x")]
    layout = FactorLayout(systems)
    k = layout.coefficient_matrix.astype(np.int64).tolist()
    assert np.array_equal(np.array(k, dtype=float), layout.coefficient_matrix)
    # each point joins the factors' points, so it lies just above each factor's bound
    for s in (sum(parts, []) for parts in zip(*(_points(rs) for rs in systems))):
        v, grad = _exact(k, s)
        assert min(v) > 0
        lhs = sum((si - 1) * gi for si, gi in zip(s, grad))
        assert lhs == sum((vb - 1) ** 2 / vb for vb in v) > 0
        fv, fg = family_gradient(layout, np.array([float(x) for x in s]))
        scale = max(abs(float(g)) for g in grad)
        assert np.allclose(fv, [float(x) for x in v], rtol=1e-9, atol=0)
        assert np.allclose(fg, [float(g) for g in grad], rtol=1e-9, atol=1e-9 * scale)


@pytest.mark.parametrize("norm", list(Normalization))
@pytest.mark.parametrize("token", CATALOG)
def test_gram_matrix_is_exactly_positive_definite(token, norm):
    rs = system(token, norm.value)
    q = [[Fraction(int(x)) for x in row] for row in rs.gram_int.tolist()]
    assert q == [list(col) for col in zip(*q)]
    assert rs.gram_scale > 0
    # a symmetric matrix is positive definite exactly when every pivot of
    # elimination without row exchanges is positive
    n = len(q)
    for p in range(n):
        assert q[p][p] > 0, (p, q[p][p])
        for i in range(p + 1, n):
            f = q[i][p] / q[p][p]
            q[i] = [a - f * b for a, b in zip(q[i], q[p])]
