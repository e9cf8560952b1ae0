"""The exact semantics of the flow's cheapest numpy calls.

`family_gradient` computes v and g with `ndarray.dot` and guards v with
`np.minimum.reduce`/`np.maximum.reduce`; `flow._combine` forms an RKF45
stage from the nonzero tableau terms only. These tests pin that each gives
the bits of the plain formula it replaces, and that the guard keeps its
comparison `min(v) > eps and max(v) < inf` to the last float.
"""

import numpy as np
import pytest

from conftest import parse_token, system
from sktflow import (
    FactorLayout,
    FactorSpec,
    FlowConfig,
    GroupSpec,
    PositivityError,
    integrate,
    pluriclosed_family,
)
from sktflow.flow import _RKF_B4, _RKF_B5, _RKF_K, _combine, _Violation
from sktflow.hermitian import family_gradient

CATALOG = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
GUARDED = (("A2", 0), ("G2", 0), ("A2xG2", 0), ("A2xG2", 1))
EPS = FlowConfig().eps_pos


def _layout(token):
    return FactorLayout(tuple(system(t) for t in token.split("x")))


def _state(layout, factor, value):
    """1.5 everywhere but the first simple value of factor, which is value."""
    s = np.full(layout.size, 1.5)
    s[layout.slices[factor].start] = value
    return s


def _near_zero(layout, factor):
    """Equal simple values on factor, so only its maximal root's value is small (about 1e-3)."""
    s = np.full(layout.size, 1.5)
    s[layout.slices[factor]] = 1.0 - (1.0 - 1e-3) / layout.systems[factor].maximal_root.height
    return s


# ---------------------------------------------------------------- .dot is @


@pytest.mark.parametrize("token", CATALOG)
def test_family_gradient_is_the_matmul_formula_bit_for_bit(token):
    rs = system(token)
    k = rs.coefficient_matrix
    rng = np.random.default_rng(len(token) + rs.rank)
    for s in rng.uniform(0.9, 3.0, (20, rs.rank)):
        v, g = family_gradient(rs, s)
        assert np.array_equal(v, 1.0 + k @ (s - 1.0))
        assert np.array_equal(g, (1.0 - 1.0 / v) @ k)


# ---------------------------------------------------------------- the guard's edge


@pytest.mark.parametrize("token,factor", GUARDED)
def test_guard_refuses_a_value_equal_to_eps_and_passes_the_next_float(token, factor):
    layout = _layout(token)
    s = _near_zero(layout, factor)
    v = family_gradient(layout, s)[0]
    eps = float(v.min())  # one induced value, of this factor, is exactly eps
    assert np.count_nonzero(v == eps) == 1
    assert layout.locate(int(np.argmin(v)), rows=True)[0] == factor
    with pytest.raises(_Violation):
        family_gradient(layout, s, eps)
    below = np.nextafter(eps, -np.inf)  # the value is np.nextafter(below, inf)
    assert np.array_equal(family_gradient(layout, s, below)[0], v)


@pytest.mark.parametrize("token,factor", GUARDED)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_guard_refuses_a_non_finite_value(token, factor, bad):
    layout = _layout(token)
    s = _state(layout, factor, bad)
    with np.errstate(invalid="ignore"):
        with pytest.raises(PositivityError):
            family_gradient(layout, s, 0.0)
        with pytest.raises(PositivityError):
            integrate(layout.systems, s)
        # -inf is at or below eps, so a guarded stage halves on it
        with pytest.raises(_Violation if bad < 0 else PositivityError):
            family_gradient(layout, s, EPS)


# ---------------------------------------------------------------- the RKF45 sums


@pytest.mark.parametrize("coefs", [*_RKF_K, _RKF_B4, _RKF_B5])
def test_rkf_combination_is_the_plain_sum_bit_for_bit(coefs):
    rng = np.random.default_rng(len(coefs))
    for n in (2, 4, 8):
        for scale in (1e-6, 1.0, 1e3):
            ks = list(scale * rng.standard_normal((len(coefs), n)))
            plain = sum(c * k for c, k in zip(coefs, ks))
            assert _combine(coefs, ks).tobytes() == plain.tobytes()


# ---------------------------------------------------------------- naming


def _group(*tokens):
    return GroupSpec([FactorSpec(parse_token(t)) for t in tokens])


def test_family_on_one_factor_names_only_the_root():
    with pytest.raises(PositivityError, match=r"induced value for root a1 is nan"):
        pluriclosed_family(_group("A2"), [(np.nan, 1.5)])


def test_family_on_a_product_names_the_factor():
    with pytest.raises(PositivityError, match=r"induced value for root a1 in factor 1 is nan"):
        pluriclosed_family(_group("A2", "G2"), [(1.5, 1.5), (np.nan, 1.5)])
