"""The exact semantics of the flow's cheapest numpy calls.

`family_gradient` computes v and g with `ndarray.dot` and a 0-d array
operand 1.0, with the formula for v that `family_values` shares, and guards
v with `family._admissible` (v read at argmin and argmax); `flow._combine` forms an RKF45 stage from the nonzero tableau terms
only, as `k * c`; `flow._rk4` and `flow._rkf45` form each stage and step as
`k * c + x`, and `_rk4` doubles with `k + k`; `family.potential` sums
with `np.add.reduce`; and
`flow._within` runs the convergence test's first clause on Python floats.
These tests pin that each gives the bits of the plain formula it replaces,
and that the guard keeps its comparison `min(v) > eps and max(v) < inf` to
the last float.
"""

import itertools
import warnings

import numpy as np
import pytest

from conftest import parse_token, system
from sktflow import (
    FactorLayout,
    FactorSpec,
    FlowConfig,
    GroupSpec,
    PositivityError,
    family_values,
    integrate,
    pluriclosed_family,
)
from sktflow.family import Violation as _Violation, _admissible, family_gradient, potential
from sktflow.flow import _RKF_B4, _RKF_B5, _RKF_K, _combine, _rk4, _rkf45, _within

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


@pytest.mark.parametrize("norm", ["long2", "short2", "killing"])
@pytest.mark.parametrize("token", CATALOG)
def test_family_values_is_the_matmul_formula_bit_for_bit(token, norm):
    rs = system(token, norm)
    k = rs.coefficient_matrix
    rng = np.random.default_rng(len(token) + rs.rank)
    with np.errstate(invalid="ignore", over="ignore"):
        for n, s in enumerate(rng.uniform(-2.0, 4.0, (10, rs.rank))):
            s[0] = (s[0], np.nan, np.inf, -np.inf, 1e308)[n % 5]
            v = family_values(rs, s)
            assert v.tobytes() == (1.0 + k @ (s - 1.0)).tobytes()
            if n % 5 == 0:  # finite s: the guard with eps = -inf refuses no finite v
                assert v.tobytes() == family_gradient(rs, s, -np.inf)[0].tobytes()


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


def _vectors(rng, count, n, scale):
    """count random vectors of length n at scale, about a quarter of their
    entries replaced by +0.0 or -0.0."""
    out = scale * rng.standard_normal((count, n))
    zero = rng.random(out.shape) < 0.25
    out[zero] = np.where(rng.random(out.shape) < 0.5, 0.0, -0.0)[zero]
    return list(out)


def _replay(ks):
    """A stage function that returns ks in turn, and the list of its arguments."""
    seen, answers = [], iter(ks)

    def f(x):
        seen.append(x)
        return next(answers)

    return f, seen


def _plain_combine(coefs, ks):
    """The RKF45 combination as it was written before: c * k, from the first nonzero term."""
    first, *rest = (c * k for c, k in zip(coefs, ks) if c)
    return sum(rest, first)


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("n", (2, 4, 8))
@pytest.mark.parametrize("scale", (1e-6, 1.0, 1e3))
def test_rk4_stages_and_update_are_the_plain_formulas_bit_for_bit(n, scale):
    rng = np.random.default_rng(n)
    for h in (1e-3, 0.01, 0.37):
        for _ in range(40):
            x, k1, k2, k3, k4 = _vectors(rng, 5, n, scale)
            f, seen = _replay([k2, k3, k4])
            step = _rk4(f, x, h, k1)
            stages = [x + 0.5 * h * k1, x + 0.5 * h * k2, x + h * k3]
            assert _bytes(seen) == _bytes(stages)
            assert step.tobytes() == (x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)).tobytes()


@pytest.mark.parametrize("n", (2, 4, 8))
@pytest.mark.parametrize("scale", (1e-6, 1.0, 1e3))
def test_rkf45_stages_and_step_are_the_plain_formulas_bit_for_bit(n, scale):
    rng = np.random.default_rng(n)
    for h in (1e-3, 0.01, 0.37):
        for _ in range(40):
            x, *ks = _vectors(rng, 7, n, scale)
            f, seen = _replay(ks[1:])
            x5, err = _rkf45(f, x, h, ks[0])
            stages = [x + h * _plain_combine(row, ks) for row in _RKF_K]
            assert _bytes(seen) == _bytes(stages)
            plain4 = x + h * _plain_combine(_RKF_B4, ks)
            plain5 = x + h * _plain_combine(_RKF_B5, ks)
            assert x5.tobytes() == plain5.tobytes()
            assert err == float(np.abs(plain5 - plain4).max())


# ---------------------------------------------------------------- the guard on edge values

TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
HUGE = np.finfo(float).max
EDGES = (EPS, np.nextafter(EPS, np.inf), np.nextafter(EPS, -np.inf), 0.0, -0.0, TINY, -TINY,
         HUGE, -HUGE, np.inf, -np.inf, np.nan, 1.5)


def _edge_cases(rng):
    """Every ordered pair of edge values, and longer vectors (1 to 33 entries,
    across numpy's SIMD widths) with up to three edge values at random places."""
    yield from (np.array(pair) for pair in itertools.product(EDGES, repeat=2))
    for n in range(1, 34):
        for _ in range(15):
            v = rng.uniform(0.5, 3.0, n)
            at = rng.integers(n, size=rng.integers(4))
            v[at] = rng.choice(EDGES, at.size)
            yield v


@pytest.mark.parametrize("eps", (0.0, EPS, np.nextafter(EPS, np.inf), np.nextafter(EPS, -np.inf), TINY))
def test_guard_is_min_above_eps_and_max_below_inf_on_edge_values(eps):
    for v in _edge_cases(np.random.default_rng(7)):
        expected = np.minimum.reduce(v) > eps and np.maximum.reduce(v) < np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bool(_admissible(v, eps)) == bool(expected), v


# ---------------------------------------------------------------- F and the convergence test


def test_potential_is_the_sum_method_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 7, 8, 9, 24, 63, 120, 240):
        for v in rng.uniform(1e-3, 50.0, (20, n)):
            assert potential(v) == float((v - np.log(v)).sum())


def test_convergence_clause_is_the_max_form_on_edge_values():
    rng = np.random.default_rng(5)
    tol = 1e-8
    near = (1.0, np.nextafter(1.0 + tol, 0.0), 1.0 + tol, 1.0 - tol, np.nextafter(1.0 - tol, 2.0),
            -0.0, np.nan, np.inf, -np.inf)
    cases = [np.array(pair) for pair in itertools.product(near, repeat=2)]
    cases += [rng.choice(near, n) for n in (1, 3, 8, 17) for _ in range(20)]
    for x in cases:
        expected = np.maximum.reduce(np.abs(x - 1.0)) < tol
        assert _within(x.tolist(), tol) == bool(expected), x


# ---------------------------------------------------------------- naming


def _group(*tokens):
    return GroupSpec([FactorSpec(parse_token(t)) for t in tokens])


def test_family_on_one_factor_names_only_the_root():
    with pytest.raises(PositivityError, match=r"induced value for root a1 is nan"):
        pluriclosed_family(_group("A2"), [(np.nan, 1.5)])


def test_family_on_a_product_names_the_factor():
    with pytest.raises(PositivityError, match=r"induced value for root a1 in factor 1 is nan"):
        pluriclosed_family(_group("A2", "G2"), [(1.5, 1.5), (np.nan, 1.5)])
