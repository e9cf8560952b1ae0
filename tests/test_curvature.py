"""Ricci torus vectors, the convex potential, and its critical point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sktflow.family as family_module
from conftest import system
from sktflow import (
    ConsistencyError,
    FactorSpec,
    GroupSpec,
    PositivityError,
    SimpleType,
    bismut_ricci,
    chern_ricci,
    critical_point,
    functional_F,
    grad_F,
    hessian_F,
    is_cyt,
    pluriclosed_family,
)


def _group(*tokens, **kw):
    return GroupSpec([FactorSpec(SimpleType(t[0], int(t[1:])), **kw) for t in tokens])


A2 = _group("A2")


def test_chern_ricci_oracles():
    assert np.allclose(chern_ricci(A2.build()), [-2, -2])
    assert np.allclose(chern_ricci(_group("G2").build()), [-10, -6])
    assert chern_ricci(_group("A1", "G2").build()).tolist() == [-1, -10, -6]


def test_bismut_vanishes_on_killing():
    for token in ("A2", "B3", "G2"):
        h = _group(token).build()
        assert np.abs(bismut_ricci(h)).max() < 1e-12
        assert is_cyt(h).verdict


def test_bismut_family_oracle():
    h = pluriclosed_family(A2, (2.0, 2.0))
    assert np.allclose(bismut_ricci(h), [-7 / 6, -7 / 6])
    cyt = is_cyt(h)
    assert not cyt.verdict
    assert cyt.residual == pytest.approx(7 / 6)


def test_bismut_scale_invariant():
    h1 = pluriclosed_family(_group("A2", z=3.7), (2.0, 2.0))
    h2 = pluriclosed_family(A2, (2.0, 2.0))
    assert np.allclose(
        bismut_ricci(h1), bismut_ricci(h2)
    )


def test_functional_oracles():
    rs = system("A2")
    assert functional_F(rs, (2.0, 2.0)) == pytest.approx(7 - 2 * math.log(2) - math.log(3))
    assert functional_F(rs, (1.0, 1.0)) == pytest.approx(3.0)
    assert np.allclose(grad_F(rs, (2.0, 2.0)), [7 / 6, 7 / 6])
    assert np.allclose(grad_F(rs, (1.0, 1.0)), [0.0, 0.0])


def test_hessian_spd_and_structure():
    rs = system("A2")
    H = hessian_F(rs, (2.0, 2.0))
    assert np.allclose(H, [[1 / 4 + 1 / 9, 1 / 9], [1 / 9, 1 / 4 + 1 / 9]])
    for token in ("B3", "G2", "F4"):
        r = system(token)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.9, 2.0, r.rank)
        w = np.linalg.eigvalsh(hessian_F(r, x))
        assert w.min() > 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["A2", "B2", "G2", "A3"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_gradient_matches_central_difference(token, seed):
    rs = system(token)
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.2, 2.5, rs.rank)
    g = grad_F(rs, x)
    step = 1e-6
    for j in range(rs.rank):
        e = np.zeros(rs.rank)
        e[j] = step
        num = (functional_F(rs, x + e) - functional_F(rs, x - e)) / (2 * step)
        assert abs(num - g[j]) <= 1e-6 * max(1.0, abs(g[j]))


def test_functional_positivity_guard():
    rs = system("B2")
    with pytest.raises(PositivityError):
        functional_F(rs, (0.5, 0.5))
    with pytest.raises(PositivityError):
        grad_F(rs, (0.5, 0.5))


def test_critical_point_is_one():
    rng = np.random.default_rng(7)
    for token in ("A2", "B2", "G2", "A3"):
        rs = system(token)
        for _ in range(5):
            x0 = rng.uniform(0.7, 2.5, rs.rank)
            xs = critical_point(rs, x0)
            assert np.abs(xs - 1).max() < 1e-8


def test_critical_point_default_start_and_max_iter():
    rs = system("A2")
    xs = critical_point(rs)
    assert np.abs(xs - 1).max() < 1e-10
    with pytest.raises(ConsistencyError):
        critical_point(rs, (3.0, 3.0), max_iter=1)


@pytest.mark.parametrize("token", ["A2", "G2", "F4"])
def test_critical_point_tests_convergence_before_the_first_step(token):
    rs = system(token)
    ones = np.ones(rs.rank)
    assert critical_point(rs, ones, max_iter=0).tolist() == ones.tolist()
    assert critical_point(rs, max_iter=0).tolist() == ones.tolist()
    with pytest.raises(ConsistencyError, match="in 0 iterations"):
        critical_point(rs, np.full(rs.rank, 1.5), max_iter=0)


def test_critical_point_tests_convergence_after_the_last_step(monkeypatch):
    rs = system("A2")
    x0 = (1.2, 1.3)
    steps = []  # one Hessian solve per Newton step
    hessian = family_module._hessian
    monkeypatch.setattr(family_module, "_hessian", lambda *a: steps.append(1) or hessian(*a))
    xs = critical_point(rs, x0)
    n = len(steps)
    assert n > 1 and np.abs(xs - 1).max() < 1e-10
    # exactly n steps are allowed: the point they reach is tested
    assert critical_point(rs, x0, max_iter=n).tolist() == xs.tolist()
    with pytest.raises(ConsistencyError, match=f"in {n - 1} iterations"):
        critical_point(rs, x0, max_iter=n - 1)


def test_bismut_nonzero_off_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.uniform(0.8, 2.0, 2)
        if np.abs(x - 1).max() < 0.05:
            continue
        h = pluriclosed_family(A2, tuple(x))
        assert np.abs(bismut_ricci(h)).max() > 1e-10
