"""Acceptance gate: the ten primary criteria, at their stated tolerances.

Each test prints one `[acceptance N] PASS` line (visible with -s) and
enforces the stated runtime budget where one is given. Tolerances are
asserted exactly as specified; none are loosened here.
"""

import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import constants, parse_token, system
from sktflow import (
    FactorSpec,
    FlowConfig,
    GroupSpec,
    Normalization,
    SimpleType,
    bismut_ricci,
    canonical_jt,
    critical_point,
    d_omega,
    dc_form,
    dc_omega,
    ddc_omega,
    exterior_derivative,
    family_bound,
    functional_F,
    grad_F,
    integrate,
    is_pluriclosed,
    killing_normalization_constant,
    omega_form,
    pluriclosed_family,
    rhs,
    verify_identities,
)


def _announce(n, label, t0):
    print(f"[acceptance {n}] PASS — {label} ({time.perf_counter() - t0:.1f}s)")


def _group(token, norm="long2"):
    return GroupSpec([FactorSpec(parse_token(token), Normalization.parse(norm))])


def _rand_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


# 1 ------------------------------------------------------------------

IDENTITY_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4",
]


def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    for token in IDENTITY_TYPES:
        rep = verify_identities(system(token), constants(token))
        assert rep.passed, (token, rep.failures[:3])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s"
    _announce(1, f"exact identity suite over {len(IDENTITY_TYPES)} types", t0)


# 2 ------------------------------------------------------------------

def test_criterion_02_killing_brute_force_scan():
    t0 = time.perf_counter()
    for token in ("A2", "A3", "B2", "B3", "C3", "D4", "G2"):
        h = _group(token).build()
        rep = is_pluriclosed(h, mode="brute_force")
        assert rep.verdict and rep.max_residual < 1e-10, (token, rep.max_residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"brute-force scan took {elapsed:.1f}s"
    _announce(2, "second derivative vanishes for the dual Killing metric", t0)


# 3 ------------------------------------------------------------------

FAMILY_TYPES = ("A2", "B2", "G2", "A3", "C3")


def test_criterion_03_family_soundness_and_completeness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    for token in FAMILY_TYPES:
        g = _group(token)
        rs = g.systems[0]
        lo = family_bound(rs) + 1e-3
        for _ in range(100):
            vals = tuple(rng.uniform(lo, 3.0, rs.rank))
            h = pluriclosed_family(g, vals)
            closed = is_pluriclosed(h, tol=1e-9)
            assert closed.verdict and closed.max_residual < 1e-9, (token, vals)
            brute = is_pluriclosed(h, mode="brute_force", tol=1e-9)
            assert brute.verdict and brute.max_residual < 1e-9, (token, vals)
        # completeness probe: breaking one non-simple value must be seen
        base = pluriclosed_family(g, tuple(1.5 for _ in range(rs.rank)))
        x = np.array(base.fiber.values[0])
        bumped = next(i for i, r in enumerate(rs.positives) if r.height > 1)
        x[bumped] += 0.1
        h_bad = g.build(x=[tuple(x)])
        rep = is_pluriclosed(h_bad)
        assert rep.skt1_max > 1e-3, (token, rep.skt1_max)
    _announce(3, "random family metrics pass, perturbations are caught", t0)


# 4 ------------------------------------------------------------------

def _su3(x, y):
    return (2 / x - 1 / y + 1 / (x + y - 1) - 2, -1 / x + 2 / y + 1 / (x + y - 1) - 2)


def _so5(x, y):
    return (
        2 / x - 1 / y + 1 / (x + y - 1) - 2,
        -1 / x + 1 / y + 1 / (x + 2 * y - 2) - 1,
    )


def _g2(x, y):
    return (
        2 / x - 3 / y - 1 / (x + y - 1) + 1 / (2 * x + y - 2) + 3 / (3 * x + y - 3) - 2,
        -3 / x + 6 / y + 3 / (x + y - 1) - 3 / (3 * x + y - 3) + 3 / (3 * x + 2 * y - 4) - 6,
    )


def test_criterion_04_printed_rank2_systems():
    t0 = time.perf_counter()
    cases = (
        (system("A2"), _su3),
        (system("B2"), _so5),
        (system("G2", "short2"), _g2),
    )
    rng = np.random.default_rng(4)
    for rs, oracle in cases:
        for _ in range(1000):
            x = rng.uniform(0.9, 3.5, 2)
            got = rhs(rs, x)
            want = np.array(oracle(*x))
            rel = np.abs(got - want).max() / max(1.0, np.abs(want).max())
            assert rel < 1e-12, (rs.stype, x, rel)
    _announce(4, "generic rhs reproduces the three printed systems", t0)


# 5 ------------------------------------------------------------------

CONVERGENCE_TYPES = ("A2", "B2", "G2", "A3")


def test_criterion_05_convergence_with_monotone_potential():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for token in CONVERGENCE_TYPES:
        rs = system(token)
        for _ in range(20):
            x0 = rng.uniform(0.9, 2.0, rs.rank)
            traj = integrate(rs, x0, FlowConfig(t_end=400.0, tol=1e-7))
            assert traj.termination == "converged", (token, x0, traj.termination)
            assert np.abs(traj.states[-1] - 1).max() < 1e-6
            assert np.all(np.diff(traj.f_values) <= 1e-10), (token, x0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"convergence battery took {elapsed:.1f}s"
    _announce(5, "80 random starts all reach the fixed point monotonically", t0)


# 6 ------------------------------------------------------------------

def test_criterion_06_invariant_lines():
    t0 = time.perf_counter()
    for token, norm in (("A2", "long2"), ("B2", "long2"), ("G2", "short2")):
        rs = system(token, norm)
        for frozen, moving in ((0, 1), (1, 0)):
            x0 = np.ones(2)
            x0[moving] = 1.9
            traj = integrate(rs, x0, FlowConfig(t_end=25.0))
            dev = np.abs(traj.states[:, frozen] - 1).max()
            assert dev < 1e-9, (token, frozen, dev)
    _announce(6, "coordinate lines through the fixed point stay exact", t0)


# 7 ------------------------------------------------------------------

def test_criterion_07_newton_and_bismut_rigidity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for token in CONVERGENCE_TYPES:
        rs = system(token)
        g = _group(token)
        for _ in range(50):
            x0 = rng.uniform(0.6, 2.5, rs.rank)
            xs = critical_point(rs, x0)
            assert np.abs(xs - 1).max() < 1e-8, (token, x0)
        # Bismut vector vanishes only at the fixed point on the family
        h1 = pluriclosed_family(g, tuple(np.ones(rs.rank)))
        assert np.abs(bismut_ricci(h1)).max() < 1e-12
        for _ in range(50):
            vals = rng.uniform(0.8, 2.0, rs.rank)
            if np.abs(vals - 1).max() < 0.05:
                continue
            h = pluriclosed_family(g, tuple(vals))
            assert np.abs(bismut_ricci(h)).max() > 1e-10, (token, vals)
    _announce(7, "Newton always lands at ones; Bismut vector rigid", t0)


# 8 ------------------------------------------------------------------

def test_criterion_08_closed_form_vs_cochain_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    cases = (("A2", "long2"), ("B2", "long2"), ("G2", "short2"))
    for token, norm in cases:
        g = _group(token, norm)
        rs = g.systems[0]
        basis = g.basis
        elems = []
        for i in range(basis.dim):
            d = basis.descriptors[i]
            if d[0] == "H":
                ev = np.zeros(rs.rank)
                ev[d[2]] = 1.0
                elems.append(ev)
            else:
                elems.append(d[2])
        for _ in range(10):
            x = rng.uniform(0.4, 2.5, rs.npositive)
            gt = _rand_spd(rng, rs.rank)
            jt = canonical_jt(gt)
            h = g.build(x=[tuple(x)], torus=gt, jt=jt)
            dom = exterior_derivative(omega_form(h))
            dcf = dc_form(h)
            ddcf = exterior_derivative(dcf)
            for tri in combinations(range(basis.dim), 3):
                args = [elems[i] for i in tri]
                assert abs(d_omega(h, *args) - dom.value(*tri)) < 1e-10
                assert abs(dc_omega(h, *args) - dcf.value(*tri)) < 1e-10
            for quad in combinations(range(basis.dim), 4):
                args = [elems[i] for i in quad]
                oracle = ddcf.value(*quad)
                assert abs(oracle.imag) < 1e-10
                assert abs(ddc_omega(h, *args) - oracle.real) < 1e-10
    _announce(8, "closed forms match the cochain differential everywhere", t0)


# 9 ------------------------------------------------------------------

KILLING_BATTERY = {
    "A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6, "A6": 7, "A7": 8, "A8": 9,
    "B2": 3, "B3": 5, "B4": 7, "B5": 9,
    "C2": 3, "C3": 4, "C4": 5, "C5": 6,
    "D3": 4, "D4": 6, "D5": 8, "D6": 10,
    "E6": 12, "E7": 18, "E8": 30,
    "F4": 9, "G2": 4,
}


def test_criterion_09_killing_constant_battery():
    t0 = time.perf_counter()
    for token, hv in sorted(KILLING_BATTERY.items()):
        rs = system(token)
        c = killing_normalization_constant(rs)
        assert c == Fraction(1, 2 * hv), (token, c)
        assert abs(float(c) - 1.0 / (2 * hv)) < 1e-12
    _announce(9, f"killing constant equals 1/(2 h∨) on {len(KILLING_BATTERY)} types", t0)


# 10 -----------------------------------------------------------------

GRADIENT_TYPES = ("A2", "B2", "G2", "A3", "C3", "D4", "F4")


def test_criterion_10_gradient_vs_central_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    step = 1e-6
    for token in GRADIENT_TYPES:
        rs = system(token)
        for _ in range(100):
            x = rng.uniform(1.2, 2.5, rs.rank)
            g = grad_F(rs, x)
            for j in range(rs.rank):
                e = np.zeros(rs.rank)
                e[j] = step
                num = (functional_F(rs, x + e) - functional_F(rs, x - e)) / (2 * step)
                rel = abs(num - g[j]) / max(1.0, abs(g[j]))
                assert rel < 1e-6, (token, x, j, rel)
    _announce(10, "analytic gradient against central differences", t0)
