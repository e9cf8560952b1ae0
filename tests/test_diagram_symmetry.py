"""Dynkin diagram automorphisms permute the flow.

An automorphism of the Dynkin diagram permutes the simple roots and keeps
the Cartan matrix, so it permutes the positive roots, their coefficient
matrix and the potential F with them. The flow commutes with it: the
velocity at permuted simple values is the permuted velocity, and a run from
a permuted start is the permuted run, up to rounding, which takes the same
steps and stops for the same reason. The pluriclosed scans are invariant
too: a structure and its image (fiber values carried to the image roots,
torus metric P g P^T) give the same verdicts and residuals, up to rounding.
"""

import numpy as np
import pytest

from conftest import parse_token, system
from sktflow import (
    FactorSpec, FlowConfig, GroupSpec, family_bound, integrate, is_pluriclosed,
    pluriclosed_family, rhs,
)

# perm[i] is the simple root that simple root i goes to (Bourbaki labels, from 0)
AUTOMORPHISMS = {
    "A3": [2, 1, 0],
    "A4": [3, 2, 1, 0],
    "D4": [2, 1, 3, 0],  # triality: the three outer nodes in a cycle
    "D5": [0, 1, 2, 4, 3],
    "E6": [5, 1, 4, 3, 2, 0],
}


def _permuted(x, perm):
    """The simple values that read x[i] at simple root perm[i]."""
    y = np.empty_like(x)
    y[perm] = x
    return y


def _starts(rs, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(family_bound(rs) + 0.05, 2.5, rs.rank) for _ in range(3)]


@pytest.mark.parametrize("token", sorted(AUTOMORPHISMS))
def test_the_automorphism_keeps_the_cartan_matrix(token):
    gram, perm = system(token).gram_int, AUTOMORPHISMS[token]
    assert sorted(perm) == list(range(len(gram))) and perm != sorted(perm)
    assert np.array_equal(gram[np.ix_(perm, perm)], gram)


@pytest.mark.parametrize("token", sorted(AUTOMORPHISMS))
def test_rhs_at_permuted_values_is_the_permuted_rhs(token):
    rs, perm = system(token), AUTOMORPHISMS[token]
    for x in _starts(rs, seed=1):
        want = _permuted(rhs(rs, x), perm)
        assert np.abs(rhs(rs, _permuted(x, perm)) - want).max() <= 1e-12


@pytest.mark.parametrize("integrator", ["rk4_fixed", "rkf45"])
@pytest.mark.parametrize("token", sorted(AUTOMORPHISMS))
def test_a_run_from_a_permuted_start_is_the_permuted_run(token, integrator):
    rs, perm = system(token), AUTOMORPHISMS[token]
    cfg = FlowConfig(integrator=integrator, t_end=50.0)
    for x in _starts(rs, seed=2):
        run = integrate(rs, x, cfg)
        image = integrate(rs, _permuted(x, perm), cfg)
        assert image.termination == run.termination
        assert image.stats.accepted == run.stats.accepted
        want = _permuted(run.states.T, perm).T
        assert np.abs(image.states - want).max() <= 1e-8


def _root_permutation(rs, perm):
    """sigma[a], the positive root that positive root a goes to."""
    index = {root.coeffs: a for a, root in enumerate(rs.positives)}
    return np.array([index[tuple(_permuted(np.array(r.coeffs), perm).tolist())]
                     for r in rs.positives])


def _same_scans(h, image):
    """h's verdict, once both modes give image the same verdict and residuals."""
    for mode in ("closed_form", "brute_force"):
        rep, img = is_pluriclosed(h, mode=mode), is_pluriclosed(image, mode=mode)
        # tied rows can trade places, so the witnesses may differ
        assert img.verdict == rep.verdict
        for key in ("scale", "max_residual", "skt1_max", "skt2_max"):
            assert abs(getattr(img, key) - getattr(rep, key)) <= 1e-12 * rep.scale, (mode, key)
    return rep.verdict


@pytest.mark.parametrize("token", ["A3", "D4", "D5", "E6"])
def test_the_scans_of_a_permuted_structure_are_the_scans(token):
    g, perm = GroupSpec([FactorSpec(parse_token(token))]), AUTOMORPHISMS[token]
    rs, r = g.systems[0], g.layout.size
    sigma, rng = _root_permutation(rs, perm), np.random.default_rng(3)
    assert sorted(sigma) == list(range(rs.npositive))
    for _ in range(2):
        x = rng.uniform(0.5, 2.5, rs.npositive)
        # near the bi-invariant metric, so the fiber terms hold the maximum
        a = 0.1 * rng.normal(size=(r, r))
        gt = g.layout.gram_float + a @ a.T
        image = np.empty_like(gt)
        image[np.ix_(perm, perm)] = gt  # P g P^T
        assert not _same_scans(g.build([x], torus=gt), g.build([_permuted(x, sigma)], torus=image))
    for s in _starts(rs, seed=4):
        image = pluriclosed_family(g, [_permuted(s, perm)])
        assert _same_scans(pluriclosed_family(g, [s]), image)
