"""The per-root torus products, one batched matmul each, against the loops.

pair_values forms k_a @ g_T, dc_form g_T @ k_a and sigma_form q_a @ x for
every stacked positive root a (for sigma_form, every torus row a) in one
np.matmul over a stack of single rows. A batched matmul computes each row
apart, so every row has the bits of its own product, as the per-row loops
that these replaced had. A plain 2-D product does not: k @ g_T is one
matrix-matrix product, and with OpenBLAS 0.3.31 on x86-64 it differed from
the loop in the last bit for 26 of 50 random SPD torus metrics on F4, 46 of
50 on A3xC3 and all 50 on E7 and E8. The references below are those loops,
kept verbatim apart from names, and every comparison is on the bytes.
"""

from functools import lru_cache

import numpy as np
import pytest

from sktflow import (
    FactorSpec,
    GroupSpec,
    SimpleType,
    dc_form,
    pluriclosed_family,
    sigma_form,
)
from sktflow.residuals import pair_values

CATALOG = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
PRODUCTS = ("A1xA2", "B3xG2", "A3xC3", "F4xA2")
METRICS = 3


@lru_cache(maxsize=None)
def _group(token):
    return GroupSpec([FactorSpec(SimpleType(t[0], int(t[1:]))) for t in token.split("x")])


def _structures(g, seed):
    """A family point with the bi-invariant torus metric, then METRICS
    structures with random SPD torus metrics, which couple the factors of a
    product."""
    rng = np.random.default_rng(seed)
    out = [pluriclosed_family(g, [rng.uniform(1.0, 2.0, rs.rank).tolist() for rs in g.systems])]
    r = g.layout.size
    for _ in range(METRICS):
        a = rng.normal(size=(r, r))
        x = [rng.uniform(0.5, 2.5, rs.npositive).tolist() for rs in g.systems]
        out.append(g.build(x, torus=a @ a.T + r * np.eye(r)))
    return out


def _reference_pair_values(h, t):
    k, x = h.group.layout.coefficient_matrix, np.concatenate(h.xhat)
    kg = np.array([row @ h.gt for row in k])
    i, j, up, down = t.rows
    val = 2.0 * (kg @ k.T)[i, j]
    xi, xj = x[i], x[j]
    val -= t.up * (x[up] - xi - xj)
    val -= t.down * (t.down_eps * x[down] - xi + xj)
    return val


def _reference_dc_torus(h):
    """dc_form's torus components, per factor and root, from one product per root."""
    basis = h.group.basis
    keys, vals = [], []
    layout = h.group.layout
    for f, rows in enumerate(layout.row_slices):
        roots = layout.coefficient_matrix[rows]
        gk = np.array([h.gt @ k for k in roots]).reshape(len(roots), h.group.layout.size)
        t, a = np.nonzero(gk)
        e = basis.element_index(f, t)
        keys.append(np.stack([a, e, e + 1], axis=1))
        vals.append(-gk[t, a])
    return np.concatenate(keys).astype(np.int32), np.concatenate(vals)


def _reference_pairing(h, parsed):
    return np.array([row @ parsed for row in h.group.layout.gram_float])


def _reference_sigma_form(h, x):
    """sigma_form's keys and values, its pairing from one product per row."""
    basis = h.group.basis
    pairing = np.zeros(basis.dim, dtype=complex)
    pairing[: h.group.layout.size] = _reference_pairing(h, h.parse_argument(x))
    i, j, m, c = basis.bracket_arrays
    starts = basis.bracket_starts
    key = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(c)))
    terms = c * pairing[m]
    val = np.empty(len(starts), dtype=complex)
    val.real = np.bincount(key, weights=terms.real, minlength=len(starts))
    val.imag = np.bincount(key, weights=terms.imag, minlength=len(starts))
    keep = val != 0
    rows = starts[keep]
    return np.stack([i[rows], j[rows]], axis=1), val[keep]


@pytest.mark.parametrize("token", CATALOG + list(PRODUCTS))
def test_pair_values_equal_the_per_root_loop(token):
    g = _group(token)
    pairs, _ = g.residual_tables
    for h in _structures(g, len(token)):
        assert pair_values(h, pairs).tobytes() == _reference_pair_values(h, pairs).tobytes()


@pytest.mark.parametrize("token", CATALOG + list(PRODUCTS))
def test_dc_form_torus_components_equal_the_per_root_loop(token):
    g = _group(token)
    for h in _structures(g, len(token) + 1):
        keys, vals = dc_form(h).arrays()
        torus = keys[:, 0] < g.layout.size  # every triple key is three root elements
        want_keys, want_vals = _reference_dc_torus(h)
        assert keys[torus].tobytes() == want_keys.tobytes()
        assert vals[torus].real.tobytes() == want_vals.tobytes()
        assert not vals[torus].imag.any()


@pytest.mark.parametrize("token", CATALOG + list(PRODUCTS))
def test_sigma_form_equals_the_per_row_pairing(token):
    g = _group(token)
    h = g.build()
    rng = np.random.default_rng(len(token) + 2)
    r = g.layout.size
    for _ in range(METRICS):
        for v in (rng.normal(size=r), rng.normal(size=r) + 1j * rng.normal(size=r)):
            parsed = h.parse_argument(v)
            got = np.matmul(h.group.layout.gram_float[:, None, :], parsed)[:, 0]
            assert got.tobytes() == _reference_pairing(h, parsed).tobytes()
            for a, b in zip(sigma_form(h, v).arrays(), _reference_sigma_form(h, v)):
                assert a.tobytes() == b.tobytes()
