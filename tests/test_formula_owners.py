"""The family guard and the d*omega sum against the code they replaced.

`pluriclosed_family` reads its fiber values through `family.family_gradient`,
and `d_star_omega` and `bismut_ricci` through `layout.coefficient_matrix`. The
references below are the per-root codifferential loop, the Bismut vector built
from two separate coefficient sums, and the family's two refusal blocks, kept
verbatim apart from names. Values must agree byte for byte, refusals in
message, root label, value and bound.
"""

import warnings
from functools import lru_cache

import numpy as np
import pytest

from conftest import parse_token
from sktflow import (
    FactorSpec,
    GroupSpec,
    PositivityError,
    bismut_ricci,
    canonical_jt,
    d_star_omega,
    family_bound,
    family_values,
    pluriclosed_family,
)
from sktflow.family import finite_positive, induced_value_error

CATALOG = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
GROUPS = CATALOG + ["A2xG2", "B3xG2"]


@lru_cache(maxsize=None)
def _group(token):
    return GroupSpec([FactorSpec(parse_token(t)) for t in token.split("x")])


# ---------------------------------------------------------------- references

def _reference_d_star_omega(h):
    out = np.zeros(h.group.layout.size)
    layout = h.group.layout
    for f, rows in enumerate(layout.row_slices):
        for t, k in enumerate(layout.coefficient_matrix[rows]):
            out -= k / h.xhat[f][t]
    return out


def _reference_bismut_vector(h):
    k = [rs.coefficient_matrix for rs in h.group.systems]
    z = np.concatenate([kf.sum(axis=0) for kf in k])
    zw = np.concatenate([(kf / x[:, None]).sum(axis=0) for kf, x in zip(k, h.xhat)])
    return -z + np.linalg.solve(h.group.layout.gram_float, h.gt @ zw)


def _reference_family_values(group, rows):
    xs = []
    for f, rs in enumerate(group.systems):
        factor = f if len(group.systems) > 1 else None  # one system: name the root only
        simple = np.asarray(rows[f], dtype=float)
        bad = np.nonzero(~finite_positive(simple))[0]
        if bad.size:
            raise induced_value_error(rs, rs.simples[bad[0]], simple[bad[0]], factor)
        vals = family_values(rs, simple)
        bad = np.nonzero(~finite_positive(vals))[0]
        if bad.size:
            raise induced_value_error(rs, rs.positives[bad[0]], vals[bad[0]], factor)
        xs.append(tuple(float(v) for v in vals))
    return tuple(xs)


# ---------------------------------------------------------------- d*omega

def _metrics(g, seed):
    """A family point, an off-family point with a coupled torus and scaled
    fiber values, and the bi-invariant metric."""
    rng = np.random.default_rng(seed)
    yield pluriclosed_family(g, [rng.uniform(1.0, 2.0, rs.rank).tolist() for rs in g.systems])
    a = rng.normal(size=(g.layout.size, g.layout.size))
    gt = a @ a.T + g.layout.size * np.eye(g.layout.size)
    jt = canonical_jt(gt) if g.layout.size % 2 == 0 else None
    yield g.build([rng.uniform(0.05, 20.0, rs.npositive).tolist() for rs in g.systems], gt, jt)
    yield g.build()


@pytest.mark.parametrize("token", GROUPS)
def test_d_star_omega_and_bismut_are_bit_identical_to_the_loop(token):
    for h in _metrics(_group(token), sum(map(ord, token))):
        got, want = d_star_omega(h), _reference_d_star_omega(h)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got, want = bismut_ricci(h), _reference_bismut_vector(h)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- family guard

def _starts(g):
    """Simple values per factor: one good start, then for each factor and each
    of its first and last simple roots the value inf, nan and -1, and all
    simple values of one factor at half its family bound (0 on A1), where an
    induced value is negative."""
    base = [[1.5] * rs.rank for rs in g.systems]
    yield base
    for f, rs in enumerate(g.systems):
        for pos in sorted({0, rs.rank - 1}):
            for bad in (np.inf, np.nan, -1.0):
                rows = [list(r) for r in base]
                rows[f][pos] = bad
                yield rows
        rows = [list(r) for r in base]
        rows[f] = [family_bound(rs) / 2] * rs.rank
        yield rows


def _outcome(fn, g, rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither side may warn
        try:
            return "ok", [np.array(row).tobytes() for row in fn(g, rows)]
        except PositivityError as exc:
            return "error", (str(exc), exc.root_label, repr(exc.value), exc.bound)


@pytest.mark.parametrize("token", GROUPS)
def test_family_guard_matches_the_refusal_blocks(token):
    g = _group(token)
    refused = 0
    for rows in _starts(g):
        got = _outcome(lambda g, r: pluriclosed_family(g, r).xhat, g, rows)
        want = _outcome(_reference_family_values, g, rows)
        assert got == want, rows
        refused += got[0] == "error"
    # every start but the first is refused
    bad_starts = sum(3 * len({0, rs.rank - 1}) + 1 for rs in g.systems)
    assert refused == bad_starts
