"""Every coordinate line of the flow is invariant, on every catalog type.

Move one simple value s_i and hold the others at 1. For each m >= 1 let
S_m be the sum of the positive roots whose alpha_i-coefficient is m. A
simple reflection s_j with j != i keeps each root's alpha_i-coefficient, so
it permutes that level and fixes S_m; hence S_m is orthogonal to alpha_j
(Humphreys, Introduction to Lie Algebras and Representation Theory, 10.2).
Off the line the rhs is -sum_m phi_m(y) (Q S_m)_j with
phi_m(y) = 1 - 1/(1 + m(y - 1)), so it is 0 and the state stays on the line.

The integer check runs on A1-A8, B2-B6, C2-C6, D3-D7, E6-E8, F4 and G2 in
all three normalizations: 642 (type, normalization, i, m) levels, the sum
over those types of three times the height of the maximal root.
"""

import numpy as np
import pytest

from conftest import system
from sktflow import Normalization, rhs

CATALOG = (
    [f"A{k}" for k in range(1, 9)]
    + [f"B{k}" for k in range(2, 7)]
    + [f"C{k}" for k in range(2, 7)]
    + [f"D{k}" for k in range(3, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
NORMS = [norm.value for norm in Normalization]
POINTS = (0.9, 1.5, 3.0)  # on a line v = 1 + m(y - 1) with m <= 6, positive for y > 5/6


def _levels(rs):
    """(i, m, S_m) for every simple index i and every level m >= 1, S_m in
    integer simple-root coordinates."""
    pos = np.array([r.coeffs for r in rs.positives], dtype=np.int64)
    for i in range(rs.rank):
        for m in range(1, int(pos[:, i].max()) + 1):
            yield i, m, pos[pos[:, i] == m].sum(axis=0)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("token", CATALOG)
def test_each_level_sum_is_orthogonal_to_the_other_simple_roots(token, norm):
    rs = system(token, norm)
    levels = list(_levels(rs))
    assert len(levels) == rs.maximal_root.height  # one level per unit of each coefficient
    for i, m, total in levels:
        inner = [int(x) for x in rs.gram_int @ total]  # in units of gram_scale, exact
        off_line = [value for j, value in enumerate(inner) if j != i]
        assert off_line == [0] * (rs.rank - 1), (token, norm, i, m)


def test_the_catalog_has_642_levels():
    assert sum(system(t, n).maximal_root.height for t in CATALOG for n in NORMS) == 642


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("token", CATALOG)
def test_rhs_off_each_coordinate_line_vanishes(token, norm):
    rs = system(token, norm)
    for i in range(rs.rank):
        for y in POINTS:
            x = np.ones(rs.rank)
            x[i] = y
            off_line = np.delete(rhs(rs, x), i)
            assert np.abs(off_line).max(initial=0.0) < 1e-12, (token, norm, i, y)
