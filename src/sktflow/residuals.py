"""Closed-form dd^c residuals of invariant Hermitian structures, as row tables.

Every dd^c component that can be nonzero on a product of simple factors is
fixed by its roots: a pair (E_a, E_-a, E_b, E_-b) or a quad (E_a, E_b, E_-c,
E_-d) with a + b = c + d. Its value is linear in the fiber values and the
torus metric, with coefficients from the root tables and the structure
constants. A group has one table per kind, built once. Its rows index the
product's stacked positive roots: the rows of the layout's coefficient
matrix and the entries of the stacked fiber vector. Each term spans every
row, with coefficient 0 where its roots have no root sum; a pair across
factors has none, so only its torus term remains. A scan evaluates each
table once with elementwise numpy in the order of the scalar formula.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .family import QUIET
from .roots import RootSystem

if TYPE_CHECKING:
    from .hermitian import GroupSpec, HermitianStructure


class Term(NamedTuple):
    """What each row of a residual table reads where its roots have a root sum."""

    at: np.ndarray  # stacked positive index of the sum's root
    eps: np.ndarray  # 1 when the sum is positive, -1 when negative
    coef: np.ndarray  # the N factor, multiplied in the scalar formula's order; 0 with no sum


def _term(rs: RootSystem, sums: np.ndarray, coef: np.ndarray, offset: int) -> Term:
    """The term of sums, root indices of rs or -1; coef holds the N factors
    where sums is a root, and offset is rs's first stacked row."""
    n = rs.npositive
    eps = np.where(sums < n, 1, -1).astype(np.int8)
    return Term((offset + sums % n).astype(np.int32), eps, np.where(sums >= 0, eps * coef, 0.0))


def _stack(tables):
    """One table holding the rows of tables in order."""
    return type(tables[0])(
        *(_stack(parts) if isinstance(parts[0], Term) else np.concatenate(parts)
          for parts in zip(*tables))
    )


def _label(group: GroupSpec, row) -> tuple[int, str]:
    """The factor and the label of a stacked positive root."""
    f, t = group.layout.locate(int(row), rows=True)
    return f, group.systems[f].positives[t].label


class PairRows(NamedTuple):
    """dd^c on (E_a, E_-a, E_b, E_-b), per row: a, b = stacked positives i, j,
    a != b. Within one factor, up is the term of a + b, coef 2 N(a, b)^2, and
    down the term of a - b, coef 2 eps N(a, -b)^2; across factors both have
    coef 0, at = i and eps = 1, so only the torus term remains."""

    i: np.ndarray
    j: np.ndarray
    up: Term
    down: Term

    def witness(self, group: GroupSpec, row: int) -> str:
        (fa, a), (fb, b) = _label(group, self.i[row]), _label(group, self.j[row])
        if fa == fb:
            return f"pair ({a}, {b}) in factor {fa}"
        return f"pair (factor {fa}: {a}, factor {fb}: {b})"


def pair_rows(group: GroupSpec, fa: int, i, fb: int, j) -> PairRows:
    """The rows of positives i of factor fa against positives j of factor fb."""
    i, j = np.asarray(i, dtype=np.int32), np.asarray(j, dtype=np.int32)
    offset = group.layout.row_slices[fa].start
    si, sj = offset + i, group.layout.row_slices[fb].start + j
    if fa != fb:
        # each term reads 0 * (x_a - x_a -/+ x_b), 0 times a finite value
        none = Term(si, np.ones(len(si), dtype=np.int8), np.zeros(len(si)))
        return PairRows(si, sj, none, none)
    rs, sc = group.systems[fa], group.constants[fa]
    # N(a, b)^2 and N(a, -b)^2 as floats, converted once per distinct square
    values, inverse = np.unique(sc.sq[i, np.stack([j, rs.npositive + j])], return_inverse=True)
    floats = np.array([float(sc.unit * v) for v in values.tolist()])
    up, down = 2.0 * floats[inverse].reshape(2, -1)
    return PairRows(
        si, sj,
        _term(rs, rs.sum_index[i, j], up, offset),
        _term(rs, rs.diff_index[i, j], down, offset),
    )


def pair_values(h: HermitianStructure, t: PairRows) -> np.ndarray:
    """The rows' dd^c values; the torus term k_a g_T k_b is one matrix product."""
    k, x = h.group.layout.coefficient_matrix, np.concatenate(h.xhat)
    # one product per root: a stacked k @ g_T differs in the last bit on some types
    kg = np.array([row @ h.gt for row in k])
    val = 2.0 * (kg @ k.T)[t.i, t.j]
    xi, xj = x[t.i], x[t.j]
    val -= t.up.coef * (x[t.up.at] - xi - xj)
    val -= t.down.coef * (t.down.eps * x[t.down.at] - xi + xj)
    return val


class QuadRows(NamedTuple):
    """dd^c on (E_a, E_b, E_-c, E_-d), per row: a, b, c, d = stacked positives
    i, j, m, l of one factor, with a + b = c + d and no opposite pair. ab is
    the term of a + b, coef N(a, b) N(-c, -d); ac that of a - c, coef
    eps N(a, -c) N(b, -d); ad that of a - d, coef eps N(a, -d) N(b, -c)."""

    i: np.ndarray
    j: np.ndarray
    m: np.ndarray
    l: np.ndarray
    ab: Term
    ac: Term
    ad: Term

    def witness(self, group: GroupSpec, row: int) -> str:
        (f, a), (_, b), (_, c), (_, d) = (
            _label(group, k[row]) for k in (self.i, self.j, self.m, self.l)
        )
        return f"quad ({a}, {b}, -{c}, -{d}) in factor {f}"


def quad_rows(group: GroupSpec, f: int, i, j, m, l) -> QuadRows:
    """The rows of positives (i, j, m, l) of factor f."""
    i, j, m, l = (np.asarray(v, dtype=np.int32) for v in (i, j, m, l))
    rs, fl = group.systems[f], group.constants[f].float_array
    n, add, offset = rs.npositive, rs.sum_index, group.layout.row_slices[f].start
    a, b, c, d = i, j, n + m, n + l
    return QuadRows(
        *(offset + v for v in (i, j, m, l)),
        _term(rs, add[a, b], fl[a, b] * fl[c, d], offset),
        _term(rs, add[a, c], fl[a, c] * fl[b, d], offset),
        _term(rs, add[a, d], fl[a, d] * fl[b, c], offset),
    )


def quad_values(h: HermitianStructure, t: QuadRows) -> np.ndarray:
    x = np.concatenate(h.xhat)
    xa, xb, xc, xd = x[t.i], x[t.j], x[t.m], x[t.l]
    val = t.ab.coef * (xa + xb + xc + xd - 2.0 * x[t.ab.at])
    val -= t.ac.coef * (-xa + xb + xc - xd + 2.0 * t.ac.eps * x[t.ac.at])
    val += t.ad.coef * (-xa + xb - xc + xd + 2.0 * t.ad.eps * x[t.ad.at])
    return val


def build_residual_tables(group: GroupSpec) -> tuple[PairRows, QuadRows]:
    """The group's pair rows and quad rows, each in scan order: per factor,
    its pairs (i < j) then its quads; after every factor, the pairs across
    factors."""
    pairs, quads = [], []
    for f, rs in enumerate(group.systems):
        i, j = np.triu_indices(rs.npositive, 1)
        pairs.append(pair_rows(group, f, i, f, j))
        quads.append(quad_rows(group, f, *rs.positive_quads().T))
    for fa, fb in itertools.combinations(range(len(group.systems)), 2):
        ia, ib = np.indices((len(group.roots[fa]), len(group.roots[fb]))).reshape(2, -1)
        pairs.append(pair_rows(group, fa, ia, fb, ib))
    return _stack(pairs), _stack(quads)


def worst_row(r: np.ndarray) -> tuple[float, int]:
    """The largest residual, NaN skipped, and the first row holding it;
    (0.0, -1) when none is positive."""
    r = np.where(np.isnan(r), 0.0, r)
    row = int(np.argmax(r)) if r.size else -1
    return (float(r[row]), row) if row >= 0 and r[row] > 0 else (0.0, -1)


@np.errstate(**QUIET)
def closed_form_scan(h: HermitianStructure) -> tuple[float, str | None, float, float, int]:
    """(max residual, witness, skt1 max, skt2 max, rows checked) over every row.

    The witness is the first row in scan order that holds the maximum. A tie
    between the kinds goes to the pair when it lies within a factor no later
    than the quad's, as every such pair comes before that quad.
    """
    group = h.group
    pairs, quads = group.residual_tables
    skt1, p = worst_row(np.abs(pair_values(h, pairs)) / 2.0)
    skt2, q = worst_row(np.abs(quad_values(h, quads)) / 2.0)
    pair_first = skt1 > skt2
    if skt1 == skt2 > 0:
        rows = (pairs.i[p], pairs.j[p], quads.i[q])
        fa, fb, fq = (group.layout.locate(int(r), rows=True)[0] for r in rows)
        pair_first = fa == fb <= fq
    witness = pairs.witness(group, p) if pair_first else quads.witness(group, q) if skt2 else None
    return max(skt1, skt2), witness, skt1, skt2, len(pairs.i) + len(quads.i)
