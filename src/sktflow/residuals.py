"""Closed-form dd^c residuals of invariant Hermitian structures, as row tables.

Every dd^c component that can be nonzero on a product of simple factors is
fixed by its roots: a pair (E_a, E_-a, E_b, E_-b) or a quad (E_a, E_b, E_-c,
E_-d) with a + b = c + d, and is linear in the fiber values and the torus
metric. A group has one table per kind, built once: int32 rows holding each
component's roots and root sums as stacked positive indices (rows of the
layout's coefficient matrix, entries of the stacked fiber vector), one
signed N-factor coefficient per term, 0 where the roots have no root sum
(the term then reads the row's own root a, so it is 0 times a finite value),
and the signs of the root differences the formula reads. A scan evaluates
each table once with elementwise numpy in the order of the scalar formula.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .roots import RootSystem

if TYPE_CHECKING:
    from .hermitian import GroupSpec, HermitianStructure


def _term(rs: RootSystem, sums: np.ndarray, coef: np.ndarray, offset: int, a: np.ndarray):
    """(stacked row offset + (sums % n, or a where sums is -1), sign, signed
    coef or 0) of sums, root indices of rs or -1, where coef holds the N
    factors, offset is rs's first stacked row and a holds the rows' own root."""
    n, has = rs.npositive, sums >= 0
    eps = np.where(sums < n, 1, -1).astype(np.int8)
    rows = (offset + np.where(has, sums % n, a)).astype(np.int32)
    return rows, eps, np.where(has, eps * coef, 0.0)


def _stack(tables):
    """One table holding the rows of tables in order."""
    return type(tables[0])(*(np.concatenate(parts, axis=-1) for parts in zip(*tables)))


class PairRows(NamedTuple):
    """dd^c on (E_a, E_-a, E_b, E_-b), a != b: rows are the stacked positives
    a, b, a + b and a - b. Within one factor up is 2 N(a, b)^2 and down
    2 eps N(a, -b)^2, eps = down_eps; across factors both are 0 and the sums
    read a, so only the torus term, entry a * (stacked positives) + b of the
    flattened k g_T k^T, remains."""

    rows: np.ndarray
    up: np.ndarray
    down: np.ndarray
    down_eps: np.ndarray
    torus: np.ndarray

    def witness(self, group: GroupSpec, row: int) -> str:
        (fa, a), (fb, b) = (group.row_labels[k] for k in self.rows[:2, row])
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
        up = down = (si, np.ones(len(si), dtype=np.int8), np.zeros(len(si)))
    else:
        rs, sc = group.systems[fa], group.constants[fa]
        # N(a, b)^2 and N(a, -b)^2 as floats, converted once per distinct square
        values, inverse = np.unique(sc.sq[i, np.stack([j, rs.npositive + j])], return_inverse=True)
        floats = np.array([float(sc.unit * v) for v in values.tolist()])
        coef_up, coef_down = 2.0 * floats[inverse].reshape(2, -1)
        up = _term(rs, rs.sum_index[i, j], coef_up, offset, i)
        down = _term(rs, rs.diff_index[i, j], coef_down, offset, i)
    torus = si * np.intp(len(group.layout.coefficient_matrix)) + sj
    return PairRows(np.stack([si, sj, up[0], down[0]]), up[2], down[2], down[1], torus)


def pair_values(h: HermitianStructure, t: PairRows) -> np.ndarray:
    """The rows' dd^c values; the torus term k_a g_T k_b is one matrix product."""
    k = h.group.layout.coefficient_matrix
    # k_a @ g_T per row: a batched matmul gives each row the bits of its own
    # product, where the 2-D k @ g_T (one gemm) differs in the last bit
    kg = np.matmul(k[:, None, :], h.gt)[:, 0, :]
    val = 2.0 * (kg @ k.T).ravel()[t.torus]
    xi, xj, x_up, x_down = h.x[t.rows]
    val -= t.up * (x_up - xi - xj)
    val -= t.down * (t.down_eps * x_down - xi + xj)
    return val


class QuadRows(NamedTuple):
    """dd^c on (E_a, E_b, E_-c, E_-d), a + b = c + d with no opposite pair:
    rows are the stacked positives a, b, c, d of one factor, a + b, a - c and
    a - d. ab is N(a, b) N(-c, -d), ac eps N(a, -c) N(b, -d) and ad
    eps N(a, -d) N(b, -c), eps = ac_eps or ad_eps; a + b is always positive."""

    rows: np.ndarray
    ab: np.ndarray
    ac: np.ndarray
    ad: np.ndarray
    ac_eps: np.ndarray
    ad_eps: np.ndarray

    def witness(self, group: GroupSpec, row: int) -> str:
        (f, a), (_, b), (_, c), (_, d) = (group.row_labels[k] for k in self.rows[:4, row])
        return f"quad ({a}, {b}, -({c}), -({d})) in factor {f}"


def quad_rows(group: GroupSpec, f: int, i, j, m, l) -> QuadRows:
    """The rows of positives (i, j, m, l) of factor f."""
    i, j, m, l = (np.asarray(v, dtype=np.int32) for v in (i, j, m, l))
    rs, fl = group.systems[f], group.constants[f].float_array
    n, add, offset = rs.npositive, rs.sum_index, group.layout.row_slices[f].start
    a, b, c, d = i, j, n + m, n + l
    (ab, _, ab_coef), (ac, ac_eps, ac_coef), (ad, ad_eps, ad_coef) = (
        _term(rs, add[a, b], fl[a, b] * fl[c, d], offset, i),
        _term(rs, add[a, c], fl[a, c] * fl[b, d], offset, i),
        _term(rs, add[a, d], fl[a, d] * fl[b, c], offset, i),
    )
    rows = np.stack([offset + v for v in (i, j, m, l)] + [ab, ac, ad])
    return QuadRows(rows, ab_coef, ac_coef, ad_coef, ac_eps, ad_eps)


def quad_values(h: HermitianStructure, t: QuadRows) -> np.ndarray:
    xa, xb, xc, xd, x_ab, x_ac, x_ad = h.x[t.rows]
    val = t.ab * (xa + xb + xc + xd - 2.0 * x_ab)
    val -= t.ac * (-xa + xb + xc - xd + 2.0 * t.ac_eps * x_ac)
    val += t.ad * (-xa + xb - xc + xd + 2.0 * t.ad_eps * x_ad)
    return val


def build_residual_tables(group: GroupSpec) -> tuple[PairRows, QuadRows]:
    """The group's pair and quad rows in scan order: every pair row, then
    every quad row. Pairs run per factor (i < j), then across factors; quads
    run per factor."""
    pairs, quads = [], []
    for f, rs in enumerate(group.systems):
        i, j = np.triu_indices(rs.npositive, 1)
        pairs.append(pair_rows(group, f, i, f, j))
        quads.append(quad_rows(group, f, *rs.positive_quads().T))
    for fa, fb in itertools.combinations(range(len(group.systems)), 2):
        ia, ib = np.indices((group.systems[fa].npositive, group.systems[fb].npositive))
        pairs.append(pair_rows(group, fa, ia.ravel(), fb, ib.ravel()))
    return _stack(pairs), _stack(quads)


def worst_row(r: np.ndarray) -> tuple[float, int]:
    """The largest residual and the first row holding it; (0.0, -1) when none is positive."""
    row = int(np.argmax(r)) if r.size else -1
    return (float(r[row]), row) if row >= 0 and r[row] > 0 else (0.0, -1)


def closed_form_scan(h: HermitianStructure) -> tuple[float, str | None, float, float, int]:
    """(max residual, witness, skt1 max, skt2 max, rows checked) over every
    row of a structure within hermitian.SCAN_RANGE, where no value overflows.

    The witness is the first row in scan order, every pair row then every
    quad row, that holds the maximum; skt1 and skt2 are the pairs' and the
    quads' maxima.
    """
    group = h.group
    pairs, quads = group.residual_tables
    npairs = pairs.rows.shape[1]
    r = np.abs(np.concatenate([pair_values(h, pairs), quad_values(h, quads)])) / 2.0
    best, row = worst_row(r)
    table, at = (pairs, row) if row < npairs else (quads, row - npairs)
    witness = table.witness(group, at) if row >= 0 else None
    skt1, skt2 = (float(part.max(initial=0.0)) for part in (r[:npairs], r[npairs:]))
    return best, witness, skt1, skt2, len(r)
