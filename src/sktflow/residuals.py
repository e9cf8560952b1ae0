"""Closed-form dd^c residuals of invariant Hermitian structures, as row tables.

Every dd^c component that can be nonzero on a product of simple factors is
fixed by its roots: a pair (E_a, E_-a, E_b, E_-b) or a quad (E_a, E_b, E_-c,
E_-d) with a + b = c + d. Its value is linear in the fiber values and the
torus metric, with coefficients from the root tables and the structure
constants. Those coefficients are built once per group, as arrays with one
row per component; each term spans every row, with coefficient 0 where its
roots have no root sum. A scan evaluates every row with elementwise numpy in
the order of the scalar formula.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .roots import RootSystem

if TYPE_CHECKING:
    from .hermitian import GroupSpec, HermitianStructure


class Term(NamedTuple):
    """What each row of a residual table reads where its roots have a root sum."""

    at: np.ndarray  # positive index of the sum's root
    eps: np.ndarray  # 1 when the sum is positive, -1 when negative
    coef: np.ndarray  # the N factor, multiplied in the scalar formula's order; 0 with no sum


def _term(rs: RootSystem, sums: np.ndarray, coef: np.ndarray) -> Term:
    """The term of sums, root indices or -1; coef holds the N factors where sums is a root."""
    n = rs.npositive
    eps = np.where(sums < n, 1, -1).astype(np.int8)
    return Term((sums % n).astype(np.int32), eps, np.where(sums >= 0, eps * coef, 0.0))


class PairRows(NamedTuple):
    """dd^c on (E_a, E_-a, E_b, E_-b), per row: a = positives[i] of factor fa,
    b = positives[j] of factor fb, a != b. Within one factor, up is the term of
    a + b, coef 2 N(a, b)^2, and down the term of a - b, coef 2 eps N(a, -b)^2;
    across factors both are None and only the torus term remains."""

    fa: int
    fb: int
    i: np.ndarray
    j: np.ndarray
    up: Term | None
    down: Term | None

    def witness(self, group: GroupSpec, row: int) -> str:
        pa, pb = group.systems[self.fa].positives, group.systems[self.fb].positives
        a, b = pa[self.i[row]].label, pb[self.j[row]].label
        if self.fa == self.fb:
            return f"pair ({a}, {b}) in factor {self.fa}"
        return f"pair (factor {self.fa}: {a}, factor {self.fb}: {b})"


def pair_rows(group: GroupSpec, fa: int, i, fb: int, j) -> PairRows:
    i, j = np.asarray(i, dtype=np.int32), np.asarray(j, dtype=np.int32)
    if fa != fb:
        return PairRows(fa, fb, i, j, None, None)
    rs, sc = group.systems[fa], group.constants[fa]
    # N(a, b)^2 and N(a, -b)^2 as floats, converted once per distinct square
    values, inverse = np.unique(sc.sq[i, np.stack([j, rs.npositive + j])], return_inverse=True)
    floats = np.array([float(sc.unit * v) for v in values.tolist()])
    up, down = 2.0 * floats[inverse].reshape(2, -1)
    return PairRows(
        fa, fb, i, j, _term(rs, rs.sum_index[i, j], up), _term(rs, rs.diff_index[i, j], down)
    )


def pair_values(h: HermitianStructure, t: PairRows) -> np.ndarray:
    """The rows' dd^c values; the torus term k_a g_T k_b is one product per segment."""
    roots = h.group.roots
    kg = np.array([k @ h.gt for k in roots[t.fa]])
    val = 2.0 * (kg @ roots[t.fb].T)[t.i, t.j]
    if t.up is None:
        return val
    x = h.xhat[t.fa]
    xi, xj = x[t.i], x[t.j]
    val -= t.up.coef * (x[t.up.at] - xi - xj)
    val -= t.down.coef * (t.down.eps * x[t.down.at] - xi + xj)
    return val


class QuadRows(NamedTuple):
    """dd^c on (E_a, E_b, E_-c, E_-d), per row: a, b, c, d = positives[i, j, m, l]
    of factor f, with a + b = c + d and no opposite pair. ab is the term of
    a + b, coef N(a, b) N(-c, -d); ac that of a - c, coef eps N(a, -c) N(b, -d);
    ad that of a - d, coef eps N(a, -d) N(b, -c)."""

    f: int
    i: np.ndarray
    j: np.ndarray
    m: np.ndarray
    l: np.ndarray
    ab: Term
    ac: Term
    ad: Term

    def witness(self, group: GroupSpec, row: int) -> str:
        pos = group.systems[self.f].positives
        a, b, c, d = (pos[k[row]].label for k in (self.i, self.j, self.m, self.l))
        return f"quad ({a}, {b}, -{c}, -{d}) in factor {self.f}"


def quad_rows(group: GroupSpec, f: int, i, j, m, l) -> QuadRows:
    i, j, m, l = (np.asarray(v, dtype=np.int32) for v in (i, j, m, l))
    rs, fl = group.systems[f], group.constants[f].float_array
    n, add = rs.npositive, rs.sum_index
    a, b, c, d = i, j, n + m, n + l
    return QuadRows(
        f, i, j, m, l,
        _term(rs, add[a, b], fl[a, b] * fl[c, d]),
        _term(rs, add[a, c], fl[a, c] * fl[b, d]),
        _term(rs, add[a, d], fl[a, d] * fl[b, c]),
    )


def quad_values(h: HermitianStructure, t: QuadRows) -> np.ndarray:
    x = h.xhat[t.f]
    xa, xb, xc, xd = x[t.i], x[t.j], x[t.m], x[t.l]
    val = t.ab.coef * (xa + xb + xc + xd - 2.0 * x[t.ab.at])
    val -= t.ac.coef * (-xa + xb + xc - xd + 2.0 * t.ac.eps * x[t.ac.at])
    val += t.ad.coef * (-xa + xb - xc + xd + 2.0 * t.ad.eps * x[t.ad.at])
    return val


def build_residual_tables(group: GroupSpec) -> tuple[PairRows | QuadRows, ...]:
    """The residual rows in scan order: per factor its pairs (i < j) then its
    quads, then the pairs across factors."""
    segments = []
    for f, rs in enumerate(group.systems):
        i, j = np.triu_indices(rs.npositive, 1)
        segments.append(pair_rows(group, f, i, f, j))
        segments.append(quad_rows(group, f, *rs.positive_quads().T))
    for fa, fb in itertools.combinations(range(len(group.systems)), 2):
        ia, ib = np.indices((len(group.roots[fa]), len(group.roots[fb]))).reshape(2, -1)
        segments.append(pair_rows(group, fa, ia, fb, ib))
    return tuple(segments)


def worst_row(r: np.ndarray) -> tuple[float, int]:
    """The largest residual, NaN skipped, and the first row holding it;
    (0.0, -1) when none is positive."""
    r = np.where(np.isnan(r), 0.0, r)
    row = int(np.argmax(r)) if r.size else -1
    return (float(r[row]), row) if row >= 0 and r[row] > 0 else (0.0, -1)


def closed_form_scan(h: HermitianStructure) -> tuple[float, str | None, float, float, int]:
    """(max residual, witness, skt1 max, skt2 max, rows checked) over every row."""
    best, witness = 0.0, None
    skt1 = skt2 = 0.0
    checked = 0
    for seg in h.group.residual_tables:
        quad = isinstance(seg, QuadRows)
        val = quad_values(h, seg) if quad else pair_values(h, seg)
        top, row = worst_row(np.abs(val) / 2.0)
        checked += len(val)
        if quad:
            skt2 = max(skt2, top)
        else:
            skt1 = max(skt1, top)
        if top > best:
            best, witness = top, seg.witness(h.group, row)
    return best, witness, skt1, skt2, checked
