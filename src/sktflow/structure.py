"""Structure constants of the complexified Lie algebra in a Chevalley-style basis.

Brackets are E_a coefficients N(a,b) with exactly rational squares; signs are
fixed by choosing the extraspecial decomposition of each positive root to be
positive and propagating everything else through the four-term cocycle. The
table is stored by root index as a sign and an integer N^2 / unit, so the
recursion and the identity suite below run in exact integer arithmetic.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

import numpy as np

from .errors import ConsistencyError
from .roots import RootSystem, check_count, string_steps
from .surd import Surd, squarefree_split

_ZERO = Surd.of(0)
_INT64_SAFE = 1 << 31  # int64 holds the product of two magnitudes below this
_MAX_FAILURES = 100  # failure messages an IdentityReport keeps


def _exact(values, bound: int = 0) -> np.ndarray:
    """Integers as an int64 array when they and bound stay below _INT64_SAFE in
    magnitude, else as an object array of Python ints."""
    values = np.asarray(values)
    ends = (values.min(), values.max()) if values.size else ()
    top = max([bound, *(abs(int(v)) for v in ends)])
    return values.astype(np.int64 if top < _INT64_SAFE else object)


class StructureConstants:
    """Signed table N(a,b) over all ordered root pairs whose sum is a root.

    By root index (see RootSystem): sign[i, j] in {-1, 0, 1} and the integer
    sq[i, j] with N(i, j)^2 = sq[i, j] * unit, where unit is gram_scale / 2
    over the least common denominator of the squares. table reads the values
    as Surds keyed by coefficient tuples; at(i, j) by index; float_array
    holds them as floats.
    """

    def __init__(self, system: RootSystem, table: Mapping):
        cells = [(system.index_of(r), system.index_of(s), v) for (r, s), v in table.items()]
        half = system.gram_scale / 2
        squares = [v.squared() / half for _, _, v in cells]
        den = lcm(1, *(q.denominator for q in squares))
        nroots = 2 * system.npositive
        sign = np.zeros((nroots, nroots), dtype=np.int8)
        sq = np.zeros((nroots, nroots), dtype=object)
        for (i, j, v), q in zip(cells, squares):
            sign[i, j] = (v.coeff > 0) - (v.coeff < 0)
            sq[i, j] = q.numerator * (den // q.denominator)
        self._set(system, sign, _exact(sq), half / den)

    @classmethod
    def _of(cls, system: RootSystem, sign: np.ndarray, sq: np.ndarray) -> StructureConstants:
        self = cls.__new__(cls)
        self._set(system, sign, sq, system.gram_scale / 2)
        return self

    def _set(self, system, sign, sq, unit):
        sign.flags.writeable = sq.flags.writeable = False
        self.system, self.sign, self.sq, self.unit = system, sign, sq, unit
        # held pairs: every pair whose sum is a root, and any other nonzero entry
        self._held = (sign != 0) | (system.sum_index >= 0)
        self._size = int(self._held.sum())
        self._surds: dict[int, Surd] = {}
        self._splits: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _squarefree(self, up: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (sq * up, core, mult) with sq * up = mult^2 * core and
        core squarefree (core 1, mult 0 where sq is 0), split once per factor up."""
        split = self._splits.get(up)
        if split is None:
            bound = int(self.sq.max()) * up
            sq = _exact(self.sq, bound) * up
            values, inverse = np.unique(sq.ravel(), return_inverse=True)
            parts = [squarefree_split(v) if v else (1, 0) for v in values.tolist()]
            split = self._splits[up] = (sq, *(
                _exact([x[t] for x in parts], bound)[inverse].reshape(sq.shape) for t in (0, 1)
            ))
            for array in split:
                array.flags.writeable = False
        return split

    def _magnitude(self, square) -> Surd:
        w = self._surds.get(square)
        if w is None:
            w = self._surds[square] = Surd.sqrt(self.unit * int(square))
        return w

    def at(self, i: int, j: int) -> Surd:
        s = self.sign[i, j]
        if not s:
            return _ZERO
        w = self._magnitude(self.sq[i, j])
        return w if s > 0 else -w

    def _index(self, a, b) -> tuple[int, int] | None:
        try:
            return self.system.index_of(a), self.system.index_of(b)
        except ValueError:  # a or b is not a root
            return None

    def value(self, a, b) -> Surd:
        ij = self._index(a, b)
        return _ZERO if ij is None else self.at(*ij)

    def squared(self, a, b) -> Fraction:
        ij = self._index(a, b)
        return Fraction(0) if ij is None else self.unit * int(self.sq[ij])

    def as_float(self, a, b) -> float:
        return float(self.value(a, b))

    @property
    def table(self) -> Mapping:
        """Read-only view {(coeffs a, coeffs b): N(a, b)} over the held pairs."""
        return _TableView(self)

    @cached_property
    def float_array(self) -> np.ndarray:
        """float(N(i, j)) as a read-only (2n, 2n) array."""
        values, inverse = np.unique(self.sq.ravel(), return_inverse=True)
        mags = np.array([float(self._magnitude(v)) for v in values.tolist()])
        out = self.sign * mags[inverse].reshape(self.sq.shape)
        out.flags.writeable = False
        return out


class _TableView(Mapping):
    """StructureConstants.table: reads the index arrays, builds no dict."""

    def __init__(self, sc: StructureConstants):
        self._sc = sc

    def __getitem__(self, key) -> Surd:
        ij = self._sc._index(*key)
        if ij is None or not self._sc._held[ij]:
            raise KeyError(key)
        return self._sc.at(*ij)

    def __len__(self) -> int:
        return self._sc._size

    def __iter__(self):
        roots = self._sc.system.all_roots()
        for i, j in zip(*(v.tolist() for v in np.nonzero(self._sc._held))):
            yield roots[i].coeffs, roots[j].coeffs


def _string_squares(rs: RootSystem) -> np.ndarray:
    """q(1 - p) <a, a> / gram_scale by index for the a-string p..q through b, on
    every pair (a, b) whose sum is a root, 0 elsewhere: N(a, b)^2 / (gram_scale / 2).
    Read-only, built once per system."""
    return rs._cached("string_squares", _count_string_squares)


def _count_string_squares(rs: RootSystem) -> np.ndarray:
    a, b = np.nonzero(rs.sum_index >= 0)
    down, up = string_steps(rs, a, b)
    out = np.zeros_like(rs.sum_index, dtype=rs.inner_int.dtype)
    out[a, b] = up * (1 + down) * np.diag(rs.inner_int)[a % rs.npositive]
    return out


def _isqrt(values: np.ndarray) -> np.ndarray:
    """Integer square roots, exact on every perfect square: floats round them
    correctly below 2**62, and object arrays take math.isqrt."""
    if values.dtype == object:
        return np.frompyfunc(isqrt, 1, 1)(values)
    return np.rint(np.sqrt(values)).astype(np.int64)


def structure_constants(rs: RootSystem) -> StructureConstants:
    """Build the full signed table by height recursion over positive roots.

    Each positive root's extraspecial pair, its decomposition a + b with the
    lowest a, gets N(a, b) = +sqrt(string square). Every other decomposition
    follows from the four-term cocycle on (a1, b1, -a, -b), whose entries all
    belong to roots of lower height, so each height is one set of array reads.
    The integers are int64 while the square of the largest string square
    is below _INT64_SAFE, so that a product of four entries fits, and
    Python ints otherwise.
    """
    n = rs.npositive
    add, neg = rs.sum_index, rs.neg_index
    strings = _string_squares(rs)
    strings = _exact(strings, int(strings.max()) ** 2)
    signed = np.zeros_like(strings)  # sign(N) N^2 / unit

    def insert_closures(eta, rho, value):
        # all entries the signed values of N(eta, rho) determine: the cyclic
        # rotations of (eta, rho, -xi), each swapped and negated
        nxi = neg[add[eta, rho]]
        x, y = np.concatenate([eta, rho, nxi]), np.concatenate([rho, nxi, eta])
        nx, ny, value = neg[x], neg[y], np.concatenate([value] * 3)
        signed[np.concatenate([x, y, nx, ny]), np.concatenate([y, x, ny, nx])] = np.concatenate(
            [value, -value, -value, value]
        )

    a, b, g = rs.positive_sums()
    order = np.lexsort((a, g))  # by root, then by a: the order of the checks
    a, b, g = a[order], b[order], g[order]
    heights = rs.coefficient_matrix.sum(axis=1).astype(np.int64)
    lone = heights > 1
    lone[g] = False
    lone = np.nonzero(lone)[0]
    if len(lone):
        raise ConsistencyError(
            f"{rs.positives[lone[0]].label} has no decomposition into positive roots"
        )
    first = np.diff(g, prepend=-1) != 0  # the extraspecial pairs: each root's lowest a
    a1, b1 = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    a1[g[first]], b1[g[first]] = a[first], b[first]
    insert_closures(a[first], b[first], strings[a[first], b[first]])

    a, b, g = a[~first], b[~first], g[~first]
    levels = heights[g]
    starts = np.flatnonzero(np.diff(levels, prepend=-1)).tolist()  # each height's first pair
    for lo, hi in zip(starts, starts[1:] + [len(levels)]):
        x, y, e, f = a[lo:hi], b[lo:hi], a1[g[lo:hi]], b1[g[lo:hi]]
        nx, ny = neg[x], neg[y]
        # cocycle on (e, f, -x, -y), every referenced sum of lower height:
        # N(x, y) N(e, f) = (s_P sqrt(A) - s_Q sqrt(B)) unit, N(e, f)^2 = q1 unit,
        # with s_P A and s_Q B these products
        p, q = signed[e, ny] * signed[f, nx], signed[e, nx] * signed[f, ny]
        pq = abs(p * q)
        root = _isqrt(pq)
        square = abs(p) + abs(q) - 2 * np.sign(p * q) * root
        bad = np.nonzero((root * root != pq) | (square != strings[x, y] * strings[e, f]))[0]
        if len(bad):
            u, v = (rs.positives[w[bad[0]]].label for w in (x, y))
            raise ConsistencyError(f"derived |N({u},{v})| disagrees with the string formula")
        # A = B passed the check only with s_P = -s_Q: the terms add
        s = np.where(abs(p) > abs(q), np.sign(p), -np.sign(q))
        insert_closures(x, y, s * strings[x, y])

    return StructureConstants._of(rs, np.sign(signed).astype(np.int8), _exact(abs(signed)))


@dataclass
class IdentityReport:
    """Outcome of the exact identity suite for one structure-constant table.

    failures keeps the first 100 messages, grouped by check; failure_count
    counts them all.
    """

    system: str
    counts: dict[str, int]
    failures: list[str]
    failure_count: int
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


def verify_identities(
    rs: RootSystem,
    sc: StructureConstants,
    *,
    cocycle_limit: int | None = None,
    seed: int = 0,
) -> IdentityReport:
    """Check the defining identities of the table, exactly.

    The four-term cocycle check visits the quads of rs.zero_sum_quads().
    Without cocycle_limit, or with a limit at or above their number, it
    checks all of them. A smaller limit checks that many quads, drawn
    uniformly without replacement by default_rng(seed) and kept in list
    order. cocycle_limit, unless None, and seed must be nonnegative ints,
    not bools; anything else is refused with ValueError before any work.

    The quads and string squares are built once per system, and the
    squarefree split of the table's squares once per table, so a repeated
    call costs its checks alone.
    """
    if cocycle_limit is not None:
        check_count(cocycle_limit, "cocycle_limit")
    check_count(seed, "seed")
    if sc.system.stype != rs.stype:
        raise ValueError(
            f"structure constants of {sc.system.stype} cannot be checked against {rs.stype}"
        )
    start = time.perf_counter()
    counts: dict[str, int] = {}
    failures: list[str] = []
    failure_count = 0
    n, add, neg, sign, roots = rs.npositive, rs.sum_index, rs.neg_index, sc.sign, rs.all_roots()
    # N^2 / (gram_scale / 2) of rs is sq * up / down: compare sq * up with the
    # string squares and inner products scaled by down
    ratio = sc.unit / (rs.gram_scale / 2)
    up, down = ratio.numerator, ratio.denominator
    sq, core, mult = sc._squarefree(up)

    def scaled(values):
        return _exact(values, int(abs(values).max(initial=0)) * down) * down

    def record(check: str, bad: np.ndarray, message):
        nonlocal failure_count
        counts[check] = counts.get(check, 0) + len(bad)
        rows = np.nonzero(bad)[0]
        failure_count += len(rows)
        failures.extend(message(r) for r in rows[: _MAX_FAILURES - len(failures)].tolist())

    def differs(s, q, x, y):
        return (sign[x, y] != s) | (sq[x, y] != q)

    i, j = np.nonzero(sc._held)
    s, q = sign[i, j], sq[i, j]
    k = add[i, j]
    nk = neg[k]
    for check, bad in (
        ("antisymmetry", differs(-s, q, j, i)),
        ("negation symmetry", differs(-s, q, neg[i], neg[j])),
        ("cyclic rotation", (k < 0) | differs(s, q, j, nk) | differs(s, q, nk, i)),
        ("string square", q != scaled(_string_squares(rs)[i, j])),
    ):
        record(check.replace(" ", "_"), bad,
               lambda r: f"{check} at ({roots[i[r]].coeffs}, {roots[j[r]].coeffs})")

    def term(x, y, z, w, sgn):
        # N(x, y) N(z, w) / unit = coefficient * sqrt(core), core squarefree
        c1, c2 = core[x, y], core[z, w]
        g = np.gcd(c1, c2)
        return (c1 // g) * (c2 // g), sgn * sign[x, y] * sign[z, w] * mult[x, y] * mult[z, w] * g

    quads = rs.zero_sum_quads()
    if cocycle_limit is not None and cocycle_limit < len(quads):
        draw = np.random.default_rng(seed).choice(len(quads), cocycle_limit, replace=False)
        quads = quads[np.sort(draw)]
    a, b, c, d = quads.T
    terms = [term(a, b, c, d, 1), term(a, c, b, d, -1), term(a, d, b, c, 1)]
    # a quad holds when the coefficients sharing each core sum to zero
    bad = np.zeros(len(a), dtype=bool)
    for core_t, _ in terms:
        bad |= sum(np.where(core_u == core_t, coef_u, 0) for core_u, coef_u in terms) != 0
    record("four_term_cocycle", bad, lambda r: "four-term cocycle at ({}, {}, {}, {})".format(
        *(roots[x[r]].coeffs for x in (a, b, c, d))))

    i, j = np.triu_indices(n, 1)
    pos = rs.positives
    record("sign_flip_square", sq[i, n + j] != sq[i, j] + 2 * scaled(rs.inner_int[i, j]),
           lambda r: f"sign flip square at ({pos[i[r]].label}, {pos[j[r]].label})")

    return IdentityReport(
        str(rs.stype), counts, failures, failure_count, time.perf_counter() - start
    )
