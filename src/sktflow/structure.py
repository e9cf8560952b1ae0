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
from .roots import RootSystem, _coeffs
from .surd import Surd, squarefree_split

_ZERO = Surd.of(0)
_INT64_SAFE = 1 << 31  # int64 holds the product of two magnitudes below this
_MAX_FAILURES = 100  # failure messages an IdentityReport keeps


def _exact(values, bound: int = 0) -> np.ndarray:
    """Integers as an int64 array when they and bound stay below _INT64_SAFE in
    magnitude, else as an object array of Python ints."""
    values = np.asarray(values)
    top = max([bound, *(abs(int(v)) for v in (values.min(), values.max()) if values.size)])
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
        index = self.system._index
        i, j = index.get(_coeffs(a)), index.get(_coeffs(b))
        return None if i is None or j is None else (i, j)

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
    every pair (a, b) whose sum is a root, 0 elsewhere: N(a, b)^2 / (gram_scale / 2)."""
    g = rs.inner_int
    inner = np.block([[g, -g], [-g, g]])  # all roots by index, in units of gram_scale
    a, b = np.nonzero(rs.sum_index >= 0)
    up, down = np.zeros(len(a), dtype=np.int64), np.zeros(len(a), dtype=np.int64)
    for steps, step in ((up, rs.sum_index), (down, rs.diff_index)):
        k = step[b, a]  # strings hold at most 4 roots
        while (k >= 0).any():
            steps += k >= 0
            k = np.where(k >= 0, step[k, a], -1)
    bad = np.nonzero((down - up) * inner[a, a] != 2 * inner[b, a])[0]
    if len(bad):
        x, y = (rs.all_roots()[v[bad[0]]].label for v in (a, b))
        raise ConsistencyError(f"string length mismatch for ({x}, {y})")
    out = np.zeros_like(inner)
    out[a, b] = up * (1 + down) * inner[a, a]
    return out


def structure_constants(rs: RootSystem) -> StructureConstants:
    """Build the full signed table by height recursion over positive roots."""
    n = rs.npositive
    add, sub, neg = rs.sum_index.tolist(), rs.diff_index, rs.neg_index.tolist()
    strings = _string_squares(rs).tolist()
    sign = [[0] * 2 * n for _ in range(2 * n)]
    sq = [[0] * 2 * n for _ in range(2 * n)]

    def insert_closure(eta: int, rho: int, s: int, q: int):
        # all entries the single positive-pair value N(eta, rho) = s sqrt(q unit)
        # determines: the cyclic rotations of (eta, rho, -xi), each swapped and negated
        nxi = neg[add[eta][rho]]
        for x, y in ((eta, rho), (rho, nxi), (nxi, eta)):
            nx, ny = neg[x], neg[y]
            for u, v, t in ((x, y, s), (y, x, -s), (nx, ny, -s), (ny, nx, s)):
                sign[u][v], sq[u][v] = t, q

    for g, gamma in enumerate(rs.positives):
        if gamma.height == 1:
            continue
        # gamma - a for every a below gamma; b > a keeps one order of each pair
        rest = sub[g, :g]
        pairs = [(int(a), int(rest[a])) for a in np.nonzero((rest > np.arange(g)) & (rest < n))[0]]
        if not pairs:
            raise ConsistencyError(f"{gamma.label} has no decomposition into positive roots")

        a1, b1 = pairs[0]  # extraspecial pair: canonically first component
        q1 = strings[a1][b1]
        insert_closure(a1, b1, 1, q1)

        for a, b in pairs[1:]:
            na, nb = neg[a], neg[b]
            # cocycle on (a1, b1, -a, -b), every referenced sum of lower height:
            # N(a, b) N(a1, b1) = (s_P sqrt(A) - s_Q sqrt(B)) unit, N(a1, b1)^2 = q1 unit
            big_a, big_b = sq[a1][nb] * sq[b1][na], sq[a1][na] * sq[b1][nb]
            s_p, s_q = sign[a1][nb] * sign[b1][na], sign[a1][na] * sign[b1][nb]
            root = isqrt(big_a * big_b)
            square = big_a + big_b - 2 * s_p * s_q * root
            if root * root != big_a * big_b or square != strings[a][b] * q1:
                raise ConsistencyError(
                    f"derived |N({rs.positives[a].label},{rs.positives[b].label})|"
                    " disagrees with the string formula"
                )
            # A = B passed the check only with s_P = -s_Q: the terms add
            s = s_p if big_a > big_b else -s_q
            insert_closure(a, b, s, strings[a][b])

    return StructureConstants._of(rs, np.array(sign, dtype=np.int8), _exact(sq))


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
    order.
    """
    if sc.system.stype != rs.stype:
        raise ValueError(
            f"structure constants of {sc.system.stype} cannot be checked against {rs.stype}"
        )
    if cocycle_limit is not None and cocycle_limit < 0:
        raise ValueError(f"cocycle_limit must be nonnegative, got {cocycle_limit}")
    start = time.perf_counter()
    counts: dict[str, int] = {}
    failures: list[str] = []
    failure_count = 0
    n, add, neg, sign = rs.npositive, rs.sum_index, rs.neg_index, sc.sign
    coeffs = [r.coeffs for r in rs.all_roots()]
    # N^2 / (gram_scale / 2) of rs is sq * up / down: compare sq * up with the
    # string squares and inner products scaled by down
    strings, ratio = _string_squares(rs), sc.unit / (rs.gram_scale / 2)
    up, down = ratio.numerator, ratio.denominator
    top = int(strings.max()) + 2 * int(abs(rs.inner_int).max())
    bound = max(int(sc.sq.max()) * up, top * down)
    sq = _exact(sc.sq, bound) * up
    strings, inner = (_exact(v, bound) * down for v in (strings, rs.inner_int))

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
        ("string square", q != strings[i, j]),
    ):
        record(check.replace(" ", "_"), bad,
               lambda r: f"{check} at ({coeffs[i[r]]}, {coeffs[j[r]]})")

    values, inverse = np.unique(sq.ravel(), return_inverse=True)
    split = [squarefree_split(v) if v else (1, 0) for v in values.tolist()]
    core, mult = (_exact([x[t] for x in split], bound)[inverse].reshape(sq.shape) for t in (0, 1))

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
        *(coeffs[x[r]] for x in (a, b, c, d))))

    i, j = np.triu_indices(n, 1)
    pos = rs.positives
    record("sign_flip_square", sq[i, n + j] != sq[i, j] + 2 * inner[i, j],
           lambda r: f"sign flip square at ({pos[i[r]].label}, {pos[j[r]].label})")

    return IdentityReport(
        str(rs.stype), counts, failures, failure_count, time.perf_counter() - start
    )
