"""Structure constants of the complexified Lie algebra in a Chevalley-style basis.

Brackets are E_a coefficients N(a,b) with exactly rational squares; signs are
fixed by choosing the extraspecial decomposition of each positive root to be
positive and propagating everything else through the four-term cocycle. All
values are exact Surds, so the identity suite below compares without tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from .errors import ConsistencyError
from .roots import RootSystem, _coeffs, root_string
from .surd import Surd

_ZERO = Surd.of(0)
_DRAW_CHUNK = 1 << 16  # cocycle triples unranked per numpy block


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Signed table N(a,b) over all ordered root pairs whose sum is a root.

    table is keyed by coefficient tuples; at(i, j) reads the same values by
    root index (see RootSystem), and floats holds them as Python floats.
    """

    system: RootSystem
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], Surd] = field(repr=False)

    def __post_init__(self):
        nroots = 2 * self.system.npositive
        by_index = np.full((nroots, nroots), _ZERO, dtype=object)
        entries = []
        for (r, s), v in self.table.items():
            i, j = self.system.index_of(r), self.system.index_of(s)
            by_index[i, j] = v
            entries.append((i, j, v))
        object.__setattr__(self, "_by_index", by_index)
        object.__setattr__(self, "_entries", entries)

    def value(self, a, b) -> Surd:
        return self.table.get((_coeffs(a), _coeffs(b)), _ZERO)

    def at(self, i: int, j: int) -> Surd:
        return self._by_index[i, j]

    def squared(self, a, b) -> Fraction:
        return self.value(a, b).squared()

    def as_float(self, a, b) -> float:
        return float(self.value(a, b))

    @cached_property
    def floats(self) -> list[list[float]]:
        """float(N(i, j)) by root index as nested lists, 0.0 off the table."""
        nroots = 2 * self.system.npositive
        out = [[0.0] * nroots for _ in range(nroots)]
        for i, j, v in self._entries:
            out[i][j] = float(v)
        return out


def _string_square(rs: RootSystem, i: int, j: int) -> Fraction:
    """N(a,b)^2 from the a-string through b, roots a, b by index; a+b must be a root."""
    roots = rs.all_roots()
    p, q = root_string(rs, roots[i], roots[j])
    return Fraction(q * (1 - p) * rs.inner_at(i, i), 2) * rs.gram_scale


def structure_constants(rs: RootSystem) -> StructureConstants:
    """Build the full signed table by height recursion over positive roots."""
    n = rs.npositive
    add, sub, neg = rs.sum_index, rs.diff_index, rs.neg_index
    coeffs = [r.coeffs for r in rs.all_roots()]
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], Surd] = {}

    def get(x: int, y: int) -> Surd:
        return table.get((coeffs[x], coeffs[y]), _ZERO)

    def insert_closure(eta: int, rho: int, w: Surd):
        # all entries the single positive-pair value w = N(eta, rho) determines:
        # the cyclic rotations of (eta, rho, -xi), each swapped and negated
        nxi = int(neg[add[eta, rho]])
        for x, y in ((eta, rho), (rho, nxi), (nxi, eta)):
            nx, ny = int(neg[x]), int(neg[y])
            for (u, v), val in (((x, y), w), ((y, x), -w), ((nx, ny), -w), ((ny, nx), w)):
                table[coeffs[u], coeffs[v]] = val

    for g, gamma in enumerate(rs.positives):
        if gamma.height == 1:
            continue
        # gamma - a for every a below gamma; b > a keeps one order of each pair
        rest = sub[g, :g]
        pairs = [(int(a), int(rest[a])) for a in np.nonzero((rest > np.arange(g)) & (rest < n))[0]]
        if not pairs:
            raise ConsistencyError(f"{gamma.label} has no decomposition into positive roots")

        a1, b1 = pairs[0]  # extraspecial pair: canonically first component
        w1 = Surd.sqrt(_string_square(rs, a1, b1))
        insert_closure(a1, b1, w1)

        for a, b in pairs[1:]:
            na, nb = int(neg[a]), int(neg[b])
            # cocycle on (a1, b1, -a, -b): every referenced sum is lower height
            val = (get(a1, nb) * get(b1, na) - get(a1, na) * get(b1, nb)) / w1
            if val.squared() != _string_square(rs, a, b):
                raise ConsistencyError(
                    f"derived |N({rs.positives[a].label},{rs.positives[b].label})|"
                    " disagrees with the string formula"
                )
            insert_closure(a, b, val)

    return StructureConstants(system=rs, table=table)


@dataclass
class IdentityReport:
    """Outcome of the exact identity suite for one structure-constant table."""

    system: str
    counts: dict[str, int]
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _triples(nroots: int, cocycle_limit: int | None, seed: int):
    """Blocks (a, b, c), a < b < c, of root-index triples for the cocycle check.

    Triples are unranked from the combinatorial number system, rank =
    C(c, 3) + C(b, 2) + a: every rank below C(nroots, 3) in turn, or
    cocycle_limit ranks drawn uniformly and independently when that is fewer.
    """
    total = comb(nroots, 3)
    sampled = cocycle_limit is not None and cocycle_limit < total
    if sampled and cocycle_limit < 0:
        raise ValueError(f"cocycle_limit must be nonnegative, got {cocycle_limit}")
    rng = np.random.default_rng(seed)
    k = np.arange(nroots)
    choose3, choose2 = k * (k - 1) * (k - 2) // 6, k * (k - 1) // 2
    count = cocycle_limit if sampled else total
    for start in range(0, count, _DRAW_CHUNK):
        size = min(_DRAW_CHUNK, count - start)
        ranks = rng.integers(0, total, size=size) if sampled else np.arange(start, start + size)
        c = np.searchsorted(choose3, ranks, "right") - 1
        ranks = ranks - choose3[c]
        b = np.searchsorted(choose2, ranks, "right") - 1
        yield ranks - choose2[b], b, c


def _cocycle_quads(rs: RootSystem, a, b, c):
    """The (a, b, c, d) among the triples with d = -(a+b+c) a root of index
    above c and no opposite pair among a, b, c."""
    add, neg = rs.sum_index, rs.neg_index
    # a+b+c = e a root has <e, x> > 0 for some x in {a, b, c}, so e - x is a
    # root (or zero, an opposite pair): e is reached through one pair sum
    e = np.full(len(a), -1)
    for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
        xy = add[x, y]
        e = np.maximum(e, np.where(xy >= 0, add[xy, z], -1))
    d = np.where(e >= 0, neg[e], -1)
    keep = (d > c) & (a != neg[b]) & (a != neg[c]) & (b != neg[c])
    return a[keep], b[keep], c[keep], d[keep]


def verify_identities(
    rs: RootSystem,
    sc: StructureConstants,
    *,
    cocycle_limit: int | None = None,
    seed: int = 0,
) -> IdentityReport:
    """Check the defining identities of the table, exactly.

    The four-term cocycle check visits index triples of roots. Without
    cocycle_limit it enumerates all C(n, 3) of them for n roots. With a
    limit below C(n, 3) it checks cocycle_limit triples drawn uniformly and
    independently from the 3-subsets, in one vectorised draw per block of
    draws, deterministic for a given seed; a limit of C(n, 3) or more runs
    the full enumeration. The triples a seed selects differ from those of
    releases that drew one triple at a time.
    """
    counts = {
        "antisymmetry": 0,
        "negation_symmetry": 0,
        "cyclic_rotation": 0,
        "string_square": 0,
        "four_term_cocycle": 0,
        "sign_flip_square": 0,
    }
    failures: list[str] = []
    add, neg = rs.sum_index, rs.neg_index
    coeffs = [r.coeffs for r in rs.all_roots()]
    at = sc.at

    for i, j, v in sc._entries:
        r, s = coeffs[i], coeffs[j]
        counts["antisymmetry"] += 1
        if at(j, i) != -v:
            failures.append(f"antisymmetry at ({r}, {s})")
        counts["negation_symmetry"] += 1
        if at(neg[i], neg[j]) != -v:
            failures.append(f"negation symmetry at ({r}, {s})")
        counts["cyclic_rotation"] += 1
        k = add[i, j]
        if k < 0 or at(j, neg[k]) != v or at(neg[k], i) != v:
            failures.append(f"cyclic rotation at ({r}, {s})")
        counts["string_square"] += 1
        if v.squared() != _string_square(rs, i, j):
            failures.append(f"string square at ({r}, {s})")

    def quad_holds(a, b, c, d) -> bool:
        acc: dict[int, Fraction] = {}
        for t, sgn in (
            (at(a, b) * at(c, d), 1),
            (at(a, c) * at(b, d), -1),
            (at(a, d) * at(b, c), 1),
        ):
            if not t.is_zero:
                acc[t.core] = acc.get(t.core, Fraction(0)) + sgn * t.coeff
        return all(val == 0 for val in acc.values())

    for block in _triples(len(coeffs), cocycle_limit, seed):
        for a, b, c, d in zip(*(x.tolist() for x in _cocycle_quads(rs, *block))):
            counts["four_term_cocycle"] += 1
            if not quad_holds(a, b, c, d):
                failures.append(
                    f"four-term cocycle at ({coeffs[a]}, {coeffs[b]}, {coeffs[c]}, {coeffs[d]})"
                )

    pos = rs.positives
    for i, j in zip(*np.triu_indices(len(pos), 1)):
        counts["sign_flip_square"] += 1
        lhs = at(i, neg[j]).squared()
        rhs = at(i, j).squared() + rs.gram_scale * rs.inner_at(i, j)
        if lhs != rhs:
            failures.append(f"sign flip square at ({pos[i].label}, {pos[j].label})")

    return IdentityReport(system=str(rs.stype), counts=counts, failures=failures)
