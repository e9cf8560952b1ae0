"""Root systems of the simple compact Lie algebras.

Positive roots are stored as integer coefficient vectors over the simple
roots and generated by Cartan-matrix closure; no Euclidean embedding is
exposed. Inner products are exact rationals under a selectable
normalization of the invariant bilinear form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConsistencyError, DynkinTypeError, RootStringError

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXACT_RANK = {"F": 4, "G": 2}


@dataclass(frozen=True)
class SimpleType:
    """A simple Dynkin type such as SimpleType("D", 4)."""

    family: str
    rank: int

    def __post_init__(self):
        fam = self.family
        if not (isinstance(fam, str) and len(fam) == 1 and fam in "ABCDEFG"):
            raise DynkinTypeError(f"unknown family {fam!r}; expected one of A..G")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise DynkinTypeError(f"rank must be a positive integer, got {self.rank!r}")
        if fam == "E":
            if self.rank not in (6, 7, 8):
                raise DynkinTypeError("E requires rank ∈ {6, 7, 8}")
        elif fam in _EXACT_RANK:
            if self.rank != _EXACT_RANK[fam]:
                raise DynkinTypeError(f"{fam} requires rank {_EXACT_RANK[fam]}")
        elif self.rank < _MIN_RANK[fam]:
            raise DynkinTypeError(f"{fam} requires rank ≥ {_MIN_RANK[fam]}")

    def __str__(self):
        return f"{self.family}{self.rank}"


class Normalization(str, enum.Enum):
    """Scaling convention for the invariant inner product on roots.

    long2: long roots have squared length 2 (default).
    short2: short roots have squared length 2.
    killing: the exact dual Killing form, computed rather than table-driven.
    """

    LONG2 = "long2"
    SHORT2 = "short2"
    KILLING = "killing"

    @classmethod
    def parse(cls, text: str) -> "Normalization":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown normalization {text!r}; expected long2, short2 or killing"
            ) from None


@dataclass(frozen=True)
class Root:
    """A root as its integer coefficient vector over the simple roots.

    Negative roots carry nonpositive coefficients and sign -1, so coeffs is
    always the root itself rather than its positive representative.
    """

    coeffs: tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if all(c == 0 for c in self.coeffs) or any(c * self.sign < 0 for c in self.coeffs):
            raise ValueError(f"coefficients {self.coeffs} do not match sign {self.sign:+d}")

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs), -self.sign)

    @property
    def positive(self) -> "Root":
        return self if self.sign > 0 else -self

    @property
    def label(self) -> str:
        terms = []
        for i, c in enumerate(self.positive.coeffs):
            if c:
                terms.append(f"a{i + 1}" if c == 1 else f"{c}a{i + 1}")
        body = "+".join(terms)
        return body if self.sign > 0 else f"-({body})"

    def __str__(self):
        return self.label


class RootString(NamedTuple):
    """Extent of the arithmetic progression beta + n*alpha inside the root set."""

    p: int  # lowest n, always <= 0
    q: int  # highest n, always >= 0


class ModuliDimensions(NamedTuple):
    """Dimension counts of the invariant-structure moduli, rank = 2d."""

    metrics: int
    complex_structures: int
    hermitian_for_fixed_complex: int
    complex_for_fixed_metric: int
    hermitian_pairs: int


def moduli_dimensions(d: int, nposroots: int) -> ModuliDimensions:
    if d < 1 or nposroots < 0:
        raise ValueError("need d >= 1 and nposroots >= 0")
    return ModuliDimensions(
        metrics=d * (d + 1) // 2 + nposroots,
        complex_structures=2 * d * d,
        hermitian_for_fixed_complex=d * d + nposroots,
        complex_for_fixed_metric=d * (d - 1),
        hermitian_pairs=3 * d * d + nposroots,
    )


def _diagram(stype: SimpleType):
    """Squared lengths (long roots = 2) and weighted edges of the Dynkin diagram."""
    n = stype.rank
    two = Fraction(2)
    one = Fraction(1)
    if stype.family == "A":
        return [two] * n, [(i, i + 1, 1) for i in range(n - 1)]
    if stype.family == "B":
        # last node short
        return [two] * (n - 1) + [one], [(i, i + 1, 1) for i in range(n - 2)] + [(n - 2, n - 1, 2)]
    if stype.family == "C":
        # last node long
        return [one] * (n - 1) + [two], [(i, i + 1, 1) for i in range(n - 2)] + [(n - 2, n - 1, 2)]
    if stype.family == "D":
        # fork at node n-3 (0-based)
        return [two] * n, [(i, i + 1, 1) for i in range(n - 2)] + [(n - 3, n - 1, 1)]
    if stype.family == "E":
        # Bourbaki numbering: node 1 is the branch, attached to node 3
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2]
        return [two] * n, [(i, j, 1) for i, j in chain] + [(1, 3, 1)]
    if stype.family == "F":
        return [two, two, one, one], [(0, 1, 1), (1, 2, 2), (2, 3, 1)]
    # G2, first node short
    return [Fraction(2, 3), two], [(0, 1, 3)]


def _sqrt_fraction(q: Fraction) -> Fraction:
    num, den = isqrt(q.numerator), isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        raise ConsistencyError(f"expected {q} to be a perfect rational square")
    return Fraction(num, den)


def _gram_long2(stype: SimpleType) -> list[list[Fraction]]:
    lengths, edges = _diagram(stype)
    n = stype.rank
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = lengths[i]
    for i, j, mult in edges:
        # <a_i,a_j> = -sqrt(mult * |a_i|^2 |a_j|^2) / 2, rational on every valid diagram
        val = -_sqrt_fraction(Fraction(mult) * lengths[i] * lengths[j] / 4)
        gram[i][j] = gram[j][i] = val
    return gram


def _integer_gram(gram) -> tuple[np.ndarray, Fraction]:
    """Split a rational gram matrix as scale * integer matrix, entries coprime."""
    denom = lcm(*(v.denominator for row in gram for v in row))
    ints = [[v.numerator * (denom // v.denominator) for v in row] for row in gram]
    common = gcd(*(v for row in ints for v in row))
    return np.array(ints, dtype=np.int64) // common, Fraction(common, denom)


def _enumerate_positives(stype: SimpleType, gram_int: np.ndarray) -> list[tuple[int, ...]]:
    """Positive part of the orbit of the simple roots under the simple reflections."""
    n, g = stype.rank, gram_int.tolist()
    known = {tuple(int(i == j) for i in range(n)) for j in range(n)}
    level = list(known)
    while level:
        nxt = []
        for coeffs in level:
            for j in range(n):
                pairing = 2 * sum(c * g[i][j] for i, c in enumerate(coeffs) if c)
                if pairing % g[j][j]:
                    raise ConsistencyError(f"non-integer Cartan pairing for {coeffs}")
                image = list(coeffs)
                image[j] -= pairing // g[j][j]
                if tuple(image) not in known:
                    known.add(tuple(image))
                    nxt.append(tuple(image))
        level = nxt
    return [c for c in known if sum(c) > 0]


_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _coeffs(x) -> tuple[int, ...]:
    return x.coeffs if isinstance(x, Root) else tuple(x)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Root data plus its combinatorics, compiled once at construction.

    Root indices run over all_roots(): positives[i] is index i, its negative
    npositive + i. Exact integer tables: gram == gram_scale * gram_int;
    inner_int, positive-pair inner products in units of gram_scale;
    sum_index[i, j] and diff_index[i, j], the index of root i + root j and
    of root i - root j, or -1 for a non-root; neg_index[i], the index of
    -(root i). Float views: gram_float and coefficient_matrix (positive
    roots by simple-root coefficients).
    """

    stype: SimpleType
    normalization: Normalization
    simples: tuple[Root, ...]
    positives: tuple[Root, ...]  # sorted by (height, coefficients)
    gram: tuple[tuple[Fraction, ...], ...]
    maximal_root: Root

    def __post_init__(self):
        n, rank = len(self.positives), self.stype.rank
        pos = np.array([r.coeffs for r in self.positives], dtype=np.int64).reshape(n, rank)
        roots = self.positives + tuple(-r for r in self.positives)
        gram_int, scale = _integer_gram(self.gram)
        # Radix keys with balanced digits: key(a + b) = key(a) + key(b), and with m
        # the largest root coefficient, two vectors with coefficients in
        # [-2m, 2m], such as sums of two roots, share a key only when equal.
        base = 4 * int(np.abs(pos).max()) + 1
        dtype = np.int64 if base**rank < 2**62 else object
        weights = np.array([base**k for k in range(rank)], dtype=dtype)
        keys = np.concatenate([pos @ weights, -(pos @ weights)])
        order = np.argsort(keys, kind="stable")
        sums = keys[:, None] + keys[None, :]
        at = np.searchsorted(keys[order], sums).clip(max=2 * n - 1)
        sum_index = np.where(keys[order][at] == sums, order[at], -1).astype(np.intp)
        neg = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
        for name, value in (
            ("_roots", roots),
            ("_index", {r.coeffs: i for i, r in enumerate(roots)}),
            ("_keys", keys),
            ("gram_float", np.array(self.gram, dtype=float)),
            ("coefficient_matrix", pos.astype(float)),
            ("gram_int", gram_int),
            ("gram_scale", scale),
            ("inner_int", pos @ gram_int @ pos.T),
            ("sum_index", sum_index),
            ("diff_index", sum_index[:, neg]),
            ("neg_index", neg),
        ):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return self.stype.rank

    @property
    def npositive(self) -> int:
        return len(self.positives)

    def index_of(self, root) -> int:
        """Index of a Root or coefficient vector in all_roots()."""
        coeffs = _coeffs(root)
        try:
            return self._index[coeffs]
        except KeyError:
            raise ValueError(f"{coeffs} is not a root of {self.stype}") from None

    def inner_at(self, i: int, j: int) -> int:
        """Inner product of roots i and j in units of gram_scale."""
        n = self.npositive
        value = int(self.inner_int[i % n, j % n])
        return -value if (i < n) != (j < n) else value

    def inner(self, a, b) -> Fraction:
        cb = np.array(_coeffs(b), dtype=np.int64)
        return self.gram_scale * int(np.dot(_coeffs(a), self.gram_int @ cb))

    def cartan_integer(self, a, b) -> int:
        val = 2 * self.inner(a, b) / self.inner(b, b)
        if val.denominator != 1:
            raise ConsistencyError(f"non-integer Cartan number for {a}, {b}")
        return int(val)

    def positive_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (i, j, k), i < j, with positives[i] + positives[j] = positives[k],
        in row-major order of (i, j)."""
        n = self.npositive
        i, j = np.nonzero(np.triu(self.sum_index[:n, :n] >= 0, 1))
        return i, j, self.sum_index[i, j]

    def positive_quads(self) -> np.ndarray:
        """Rows (i, j, m, l) of positive indices, i < j and m < l, with
        positives[i] + positives[j] = positives[m] + positives[l] and
        {i, j} != {m, l}, sorted by (i, j, m)."""
        i, j = np.triu_indices(self.npositive, 1)
        pair_keys = self._keys[i] + self._keys[j]
        # pairs sharing a sum are disjoint, and a stable sort keeps them by i
        order = np.argsort(pair_keys, kind="stable")
        lo = np.searchsorted(pair_keys[order], pair_keys, "left")
        size = np.searchsorted(pair_keys[order], pair_keys, "right") - lo
        p = np.repeat(np.arange(len(pair_keys)), size)
        q = order[np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - lo, size)]
        p, q = p[p != q], q[p != q]
        return np.stack([i[p], j[p], i[q], j[q]], axis=1)

    def is_root(self, coeffs: Sequence[int]) -> bool:
        return tuple(coeffs) in self._index

    def root(self, coeffs: Sequence[int]) -> Root:
        coeffs = tuple(coeffs)
        if not self.is_root(coeffs):
            raise ValueError(f"{coeffs} is not a root of {self.stype}")
        return Root(coeffs, 1 if sum(coeffs) > 0 else -1)

    def positive_index(self, root: Root) -> int:
        return self._index[root.positive.coeffs]

    def all_roots(self) -> tuple[Root, ...]:
        return self._roots


def build_root_system(stype: SimpleType, norm: Normalization = Normalization.LONG2) -> RootSystem:
    """Enumerate the positive roots of stype and attach the requested gram matrix."""
    gram2 = _gram_long2(stype)
    gram2_int, scale2 = _integer_gram(gram2)
    coeff_list = _enumerate_positives(stype, gram2_int)
    expected = _POSITIVE_COUNTS[stype.family](stype.rank)
    if len(coeff_list) != expected:
        raise ConsistencyError(
            f"{stype}: enumerated {len(coeff_list)} positive roots, expected {expected}"
        )
    coeff_list.sort(key=lambda c: (sum(c), c))
    positives = tuple(Root(c) for c in coeff_list)
    top_height = positives[-1].height
    if sum(1 for r in positives if r.height == top_height) != 1:
        raise ConsistencyError(f"{stype}: maximal root is not unique")

    if norm is Normalization.SHORT2:
        scale = Fraction(2) / min(gram2[i][i] for i in range(stype.rank))
    elif norm is Normalization.KILLING:
        scale = _killing_constant(gram2_int, scale2, np.array(coeff_list, dtype=np.int64))
    else:
        scale = Fraction(1)
    gram = tuple(tuple(scale * v for v in row) for row in gram2)
    return RootSystem(
        stype=stype,
        normalization=norm,
        simples=tuple(
            Root(tuple(int(i == j) for i in range(stype.rank)))
            for j in range(stype.rank)
        ),
        positives=positives,
        gram=gram,
        maximal_root=positives[-1],
    )


def _killing_constant(gram_int: np.ndarray, scale: Fraction, pos: np.ndarray) -> Fraction:
    """c with c * scale * gram_int the dual Killing form, from the self-consistency
    identity <a,a> = sum over all roots g of <g,a>^2 on each simple root a."""
    pairings = pos @ gram_int  # <positive root, simple root j> / scale
    totals = 2 * (pairings**2).sum(axis=0)  # both root signs
    values = {
        Fraction(int(gram_int[j, j]), int(totals[j])) / scale for j in range(len(gram_int))
    }
    if len(values) != 1:
        raise ConsistencyError("normalization constant differs across simple roots")
    return values.pop()


def killing_normalization_constant(rs: RootSystem) -> Fraction:
    """The exact c such that c * rs.gram is the dual Killing inner product.

    Computed from the self-consistency identity, never from tables; equals 1
    when rs is already in killing normalization.
    """
    return _killing_constant(rs.gram_int, rs.gram_scale, rs.coefficient_matrix.astype(np.int64))


def root_string(rs: RootSystem, alpha: Root, beta: Root) -> RootString:
    """The maximal progression beta + n*alpha inside the root set, p <= n <= q."""
    if beta.coeffs == alpha.coeffs or beta.coeffs == (-alpha).coeffs:
        raise RootStringError(f"string through {beta.label} along {alpha.label} is undefined")
    i, j = rs.index_of(alpha), rs.index_of(beta)
    q, k = 0, rs.sum_index[j, i]
    while k >= 0:
        q, k = q + 1, rs.sum_index[k, i]
    down, k = 0, rs.diff_index[j, i]
    while k >= 0:
        down, k = down + 1, rs.diff_index[k, i]
    if (down - q) * rs.inner_at(i, i) != 2 * rs.inner_at(j, i):
        raise ConsistencyError(f"string length mismatch for ({alpha.label}, {beta.label})")
    return RootString(p=-down, q=q)
