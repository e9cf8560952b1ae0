"""Root systems of the simple compact Lie algebras.

Positive roots are stored as integer coefficient vectors over the simple
roots and generated by Cartan-matrix closure; no Euclidean embedding is
exposed. Inner products are exact rationals under a selectable
normalization of the invariant bilinear form. Every number a caller hands
the package is read here, once, where it is made: arrays by number_array,
scalars by check_positive, counts and indices by check_count.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, inf, isqrt, lcm, nan
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConsistencyError, DynkinTypeError, RootStringError

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXACT_RANK = {"F": 4, "G": 2}

_NOT_NUMBERS = (bool, np.bool_, str, bytes)
_REALS = (int, float, np.integer, np.floating)


def number_array(values, size: int | None = None, what: str = "values", dtype=float) -> np.ndarray:
    """values as an array of dtype, float or complex, of shape (size,) if size is given.

    Bools and strings are refused, as the conversion would read them as
    numbers, and for a float dtype complex values, as it would drop their
    imaginary part: ValueError naming what.
    """
    if dtype is float and np.iscomplexobj(values):
        raise ValueError(f"{what} must be real, got complex {np.asarray(values).dtype}")
    # a sequence is read element by element: asarray casts a bool among numbers
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if arr.dtype.kind in "bSU" or (
        arr.dtype.kind == "O" and any(isinstance(v, _NOT_NUMBERS) for v in arr.flat)
    ):
        raise ValueError(f"{what} must be numbers, not bools or strings, got {values!r}")
    arr = np.asarray(arr, dtype=dtype)
    if size is not None and arr.shape != (size,):
        raise ValueError(f"{what} must have length {size}, got shape {arr.shape}")
    return arr


def check_positive(value, name: str = "tol") -> float:
    """value, named name, as a Python float; ValueError unless it is one finite,
    positive real number. Anything but a real scalar is read by number_array."""
    if isinstance(value, _REALS) and not isinstance(value, bool):
        x = float(value)
    else:  # a 0-d array; a sequence is no single number, so it reads as NaN
        arr = number_array(value, what=name)
        x = float(arr) if arr.ndim == 0 else nan
    if not 0.0 < x < inf:  # NaN fails
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return x


def check_count(value, name: str, stop: int | None = None) -> int:
    """value as an int, at least 0 and below stop if given; else ValueError, a bool included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if stop is not None and not 0 <= value < stop:
        raise ValueError(f"{name} {value} out of range")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return int(value)


@dataclass(frozen=True)
class SimpleType:
    """A simple Dynkin type such as SimpleType("D", 4)."""

    family: str
    rank: int

    def __post_init__(self):
        fam = self.family
        if not (isinstance(fam, str) and len(fam) == 1 and fam in "ABCDEFG"):
            raise DynkinTypeError(f"unknown family {fam!r}; expected one of A..G")
        if isinstance(self.rank, bool) or not isinstance(self.rank, int) or self.rank < 1:
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

    @classmethod
    def parse(cls, token: str) -> "SimpleType":
        """A type token such as A2 or d4, surrounding spaces ignored."""
        text = token.strip()
        digits = text[1:]
        if not (digits.isascii() and digits.isdigit()):
            raise DynkinTypeError(f"cannot parse type token {text!r}; expected e.g. A2, D4")
        return cls(text[0].upper(), int(digits))

    @classmethod
    def parse_product(cls, token: str) -> tuple["SimpleType", ...]:
        """The factor types of a product token such as A2xG2, in order; a
        single type token such as A2 is a product of one factor."""
        factors = token.split("x")
        if not all(f.strip() for f in factors):
            raise DynkinTypeError(
                f"product token {token.strip()!r} has an empty factor; expected e.g. A2xG2"
            )
        return tuple(cls.parse(f) for f in factors)


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
        """A member, or its name in any case; anything else is refused with ValueError."""
        try:
            return cls(text.lower())
        except (AttributeError, ValueError):
            raise ValueError(
                f"unknown normalization {text!r}; expected long2, short2 or killing"
            ) from None


@dataclass(frozen=True)
class Root:
    """A root as its integer coefficient vector over the simple roots.

    coeffs is the root itself rather than its positive representative: a
    negative root has nonpositive coefficients, and sign -1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = _integer_tuple(self.coeffs)
        if not any(coeffs) or min(coeffs) < 0 < max(coeffs):
            raise ValueError(f"coefficients {coeffs} of a root mix signs or are all 0")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def sign(self) -> int:
        """+1 for a positive root, -1 for a negative one."""
        return 1 if self.height > 0 else -1

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

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
    """The counts for rank 2d and nposroots positive roots; ValueError unless
    both are integers, d >= 1 and nposroots >= 0, a bool refused."""
    d, nposroots = check_count(d, "d"), check_count(nposroots, "nposroots")
    if d < 1:
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


def _radix_weights(bound: int, rank: int) -> np.ndarray:
    """Weights w with v @ w distinct on distinct integer vectors v whose
    coefficients lie in [-bound, bound] (balanced digits in base 2 bound + 1),
    as object ints when int64 could overflow."""
    base = 2 * bound + 1
    dtype = np.int64 if base**rank < 2**62 else object
    return np.array([base**k for k in range(rank)], dtype=dtype)


def _enumerate_positives(gram_int: np.ndarray) -> np.ndarray:
    """The positive roots as rows of simple-root coefficients, in no set order.

    Starting from the simple roots, each level is reflected by every simple
    reflection at once. s_j keeps every positive root but a_j positive, and
    every positive root but a simple one has a simple reflection that lowers
    its height, so the positive images reach every positive root."""
    rank = len(gram_int)
    diag, eye = np.diag(gram_int), np.eye(rank, dtype=np.int64)
    level = known = eye
    while len(level):
        pairing = 2 * (level @ gram_int)
        bad = np.nonzero((pairing % diag).any(axis=1))[0]
        if len(bad):
            raise ConsistencyError(
                f"non-integer Cartan pairing for {tuple(level[bad[0]].tolist())}"
            )
        # row r * rank + j is s_j applied to level[r]
        images = (level[:, None, :] - (pairing // diag)[:, :, None] * eye).reshape(-1, rank)
        found = np.concatenate([known, images[images.sum(axis=1) > 0]])
        keys = found @ _radix_weights(int(np.abs(found).max()), rank)
        _, first = np.unique(keys, return_index=True)
        level = found[first[first >= len(known)]]
        known = np.concatenate([known, level])
    return known


_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _integer_tuple(values) -> tuple[int, ...]:
    """values as a tuple of Python ints, numpy integers included; ValueError
    naming the first bool or non-integer among them."""
    out = tuple(values)
    if all(type(c) is int for c in out):
        return out
    for bad in out:
        if isinstance(bad, bool) or not isinstance(bad, (int, np.integer)):
            raise ValueError(f"coefficients {out} of a root must be integers, got {bad!r}")
    return tuple(map(int, out))


def _coeffs(x) -> tuple[int, ...]:
    return x.coeffs if isinstance(x, Root) else _integer_tuple(x)


def _key_matches(keys: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (p, q) listing, for each p in turn, every q with keys[q] ==
    targets[p], in increasing q."""
    order = np.argsort(keys, kind="stable")
    lo = np.searchsorted(keys[order], targets, "left")
    size = np.searchsorted(keys[order], targets, "right") - lo
    p = np.repeat(np.arange(len(targets)), size)
    q = order[np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - lo, size)]
    return p, q


def _match_pair_sums(rs: "RootSystem") -> np.ndarray:
    """RootSystem.positive_quads, by matching the keys of positive pair sums."""
    i, j = np.triu_indices(rs.npositive, 1)
    pair_keys = rs._keys[i] + rs._keys[j]
    # pairs sharing a sum are disjoint
    p, q = _key_matches(pair_keys, pair_keys)
    p, q = p[p != q], q[p != q]
    return np.stack([i[p], j[p], i[q], j[q]], axis=1)


def _find_positive_sums(rs: "RootSystem") -> np.ndarray:
    """RootSystem.positive_sums, read off sum_index."""
    n = rs.npositive
    i, j = np.nonzero(np.triu(rs.sum_index[:n, :n] >= 0, 1))
    return np.stack([i, j, rs.sum_index[i, j]])


def _list_zero_sum_quads(rs: "RootSystem") -> np.ndarray:
    """RootSystem.zero_sum_quads, from positive_quads and positive triples."""
    n = rs.npositive
    # x < y < z with x + y + z = w: some pair of them sums to a root, so each
    # triple is found once per such pair, from x + y, x + z or y + z
    i, j, k = rs.positive_sums()
    pair, z = np.nonzero(rs.sum_index[k, :n] >= 0)
    keep = (z != i[pair]) & (z != j[pair])
    pair, z = pair[keep], z[keep]
    w = rs.sum_index[k[pair], z]
    triples = np.sort(np.stack([i[pair], j[pair], z], axis=1), axis=1)
    _, first = np.unique((triples[:, 0] * n + triples[:, 1]) * n + triples[:, 2],
                         return_index=True)
    (x, y, z), w = triples[first].T, w[first]
    quads = rs.positive_quads()
    rows = np.concatenate([
        np.stack([quads[:, 0], quads[:, 1], n + quads[:, 2], n + quads[:, 3]], axis=1),
        np.stack([x, y, z, n + w], axis=1),
        np.stack([w, n + x, n + y, n + z], axis=1),
    ])
    size = 2 * n
    return rows[np.argsort((rows[:, 2] * size + rows[:, 1]) * size + rows[:, 0])]


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Root data plus its combinatorics, compiled once at construction.

    Root indices run over all_roots(): positives[i] is index i, its negative
    npositive + i. Exact integer tables: gram == gram_scale * gram_int;
    inner_int, positive-pair inner products in units of gram_scale;
    sum_index[i, j] and diff_index[i, j], the index of root i + root j and
    of root i - root j, or -1 for a non-root; neg_index[i], the index of
    -(root i). Float views: gram_float and coefficient_matrix (positive
    roots by simple-root coefficients). Tables that only some callers read,
    such as the quad tables, are built on first use and kept with the
    system. Every array is read-only, as build_root_system shares one
    instance among its callers.
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
        # Radix keys: key(a + b) = key(a) + key(b), and with m the largest root
        # coefficient, two vectors with coefficients in [-2m, 2m], such as sums
        # of two roots, share a key only when equal.
        weights = _radix_weights(2 * int(np.abs(pos).max()), rank)
        keys = np.concatenate([pos @ weights, -(pos @ weights)])
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        # a positive root plus each root in key order: searchsorted is fast on
        # sorted rows
        sums = keys[:n, None] + ordered
        at = np.searchsorted(ordered, sums).clip(max=2 * n - 1)
        upper = np.empty((n, 2 * n), dtype=np.intp)
        upper[:, order] = np.where(ordered[at] == sums, order[at], -1)
        neg = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
        # -a + b = -(a + (-b)), so the rows of the negative roots follow
        sum_index = np.concatenate([upper, np.append(neg, -1)[upper][:, neg]])
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
            ("_tables", {}),
        ):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
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

    def positive_sums(self) -> np.ndarray:
        """Rows (i, j, k), i < j, with positives[i] + positives[j] = positives[k],
        each in row-major order of (i, j); read-only, found once per system."""
        return self._cached("positive_sums", _find_positive_sums)

    def _cached(self, name: str, build) -> np.ndarray:
        """The read-only array build(self), built on the first call for name
        and kept with the system from then on."""
        table = self._tables.get(name)
        if table is None:
            table = self._tables[name] = build(self)
            table.flags.writeable = False
        return table

    def positive_quads(self) -> np.ndarray:
        """Rows (i, j, m, l) of positive indices, i < j and m < l, with
        positives[i] + positives[j] = positives[m] + positives[l] and
        {i, j} != {m, l}, sorted by (i, j, m); read-only, matched once per
        system."""
        return self._cached("positive_quads", _match_pair_sums)

    def zero_sum_quads(self) -> np.ndarray:
        """Rows (a, b, c, d) of root indices, a < b < c < d, whose roots sum to
        zero with no opposite pair among them, sorted by (c, b, a); read-only,
        listed once per system.

        Such a quad holds two positive roots, one row of positive_quads, or
        three positive roots summing to a positive one, or the negation."""
        return self._cached("zero_sum_quads", _list_zero_sum_quads)

    def is_root(self, coeffs: Sequence[int]) -> bool:
        return tuple(coeffs) in self._index

    def root(self, coeffs: Sequence[int]) -> Root:
        coeffs = tuple(coeffs)
        if not self.is_root(coeffs):
            raise ValueError(f"{coeffs} is not a root of {self.stype}")
        return Root(coeffs)

    def all_roots(self) -> tuple[Root, ...]:
        return self._roots


class FactorLayout:
    """Where each factor's coordinates sit on the shared torus of a product.

    Factor f owns slices[f], its rank coordinates following those of the
    factors before it; size is the total rank. Torus vectors, block-diagonal
    torus matrices and flow states all use this layout.

    The whole product reads like one root system: coefficient_matrix stacks
    every factor's positive roots embedded in torus coordinates, factor f's
    in rows row_slices[f], and gram_float is the block-diagonal gram matrix;
    both are read-only.
    """

    def __init__(self, systems: Sequence[RootSystem]):
        self.systems = tuple(systems)
        ends = list(accumulate((rs.rank for rs in self.systems), initial=0))
        self.slices = tuple(slice(a, b) for a, b in zip(ends, ends[1:]))
        self.size = ends[-1]
        rows = list(accumulate((rs.npositive for rs in self.systems), initial=0))
        self.row_slices = tuple(slice(a, b) for a, b in zip(rows, rows[1:]))
        self.coefficient_matrix = np.concatenate(
            [self.embed(f, rs.coefficient_matrix) for f, rs in enumerate(self.systems)]
        )
        self.gram_float = self.blockdiag(rs.gram_float for rs in self.systems)
        for m in (self.coefficient_matrix, self.gram_float):
            m.flags.writeable = False

    @classmethod
    def of(cls, arg) -> "FactorLayout":
        """The layout of a RootSystem, a sequence of them, a group or a layout."""
        if isinstance(arg, FactorLayout):
            return arg
        if isinstance(arg, RootSystem):
            return cls([arg])
        if hasattr(arg, "layout"):  # a GroupSpec
            return arg.layout
        return cls(arg)

    def locate(self, index: int, rows: bool = False) -> tuple[int, int]:
        """The factor owning a torus coordinate, or with rows a row of
        coefficient_matrix, and the index within that factor; ValueError on
        an index that is a bool or not an integer, IndexError on one outside
        the layout."""
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise ValueError(f"layout index must be an integer, got {index!r}")
        index = int(index)
        for f, sl in enumerate(self.row_slices if rows else self.slices):
            if sl.start <= index < sl.stop:
                return f, index - sl.start
        raise IndexError(f"index {index} is outside the layout")

    def embed(self, factor: int, coeffs) -> np.ndarray:
        """A torus vector that is coeffs on the factor's block and zero elsewhere;
        a matrix of coeffs embeds row by row."""
        v = np.zeros(np.shape(coeffs)[:-1] + (self.size,))
        v[..., self.slices[factor]] = coeffs
        return v

    def blockdiag(self, blocks) -> np.ndarray:
        """The (size, size) matrix with one rank x rank block per factor."""
        blocks = list(blocks)
        if len(blocks) != len(self.systems):
            raise ValueError(
                f"need one torus block per factor ({len(self.systems)}), got {len(blocks)}"
            )
        out = np.zeros((self.size, self.size))
        for f, (rs, sl, block) in enumerate(zip(self.systems, self.slices, blocks)):
            block = number_array(block, what=f"torus block {f}")
            if block.shape != (rs.rank, rs.rank):
                raise ValueError(
                    f"torus block of factor {f} ({rs.stype}) must be"
                    f" {rs.rank}x{rs.rank}, got shape {block.shape}"
                )
            out[sl, sl] = block
        return out


# the RootSystem of each (SimpleType, Normalization) that something still holds
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def build_root_system(stype: SimpleType, norm: Normalization = Normalization.LONG2) -> RootSystem:
    """The root system of stype under norm, a Normalization or its name.

    While any caller holds the system built for (stype, norm), every build
    returns that same read-only instance; once the last holder drops it, it
    is freed and the next build enumerates the roots again. An unknown
    normalization is refused with ValueError.
    """
    norm = Normalization.parse(norm)
    rs = _LIVE.get((stype, norm))
    if rs is None:
        rs = _LIVE[stype, norm] = _build_root_system(stype, norm)
    return rs


def _build_root_system(stype: SimpleType, norm: Normalization) -> RootSystem:
    """Enumerate the positive roots of stype and attach the requested gram matrix."""
    gram2 = _gram_long2(stype)
    gram2_int, scale2 = _integer_gram(gram2)
    pos = _enumerate_positives(gram2_int)
    expected = _POSITIVE_COUNTS[stype.family](stype.rank)
    if len(pos) != expected:
        raise ConsistencyError(
            f"{stype}: enumerated {len(pos)} positive roots, expected {expected}"
        )
    heights = pos.sum(axis=1)
    # by height, then coefficient by coefficient
    order = np.lexsort((*pos.T[::-1], heights))
    pos, heights = pos[order], heights[order]
    if len(heights) > 1 and heights[-2] == heights[-1]:
        raise ConsistencyError(f"{stype}: maximal root is not unique")
    positives = tuple(Root(tuple(c)) for c in pos.tolist())

    if norm is Normalization.SHORT2:
        scale = Fraction(2) / min(gram2[i][i] for i in range(stype.rank))
    elif norm is Normalization.KILLING:
        scale = _killing_constant(gram2_int, scale2, pos)
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


def string_steps(rs: RootSystem, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(down, up) per pair of index arrays a, b into all_roots(): b + n a is a
    root for -down <= n <= up. Raises ConsistencyError naming the first pair
    whose down - up is not the Cartan integer 2<b, a> / <a, a>."""
    n, g = rs.npositive, rs.inner_int
    up, down = np.zeros(len(a), dtype=np.int64), np.zeros(len(a), dtype=np.int64)
    for steps, step in ((up, rs.sum_index), (down, rs.diff_index)):
        k = step[b, a]  # strings hold at most 4 roots
        while (k >= 0).any():
            steps += k >= 0
            k = np.where(k >= 0, step[k, a], -1)
    inner_ba = np.where((a < n) == (b < n), 1, -1) * g[b % n, a % n]
    bad = np.flatnonzero((down - up) * g[a % n, a % n] != 2 * inner_ba)
    if bad.size:
        x, y = (rs.all_roots()[v[bad[0]]].label for v in (a, b))
        raise ConsistencyError(f"string length mismatch for ({x}, {y})")
    return down, up


def root_string(rs: RootSystem, alpha: Root, beta: Root) -> RootString:
    """The maximal progression beta + n*alpha inside the root set, p <= n <= q."""
    if beta.coeffs == alpha.coeffs or beta.coeffs == (-alpha).coeffs:
        raise RootStringError(f"string through {beta.label} along {alpha.label} is undefined")
    (down,), (up,) = string_steps(rs, np.array([rs.index_of(alpha)]), np.array([rs.index_of(beta)]))
    return RootString(p=-int(down), q=int(up))
