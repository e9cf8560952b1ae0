"""Complexified basis of a product of simple algebras and invariant forms on it.

The exterior derivative here is the plain Lie-algebra cochain differential
driven by the bracket table alone, so it serves as an independent numerical
oracle for every closed-form expression elsewhere in the package.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteComponentError
from .roots import FactorLayout, RootSystem, check_count, number_array
from .structure import StructureConstants

BracketTerms = tuple[tuple[int, complex], ...]

# Rows of an exterior-derivative plan built, or replayed, at once. A block of
# the build holds whole bracket terms, so a term with more rows than this gets
# a block of its own.
_BLOCK_ROWS = 1 << 12
# exterior-derivative plans kept per basis and degree, the oldest dropped first
_PLANS_PER_DEGREE = 2


class DerivativePlan(NamedTuple):
    """exterior_derivative on one key set: per row, in row order, the
    component it reads (src), its signed bracket coefficient as an index into
    the values of the basis' signed_coefficients (coef) and its output slot
    (slot), and the merged key of each slot, in first-touch order. The row
    arrays hold the smallest unsigned integers that fit: on E7's d^c omega,
    5 bytes per row."""

    src: np.ndarray
    coef: np.ndarray
    slot: np.ndarray
    keys: np.ndarray  # int32, (slots, degree + 1)


def _index_type(n: int) -> np.dtype:
    """The smallest unsigned integer type that holds the indices of n items."""
    return np.min_scalar_type(max(n - 1, 0))


class DcTable(NamedTuple):
    """The metric-free part of d^c omega, in dc_form's component order: per
    factor, each positive root's torus components (root, then torus
    coordinate), then its root triples (eta, theta, -xi) and (-eta, -theta,
    xi), eta + theta = xi, interleaved per sum and each sorted by basis
    element. keys lists every torus candidate (a, e, e + 1), with torus their
    positions in the row-major order of g_T k over the stacked positive
    roots; triple holds the triple rows' positions, with triple_terms'
    stacked fiber positions, -1j * sign factors and d^c coefficients."""

    keys: np.ndarray  # int32, (candidates, 3)
    torus: np.ndarray
    triple: np.ndarray
    fiber: np.ndarray
    ysign: np.ndarray
    dc_coef: np.ndarray


class ChevalleyBasis:
    """Ordered basis: all torus directions first, then (E_+, E_-) per positive root.

    Torus indices are global across factors; fiber indices are grouped by
    factor, in the order of layout, the group's own. pair_of, read-only int32,
    holds at m the global index of the positive-root pair {E_a, E_-a} holding
    element m, or -1 at a torus element. Brackets between factors vanish.

    The bracket table is held as read-only arrays, bracket_arrays, with
    bracket_starts the first row of each key (i, j); the dict behind
    bracket() and nonzero_brackets() and the descriptors are built from
    them on first use. The basis also keeps what depends on it alone:
    exterior_derivative's plans, at most _PLANS_PER_DEGREE per degree, and
    dc_form's table.
    """

    def __init__(self, layout: FactorLayout, constants: Sequence[StructureConstants]):
        self.layout = layout
        self.factors = list(zip(layout.systems, constants))
        size = layout.size
        # the element of stacked positive row t is size + 2t, and size + 2t + 1 for -a
        self.dim = size + 2 * layout.row_slices[-1].stop
        self.pair_of = ((np.arange(self.dim, dtype=np.int32) - size) // 2).clip(min=-1)
        self.pair_of.flags.writeable = False
        self.bracket_arrays = self._bracket_arrays()
        i, j = self.bracket_arrays[:2]
        new = np.ones(len(i), dtype=bool)
        new[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
        self.bracket_starts = np.flatnonzero(new)
        self._plans: dict[int, dict[bytes, DerivativePlan]] = {}

    @cached_property
    def signed_coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct values of +-c over the bracket table, sorted, and per
        row of bracket_arrays the index of +c and of -c among them."""
        c = self.bracket_arrays[3]
        values, index = np.unique(np.concatenate([c, -c]), return_inverse=True)
        index = index.astype(_index_type(len(values)))
        return values, index[: len(c)], index[len(c) :]

    @cached_property
    def dc_table(self) -> DcTable:
        """dc_form's table."""
        r = self.layout.size
        keys, parts = [], []
        for f, ((rs, sc), rows) in enumerate(zip(self.factors, self.layout.row_slices)):
            n = rs.npositive
            e = np.repeat(self.element_index(f, np.arange(n)), r)
            keys.append(np.stack([np.tile(np.arange(r), n), e, e + 1], axis=1))
            eta, theta, xi = rs.positive_sums()
            rts = np.stack([eta, theta, n + xi, n + eta, n + theta, xi], axis=1).reshape(-1, 3)
            elems = self.element_index(f, rts)
            order = np.argsort(elems, axis=1)
            keys.append(np.take_along_axis(elems, order, axis=1))
            fiber, ysign, _, dc_coef = triple_terms(rs, sc, np.take_along_axis(rts, order, axis=1))
            parts.append((rows.start + fiber, ysign, dc_coef))
        sizes = np.array([len(k) for k in keys])
        at = [np.arange(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
        return DcTable(
            np.concatenate(keys).astype(np.int32),
            np.concatenate(at[0::2]),
            np.concatenate(at[1::2]),
            *(np.concatenate(col) for col in zip(*parts)),
        )

    def derivative_plan(self, keys: np.ndarray) -> DerivativePlan:
        """exterior_derivative's plan for keys, the (n, degree) int32 keys of
        the nonzero components in order: cached by degree and key bytes, and
        built on a miss, dropping the oldest plan of the degree if full."""
        plans = self._plans.setdefault(keys.shape[1], {})
        tag = keys.tobytes()
        plan = plans.get(tag)
        if plan is None:
            plan = _build_plan(self, keys)
            if len(plans) >= _PLANS_PER_DEGREE:
                del plans[next(iter(plans))]
            plans[tag] = plan
        return plan

    @cached_property
    def descriptors(self) -> list[tuple]:
        """("H", factor, j) per torus element, then ("E", factor, root) per fiber element."""
        out = [("H", f, j) for f, (rs, _) in enumerate(self.factors) for j in range(rs.rank)]
        for f, (rs, _) in enumerate(self.factors):
            for root in rs.positives:
                out += [("E", f, root), ("E", f, -root)]
        return out

    @cached_property
    def element_names(self) -> tuple[str, ...]:
        """Each element's name in a scan witness: H_j, with j counted from 1
        within its factor, or "factor f: " and the root's label."""
        return tuple(
            f"H_{dd[2] + 1}" if dd[0] == "H" else f"factor {dd[1]}: {dd[2].label}"
            for dd in self.descriptors
        )

    def element_index(self, factor: int, i):
        """Basis position of E for the root with index i in the factor's
        all_roots(), or of each in an integer array; ValueError on a factor
        or a root index outside the basis."""
        f = check_count(factor, "factor index", len(self.factors))
        n = self.factors[f][0].npositive
        i = np.asarray(i)
        if i.dtype.kind not in "iu" or ((i < 0) | (i >= 2 * n)).any():
            raise ValueError(f"root index {i} of factor {f} is not an integer in [0, {2 * n})")
        return self.layout.size + 2 * (self.layout.row_slices[f].start + i % n) + (i >= n)

    def _bracket_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero [X_i, X_j], i < j, one row per term [X_i, X_j] ∋ c X_m,
        as arrays (i, j, m, c) sorted by (i, j, m), from the root tables:
        [H_a, E_r] = <r, a> E_r, [E_r, E_-r] = sum of r's coefficients times H,
        and [E_r, E_s] = N(r, s) E_(r+s)."""
        cols = []
        for f, (rs, sc) in enumerate(self.factors):
            n, torus, scale = rs.npositive, self.layout.slices[f].start, rs.gram_scale
            elem = self.element_index(f, np.arange(2 * n))
            simple = [rs.index_of(s) for s in rs.simples]
            inner = np.concatenate([rs.inner_int[:, simple], -rs.inner_int[:, simple]])
            a, r = np.nonzero(inner.T)
            # rounds like float(gram_scale * inner): both integers are exact floats
            cols.append((torus + a, elem[r], elem[r],
                         (scale.numerator * inner[r, a]) / scale.denominator))
            t, k = np.nonzero(rs.coefficient_matrix)
            cols.append((elem[t], elem[n + t], torus + k, rs.coefficient_matrix[t, k]))
            r, s = np.nonzero(rs.sum_index >= 0)
            keep = elem[r] < elem[s]
            r, s = r[keep], s[keep]
            cols.append((elem[r], elem[s], elem[rs.sum_index[r, s]], sc.float_array[r, s]))
        i, j, m, c = (np.concatenate(col) for col in zip(*cols))
        order = np.lexsort((m, j, i))
        out = (*(v[order].astype(np.int32) for v in (i, j, m)), c[order])
        for v in out:
            v.flags.writeable = False
        return out

    @cached_property
    def _brackets(self) -> dict[tuple[int, int], BracketTerms]:
        i, j, m, c = (v.tolist() for v in self.bracket_arrays)
        rows = zip(zip(i, j), zip(m, c))
        return {key: tuple(t for _, t in terms) for key, terms in groupby(rows, itemgetter(0))}

    def bracket(self, i: int, j: int) -> BracketTerms:
        """[X_i, X_j] as basis coefficients; antisymmetric in (i, j)."""
        if i == j:
            return ()
        if i < j:
            return self._brackets.get((i, j), ())
        return tuple((m, -c) for m, c in self._brackets.get((j, i), ()))

    def nonzero_brackets(self) -> "_BracketItems":
        """The nonzero ((i, j), terms), i < j, in table order."""
        return _BracketItems(self)


class _BracketItems:
    """ChevalleyBasis.nonzero_brackets(): a read-only view whose len() builds no dict."""

    def __init__(self, basis: ChevalleyBasis):
        self._basis = basis

    def __len__(self) -> int:
        return len(self._basis.bracket_starts)

    def __iter__(self):
        return iter(self._basis._brackets.items())


def triple_terms(rs: RootSystem, sc: StructureConstants, rts: np.ndarray) -> tuple:
    """The one row formula of d omega and d^c omega on root triples rts, a
    (k, 3) array of indices in all_roots() that sum to zero: per row, the
    fiber position of each root, -1j * sign per root, N(rts[:, 0], rts[:, 1])
    and the d^c coefficient 1j * prod(sign) * N, with sign +1 on a positive
    root and -1 on a negative one. With ys = triple_sums(fiber, ysign, x),
    d omega is N * ys and d^c omega is the d^c coefficient times ys."""
    n = rs.npositive
    signs = np.where(rts < n, 1, -1)
    n_val = sc.float_array[rts[:, 0], rts[:, 1]]
    return rts % n, -1j * signs, n_val, 1j * signs.prod(axis=1) * n_val


def triple_sums(fiber: np.ndarray, ysign: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(y0 + y1) + y2 per row, with y = -1j * sign * x at each root's fiber position."""
    y = ysign * x[fiber]
    return (y[:, 0] + y[:, 1]) + y[:, 2]


def sort_sign(seq) -> int:
    """The sign, +1 or -1, of the permutation that sorts seq (distinct items)."""
    inversions = sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


class InvariantForm:
    """Alternating k-form stored by components on strictly increasing index tuples.

    Every form holds an (n, degree) int32 key array and a complex value
    array, read-only and in insertion order, checked once, when it is made;
    components is a read-only Mapping over them.
    """

    def __init__(self, basis: ChevalleyBasis, degree: int, components: Mapping | None = None):
        """Raises ValueError on a key that is not a tuple of `degree` strictly
        increasing basis indices, none a bool, and on a value that is not finite."""
        comps = dict(components or {})
        _refuse_bad_key(comps, degree, basis.dim)
        keys = np.array(list(comps), dtype=np.int32).reshape(len(comps), degree)
        values = number_array(list(comps.values()), what="components", dtype=complex)
        self._hold(basis, degree, keys, values)

    @classmethod
    def from_arrays(cls, basis: ChevalleyBasis, degree: int, keys, values) -> "InvariantForm":
        """The form with copies of keys, an (n, degree) integer array, and n
        complex values, in order, checked as the dict constructor checks them."""
        keys, values = np.asarray(keys), number_array(values, dtype=complex).copy()
        if values.ndim != 1 or keys.shape != (len(values), degree):
            raise ValueError(f"need (n, {degree}) keys for n values, got {keys.shape}, {values.shape}")
        dim = basis.dim
        if keys.size and not (keys.dtype.kind in "iu" and keys.min() >= 0 and keys.max() < dim
                              and (np.diff(keys, axis=1) > 0).all()):
            _refuse_bad_key(map(tuple, keys.tolist()), degree, dim)
        return computed_form(basis, degree, keys.astype(np.int32), values)

    def _hold(self, basis: ChevalleyBasis, degree: int, keys: np.ndarray, values: np.ndarray):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            key, value = tuple(keys[bad[0]].tolist()), complex(values[bad[0]])
            raise NonFiniteComponentError(
                f"component {key!r} of a form must be finite, got {value!r}", key
            )
        keys.flags.writeable = values.flags.writeable = False  # checked once, so read-only
        self.basis, self.degree = basis, degree
        self.components = _ArrayComponents(keys, values)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys as an (n, degree) int32 array and the values as complex,
        in insertion order."""
        return self.components.arrays

    def value(self, *indices: int) -> complex:
        if len(set(indices)) != len(indices):
            return 0j
        val = self.components.get(tuple(sorted(indices)), 0j)
        return -val if sort_sign(indices) < 0 else val

    def max_abs(self) -> float:
        return max((abs(v) for v in self.components.values()), default=0.0)


def computed_form(basis: ChevalleyBasis, degree: int, keys, values) -> InvariantForm:
    """InvariantForm.from_arrays for keys the package computed: an (n, degree)
    int32 array of strictly increasing basis indices, not checked again. The
    form takes both arrays over, without a copy, and makes them read-only."""
    form = InvariantForm.__new__(InvariantForm)
    form._hold(basis, degree, keys, values)
    return form


class _ArrayComponents(Mapping):
    """Components held as arrays (keys, values); len() reads the arrays, and
    the dict of int-tuple keys and complex values is built on first lookup."""

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self.arrays = (keys, values)

    def __len__(self) -> int:
        return len(self.arrays[1])

    @cached_property
    def _dict(self) -> dict[tuple[int, ...], complex]:
        keys, values = self.arrays
        return dict(zip(map(tuple, keys.tolist()), values.tolist()))

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)


def _refuse_bad_key(keys, deg: int, dim: int) -> None:
    """Raise ValueError naming the first of keys that is not a tuple of
    `deg` strictly increasing basis indices in [0, dim), none a bool."""
    for key in keys:
        if not (
            isinstance(key, tuple)
            and len(key) == deg
            and all(
                isinstance(e, (int, np.integer)) and not isinstance(e, bool) and 0 <= e < dim
                for e in key
            )
            and all(a < b for a, b in zip(key, key[1:]))
        ):
            raise ValueError(
                f"component key {key!r} of a degree-{deg} form must be {deg} strictly"
                f" increasing indices in [0, {dim})"
            )


def exterior_derivative(form: InvariantForm) -> InvariantForm:
    """Cochain differential: (df)(X_0..X_k) = sum over pairs of
    (-1)^(p+q) f([X_p, X_q], rest). Scatters from the stored components, so the
    cost scales with the sparsity of the form rather than with dim^(k+2).

    One row per (bracket term [X_i, X_j] ∋ c X_m, nonzero component holding
    m), by term and then by the components' insertion order. Each output
    component is summed over its rows in that order, starting from zero, and
    components are listed in the order of their first row: the same sums, in
    the same order, as a loop over terms and components. The rows depend on
    the keys alone, so they are the basis' cached plan for the key set.
    """
    keys, vals = form.arrays()
    basis, deg = form.basis, form.degree
    nonzero = vals != 0
    keys, vals = keys[nonzero], vals[nonzero]
    src, coef, slot, merged = basis.derivative_plan(keys)
    values = basis.signed_coefficients[0]
    total = np.zeros(len(merged), dtype=complex)
    # add.at adds in index order: each slot sums its rows in row order; a
    # block at a time keeps the products' buffer small. A complex value times
    # a real coefficient c is (a c - b 0) + (a 0 + b c) i: a finite value
    # makes each part a c or b c, or a zero whose sign no sum from zero keeps
    for start in range(0, len(src), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        prod = np.take(vals, src[rows])
        prod *= np.take(values, coef[rows])
        np.add.at(total, slot[rows], prod)
    live = total != 0
    return computed_form(basis, deg + 1, merged[live], total[live])


def _build_plan(basis: ChevalleyBasis, keys: np.ndarray) -> DerivativePlan:
    """exterior_derivative's rows for keys. Blocks of whole bracket terms
    write their kept rows' merged-key codes, components and coefficients
    into buffers with room for every row, which the row arrays are views
    of; one np.unique then numbers the slots in first-touch order. The codes
    take 8 bytes a row, and the sort a few row-long index arrays more: on
    E8's d^c omega (358,925 rows) the build peaks at about 20 MB."""
    deg = keys.shape[1]
    _, plus, minus = basis.signed_coefficients
    if not keys.size:
        empty = np.zeros(0, dtype=np.uint8)
        return DerivativePlan(empty, empty, empty, np.zeros((0, deg + 1), dtype=np.int32))
    # components by element, in insertion order: comp[at[e]:at[e + 1]]
    # hold element e at position pos
    flat = keys.ravel()
    order = np.argsort(flat, kind="stable")
    comp, pos = np.divmod(order, deg)
    at = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=basis.dim))])
    bi, bj, bm, _ = basis.bracket_arrays
    nrows = at[bm + 1] - at[bm]
    first_row = np.cumsum(nrows) - nrows
    cols_of = np.ascontiguousarray(keys.T)
    # merged keys are coded in base dim, most significant index first
    dtype = np.int64 if basis.dim ** (deg + 1) < 2**62 else object
    place = np.array([basis.dim**k for k in range(deg, -1, -1)], dtype=dtype)

    # shift[c, s]: the place in rest of column c of a key without column s,
    # or deg + 1 for column s, which then reads a zero place
    shift = np.array([[c - (c > s) if c != s else deg + 1 for s in range(deg)]
                      for c in range(deg)], dtype=np.min_scalar_type(-(deg + 3)))
    place_ext = np.concatenate([place, np.zeros(3, dtype=dtype)])

    def block(t0, t1):
        """Codes, source components and signed coefficients of the surviving
        rows of bracket terms t0 to t1, in row order."""
        term = np.repeat(np.arange(t0, t1), nrows[t0:t1])
        src = at[bm[term]] + np.arange(len(term)) - (first_row[term] - first_row[t0])
        i, j, m = bi[term], bj[term], bm[term]
        c, s = comp[src], pos[src]
        cols = np.take(cols_of, c, axis=1)
        # rest = key without m; drop rows where i or j is in rest
        keep = ~(((cols == i) | (cols == j)) & (cols != m)).any(axis=0)
        below_i, below_j = cols < i, cols < j
        # places of i < j in the merged key
        p = below_i.sum(axis=0) - (m < i)
        q = below_j.sum(axis=0) - (m < j) + 1
        # a rest element's place in the merged key: its place in rest, plus
        # 1 for each of i and j below it
        merged = np.take(shift, s, axis=1)
        merged += 2
        merged -= below_i
        merged -= below_j
        code = (np.take(place_ext, merged) * cols).sum(axis=0)
        code += i * place[p] + j * place[q]
        odd = (s + p + q) % 2 == 1
        return code[keep], c[keep], np.where(odd, minus[term], plus[term])[keep]

    total = int(nrows.sum())
    code_of, src_of, coef_of = (
        np.empty(total, dtype=t) for t in (dtype, _index_type(len(keys)), plus.dtype)
    )
    nkept = 0
    bounds = np.searchsorted(first_row // _BLOCK_ROWS, np.arange(first_row[-1] // _BLOCK_ROWS + 2))
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        code, src, coef = block(t0, t1)
        rows = slice(nkept, nkept + len(code))
        code_of[rows], src_of[rows], coef_of[rows] = code, src, coef
        nkept = rows.stop
    # one slot per distinct code, numbered in the order of its first row
    code, first, inverse = np.unique(code_of[:nkept], return_index=True, return_inverse=True)
    by_touch = np.argsort(first)
    slot = np.empty(len(code), dtype=_index_type(len(code)))
    slot[by_touch] = np.arange(len(code))
    code = code[by_touch]
    merged = np.empty((len(code), deg + 1), dtype=np.int32)
    for col, k in enumerate(place):
        merged[:, col] = code // k % basis.dim
    return DerivativePlan(src_of[:nkept], coef_of[:nkept], slot[inverse], merged)
