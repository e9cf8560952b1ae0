"""Complexified basis of a product of simple algebras and invariant forms on it.

The exterior derivative here is the plain Lie-algebra cochain differential
driven by the bracket table alone, so it serves as an independent numerical
oracle for every closed-form expression elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .roots import FactorLayout, Root, RootSystem
from .structure import StructureConstants

BracketTerms = tuple[tuple[int, complex], ...]

# Rows of the exterior derivative's scatter held at once. A block holds whole
# bracket terms, so a term with more rows than this gets a block of its own.
_BLOCK_ROWS = 1 << 12


class ChevalleyBasis:
    """Ordered basis: all torus directions first, then (E_+, E_-) per positive root.

    Torus indices are global across factors; fiber indices are grouped by
    factor. pair_of[m] is the global index of the positive-root pair
    {E_a, E_-a} holding element m, or -1 for a torus element. Brackets
    between different factors vanish.
    """

    def __init__(self, factors: list[tuple[RootSystem, StructureConstants]]):
        self.factors = factors
        self.layout = FactorLayout([rs for rs, _ in factors])
        self.fiber_offsets = []
        e = self.layout.size
        for rs, _ in factors:
            self.fiber_offsets.append(e)
            e += 2 * rs.npositive
        self.dim = e

        self.descriptors: list[tuple] = []
        for f, (rs, _) in enumerate(factors):
            for j in range(rs.rank):
                self.descriptors.append(("H", f, j))
        for f, (rs, _) in enumerate(factors):
            for root in rs.positives:
                self.descriptors.append(("E", f, root))
                self.descriptors.append(("E", f, -root))
        size = self.layout.size
        self.pair_of = [-1] * size + [(m - size) // 2 for m in range(size, self.dim)]

        self._brackets = self._build_brackets()

    def torus_index(self, factor: int, local: int) -> int:
        return self.layout.slices[factor].start + local

    def root_index(self, factor: int, root: Root) -> int:
        return self.element_index(factor, self.factors[factor][0].index_of(root))

    def element_index(self, factor: int, i: int) -> int:
        """Basis position of E for the root with index i in the factor's all_roots()."""
        n = self.factors[factor][0].npositive
        return self.fiber_offsets[factor] + 2 * (i % n) + (i >= n)

    def _build_brackets(self):
        """The nonzero [X_i, X_j], i < j, sorted by (i, j), from the root tables:
        [H_a, E_r] = <r, a> E_r, [E_r, E_-r] = sum of r's coefficients times H,
        and [E_r, E_s] = N(r, s) E_(r+s)."""
        table = {}
        for f, (rs, sc) in enumerate(self.factors):
            torus = self.layout.slices[f].start
            elem = [self.element_index(f, r) for r in range(2 * rs.npositive)]
            fl = sc.float_array.tolist()
            for a, simple in enumerate(rs.simples):
                ia = rs.index_of(simple)
                for r, e in enumerate(elem):
                    c = float(rs.gram_scale * rs.inner_at(r, ia))
                    if c:
                        table[(torus + a, e)] = ((e, c),)
            for t, root in enumerate(rs.positives):
                table[(elem[t], elem[rs.neg_index[t]])] = tuple(
                    (torus + k, float(c)) for k, c in enumerate(root.coeffs) if c
                )
            for r, s in np.argwhere(rs.sum_index >= 0).tolist():
                if elem[r] < elem[s]:
                    table[(elem[r], elem[s])] = ((elem[rs.sum_index[r, s]], fl[r][s]),)
        return dict(sorted(table.items()))

    def bracket(self, i: int, j: int) -> BracketTerms:
        """[X_i, X_j] as basis coefficients; antisymmetric in (i, j)."""
        if i == j:
            return ()
        if i < j:
            return self._brackets.get((i, j), ())
        return tuple((m, -c) for m, c in self._brackets.get((j, i), ()))

    def nonzero_brackets(self):
        return self._brackets.items()

    @cached_property
    def bracket_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The bracket table flattened to one row per term [X_i, X_j] ∋ c X_m:
        arrays (i, j, m, c) in table order, then term order."""
        rows = [(i, j, m, c) for (i, j), terms in self._brackets.items() for m, c in terms]
        i, j, m, c = zip(*rows) if rows else ((),) * 4
        ints = (np.array(v, dtype=np.int32) for v in (i, j, m))
        return (*ints, np.array(c, dtype=float))


def sort_sign(seq) -> int:
    """The sign, +1 or -1, of the permutation that sorts seq (distinct items)."""
    inversions = sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


@dataclass
class InvariantForm:
    """Alternating k-form stored by components on strictly increasing index tuples."""

    basis: ChevalleyBasis
    degree: int
    components: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def set(self, indices: tuple[int, ...], value: complex):
        self.components[indices] = value

    def value(self, *indices: int) -> complex:
        if len(set(indices)) != len(indices):
            return 0j
        val = self.components.get(tuple(sorted(indices)), 0j)
        return -val if sort_sign(indices) < 0 else val

    def max_abs(self) -> float:
        return max((abs(v) for v in self.components.values()), default=0.0)


def _is_key(key, degree: int, dim: int) -> bool:
    """True when key is `degree` strictly increasing basis indices."""
    return (
        len(key) == degree
        and all(isinstance(e, (int, np.integer)) and 0 <= e < dim for e in key)
        and all(a < b for a, b in zip(key, key[1:]))
    )


def _component_arrays(form: InvariantForm) -> tuple[np.ndarray, np.ndarray]:
    """The form's keys as an (n, degree) int array and its values as complex,
    in insertion order. Raises ValueError on a key that is not `degree`
    strictly increasing indices of the basis, and on a value that is not
    finite."""
    deg, dim = form.degree, form.basis.dim
    keys = list(form.components)
    try:
        arr = np.array(keys, ndmin=2)
        ok = arr.shape == (len(keys), deg) and arr.dtype.kind in "iu"
    except ValueError:  # keys of different lengths
        ok = False
    if ok and arr.size:
        ok = arr.min() >= 0 and arr.max() < dim and (np.diff(arr, axis=1) > 0).all()
    if not ok and keys:
        bad = next((key for key in keys if not _is_key(key, deg, dim)), None)
        if bad is not None:
            raise ValueError(
                f"component key {bad!r} of a degree-{deg} form must be {deg} strictly"
                f" increasing indices in [0, {dim})"
            )
    vals = np.array(list(form.components.values()), dtype=complex)
    if not np.isfinite(vals).all():
        bad = keys[int(np.argmin(np.isfinite(vals)))]
        raise ValueError(
            f"component {bad!r} of a form must be finite, got {form.components[bad]!r}"
        )
    return np.array(keys, dtype=np.int32).reshape(len(keys), deg), vals


def exterior_derivative(form: InvariantForm) -> InvariantForm:
    """Cochain differential: (df)(X_0..X_k) = sum over pairs of
    (-1)^(p+q) f([X_p, X_q], rest). Scatters from the stored components, so the
    cost scales with the sparsity of the form rather than with dim^(k+2).

    One row per (bracket term [X_i, X_j] ∋ c X_m, nonzero component holding
    m), by term and then by the components' insertion order. Each output
    component is summed over its rows in that order, starting from zero, and
    components are listed in the order of their first row: the same sums, in
    the same order, as a loop over terms and components.
    """
    keys, vals = _component_arrays(form)
    basis, deg = form.basis, form.degree
    nonzero = vals != 0
    keys, vals = keys[nonzero], vals[nonzero]
    out = {}
    if keys.size:
        # components by element, in insertion order: comp[at[e]:at[e + 1]]
        # hold element e at position pos
        flat = keys.ravel()
        order = np.argsort(flat, kind="stable")
        comp, pos = np.divmod(order, deg)
        at = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=basis.dim))])
        out = _scatter(basis, deg, keys, vals, comp, pos, at)
    return InvariantForm(basis=basis, degree=deg + 1, components=out)


def _groups(code: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(code, return_index=True, return_inverse=True), without a stable sort."""
    order = np.argsort(code)
    ordered = code[order]
    change = ordered[1:] != ordered[:-1]
    start = np.flatnonzero(np.concatenate([[True], change]))
    inverse = np.empty(len(code), dtype=np.intp)
    inverse[order] = np.concatenate([[0], np.cumsum(change)])
    return ordered[start], np.minimum.reduceat(order, start), inverse


def _scatter(basis, deg, keys, vals, comp, pos, at) -> dict[tuple[int, ...], complex]:
    """The rows of exterior_derivative, block by block, summed into one slot
    per merged key; slots are numbered in first-touch order."""
    bi, bj, bm, bc = basis.bracket_arrays
    nrows = at[bm + 1] - at[bm]
    first_row = np.cumsum(nrows) - nrows
    cols_of = np.ascontiguousarray(keys.T)
    # merged keys are coded in base dim, most significant index first
    dtype = np.int64 if basis.dim ** (deg + 1) < 2**62 else object
    place = np.array([basis.dim**k for k in range(deg, -1, -1)], dtype=dtype)

    def block(t0, t1):
        """Codes and signed products c * f(key) of the surviving rows of
        bracket terms t0 to t1, in row order."""
        term = np.repeat(np.arange(t0, t1), nrows[t0:t1])
        src = at[bm[term]] + np.arange(len(term)) - (first_row[term] - first_row[t0])
        i, j, m = bi[term], bj[term], bm[term]
        cols = np.take(cols_of, comp[src], axis=1)
        # rest = key without m; drop rows where i or j is in rest
        keep = np.ones(len(term), dtype=bool)
        for col in cols:
            keep &= ~(((col == i) | (col == j)) & (col != m))
        term, src, i, j, m = term[keep], src[keep], i[keep], j[keep], m[keep]
        # positions of i < j in the merged key, and of each rest element:
        # its place in rest, moved past i and j
        p = np.zeros(len(term), dtype=np.intp)
        q = np.ones(len(term), dtype=np.intp)
        code = np.zeros(len(term), dtype=dtype)
        for c, col in enumerate(cols[:, keep]):
            rest = col != m
            p += rest & (col < i)
            q += rest & (col < j)
            merged = np.minimum(c - (col > m) + (col > i) + (col > j), deg)
            code += rest * col * place[merged]
        code += i * place[p] + j * place[q]
        odd = (pos[src] + p + q) % 2 == 1
        return code, np.where(odd, -bc[term], bc[term]) * vals[comp[src]]

    seen = np.zeros(0, dtype=dtype)  # codes met so far, sorted
    seen_slot = np.zeros(0, dtype=np.intp)
    codes = [seen]  # codes by slot
    re = np.zeros(0)
    im = np.zeros(0)
    bounds = np.searchsorted(first_row // _BLOCK_ROWS, np.arange(first_row[-1] // _BLOCK_ROWS + 2))
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        code, prod = block(t0, t1)
        if not len(code):
            continue
        uniq, first, inverse = _groups(code)
        found = np.searchsorted(seen, uniq)
        old = found < len(seen)
        old[old] = seen[found[old]] == uniq[old]
        new = np.nonzero(~old)[0]
        new = new[np.argsort(first[new])]
        slot = np.empty(len(uniq), dtype=np.intp)
        slot[old] = seen_slot[found[old]]
        slot[new] = len(re) + np.arange(len(new))
        codes.append(uniq[new])
        seen = np.insert(seen, found[~old], uniq[~old])
        seen_slot = np.insert(seen_slot, found[~old], slot[~old])
        re = np.concatenate([re, np.zeros(len(new))])
        im = np.concatenate([im, np.zeros(len(new))])
        # add.at adds in index order: each slot sums its rows in row order
        np.add.at(re, slot[inverse], prod.real)
        np.add.at(im, slot[inverse], prod.imag)

    live = (re != 0) | (im != 0)
    code = np.concatenate(codes)[live]
    value = np.empty(len(code), dtype=complex)
    value.real, value.imag = re[live], im[live]
    del seen, seen_slot, codes, re, im
    merged = zip(*((code // k % basis.dim).tolist() for k in place))
    return dict(zip(merged, value.tolist()))
