"""Complexified basis of a product of simple algebras and invariant forms on it.

The exterior derivative here is the plain Lie-algebra cochain differential
driven by the bracket table alone, so it serves as an independent numerical
oracle for every closed-form expression elsewhere in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .roots import FactorLayout, Root, RootSystem
from .structure import StructureConstants

BracketTerms = tuple[tuple[int, complex], ...]


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
        return self.fiber_offsets[factor] + 2 * (i % n) + (1 if i >= n else 0)

    def _build_brackets(self):
        """The nonzero [X_i, X_j], i < j, sorted by (i, j), from the root tables:
        [H_a, E_r] = <r, a> E_r, [E_r, E_-r] = sum of r's coefficients times H,
        and [E_r, E_s] = N(r, s) E_(r+s)."""
        table = {}
        for f, (rs, sc) in enumerate(self.factors):
            torus = self.layout.slices[f].start
            elem = [self.element_index(f, r) for r in range(2 * rs.npositive)]
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
                    table[(elem[r], elem[s])] = ((elem[rs.sum_index[r, s]], sc.floats[r][s]),)
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


def exterior_derivative(form: InvariantForm) -> InvariantForm:
    """Cochain differential: (df)(X_0..X_k) = sum over pairs of
    (-1)^(p+q) f([X_p, X_q], rest). Scatters from the stored components, so the
    cost scales with the sparsity of the form rather than with dim^(k+2)."""
    by_elem: dict[int, list] = defaultdict(list)
    for key, val in form.components.items():
        if val == 0:
            continue
        for m in key:
            by_elem[m].append((key, val))

    out: dict[tuple[int, ...], complex] = defaultdict(complex)
    for (i, j), terms in form.basis.nonzero_brackets():
        for m, c in terms:
            for key, val in by_elem.get(m, ()):
                rest = tuple(e for e in key if e != m)
                if i in rest or j in rest:
                    continue
                parity_m = bisect_left(rest, m)
                merged = tuple(sorted(rest + (i, j)))
                p, q = merged.index(i), merged.index(j)
                sign = -1 if (parity_m + p + q) % 2 else 1
                out[merged] += sign * c * val

    return InvariantForm(
        basis=form.basis,
        degree=form.degree + 1,
        components={k: v for k, v in out.items() if v != 0},
    )
