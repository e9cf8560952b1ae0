"""Complexified basis of a product of simple algebras and invariant forms on it.

The exterior derivative here is the plain Lie-algebra cochain differential
driven by the bracket table alone, so it serves as an independent numerical
oracle for every closed-form expression elsewhere in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field

from .roots import FactorLayout, Root, RootSystem
from .structure import StructureConstants

BracketTerms = tuple[tuple[int, complex], ...]


class ChevalleyBasis:
    """Ordered basis: all torus directions first, then (E_+, E_-) per positive root.

    Torus indices are global across factors; fiber indices are grouped by
    factor. Brackets between different factors vanish.
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

        self._brackets = self._build_brackets()

    def torus_index(self, factor: int, local: int) -> int:
        return self.layout.slices[factor].start + local

    def root_index(self, factor: int, root: Root) -> int:
        return self.element_index(factor, self.factors[factor][0].index_of(root))

    def element_index(self, factor: int, i: int) -> int:
        """Basis position of E for the root with index i in the factor's all_roots()."""
        n = self.factors[factor][0].npositive
        return self.fiber_offsets[factor] + 2 * (i % n) + (1 if i >= n else 0)

    def _bracket_pair(self, i: int, j: int) -> BracketTerms:
        di, dj = self.descriptors[i], self.descriptors[j]
        if di[0] == "H" and dj[0] == "H":
            return ()
        if di[0] == "H":
            f, a = di[1], di[2]
            g, rho = dj[1], dj[2]
            if f != g:
                return ()
            rs, _ = self.factors[f]
            unit = rs.simples[a]
            c = float(rs.gram_scale * rs.inner_at(rs.index_of(rho), rs.index_of(unit)))
            return ((j, c),) if c else ()
        f, rho = di[1], di[2]
        g, sig = dj[1], dj[2]
        if f != g:
            return ()
        rs, sc = self.factors[f]
        ir, js = rs.index_of(rho), rs.index_of(sig)
        if js == rs.neg_index[ir]:
            base = self.layout.slices[f].start
            return tuple((base + k, float(c)) for k, c in enumerate(rho.coeffs) if c)
        total = rs.sum_index[ir, js]
        if total >= 0:
            return ((self.element_index(f, int(total)), sc.floats[ir][js]),)
        return ()

    def _build_brackets(self):
        table = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                terms = self._bracket_pair(i, j)
                if terms:
                    table[(i, j)] = terms
        return table

    def bracket(self, i: int, j: int) -> BracketTerms:
        """[X_i, X_j] as basis coefficients; antisymmetric in (i, j)."""
        if i == j:
            return ()
        if i < j:
            return self._brackets.get((i, j), ())
        return tuple((m, -c) for m, c in self._brackets.get((j, i), ()))

    def nonzero_brackets(self):
        return self._brackets.items()


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
        order = sorted(range(len(indices)), key=lambda k: indices[k])
        inversions = sum(
            1
            for a in range(len(order))
            for b in range(a + 1, len(order))
            if order[a] > order[b]
        )
        key = tuple(sorted(indices))
        val = self.components.get(key, 0j)
        return -val if inversions % 2 else val

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
