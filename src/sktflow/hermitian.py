"""Invariant Hermitian structures on products of compact simple groups.

A structure is a product of simple factors, a positive metric on the shared
maximal torus, one positive fiber value per positive root, and optionally a
complex structure on the torus. Torus vectors are coefficient vectors over
the complex basis elements H_a throughout this module.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DynkinTypeError, MissingComplexStructureError, PositivityError
from .forms import (
    ChevalleyBasis, InvariantForm, computed_form, exterior_derivative, sort_sign, triple_sums,
    triple_terms,
)
from .family import QUIET, family_gradient, finite_positive, simple_array, sqrt_and_inverse
from .residuals import (
    PairRows, QuadRows, build_residual_tables, closed_form_scan, pair_rows, pair_values,
    quad_rows, quad_values, worst_row,
)
from .roots import (
    FactorLayout, Normalization, Root, RootSystem, SimpleType, build_root_system, check_count,
    check_positive, number_array,
)
from .structure import StructureConstants, structure_constants


@dataclass(frozen=True)
class FactorSpec:
    """One simple factor: type, inner-product normalization (a Normalization
    or its name), scale z, kept as a Python float."""

    stype: SimpleType
    normalization: Normalization = Normalization.LONG2
    z: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "normalization", Normalization.parse(self.normalization))
        object.__setattr__(self, "z", check_positive(self.z, "factor scale z"))


class GroupSpec:
    """Product of simple factors with cached root data.

    layout stacks every factor's positive roots in torus coordinates. Structure
    constants, the basis on layout, the residual tables and the Killing torus
    metric are built lazily, once per group; closed-form scans never pay for the basis.
    A structure is Killing exactly when it holds the group's killing_torus, and
    only such a structure serializes its torus as "killing".
    """

    def __init__(self, factors: Sequence[FactorSpec]):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("a group needs at least one factor")
        self.systems: tuple[RootSystem, ...] = tuple(
            build_root_system(f.stype, f.normalization) for f in self.factors
        )
        self.layout = FactorLayout(self.systems)

    @cached_property
    def constants(self) -> tuple[StructureConstants, ...]:
        return tuple(structure_constants(rs) for rs in self.systems)

    @cached_property
    def basis(self) -> ChevalleyBasis:
        return ChevalleyBasis(self.layout, self.constants)

    @cached_property
    def killing_torus(self) -> "TorusMetric":
        """The torus metric of z * gram per factor, shared by every Killing structure."""
        blocks = (f.z * rs.gram_float for f, rs in zip(self.factors, self.systems))
        return TorusMetric(self.layout.blockdiag(blocks))

    @cached_property
    def residual_tables(self) -> tuple[PairRows, QuadRows]:
        return build_residual_tables(self)

    @cached_property
    def row_labels(self) -> tuple[tuple[int, str], ...]:
        """The factor and the label of each stacked positive root, as scan
        witnesses name them."""
        return tuple((f, root.label) for f, rs in enumerate(self.systems) for root in rs.positives)

    def build(self, x=None, torus="killing", jt=None) -> "HermitianStructure":
        return HermitianStructure(self, fiber=x, torus=torus, jt=jt)


def _as_matrix(m, what: str) -> np.ndarray:
    """m as a finite square float matrix: a read-only copy, so that a caller who
    changes their array afterwards cannot undo the checks made on it."""
    arr = number_array(m, what=what).copy()
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TorusMetric:
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix, "torus metric")
        object.__setattr__(self, "matrix", m)
        # relative to the matrix' own size, so that scaling it keeps the verdict
        if np.abs(m - m.T).max() > 1e-10 * np.abs(m).max():
            raise ValueError("torus metric must be symmetric")
        if np.linalg.eigvalsh(m).min() <= 0:
            raise ValueError("torus metric must be positive definite")


@dataclass(frozen=True, eq=False)
class TorusComplexStructure:
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix, "jt")
        object.__setattr__(self, "matrix", m)
        if np.abs(m @ m + np.eye(m.shape[0])).max() > 1e-10:
            raise ValueError("torus complex structure must square to -identity")


@dataclass(frozen=True)
class FiberMetric:
    """Raw positive value per positive root, per factor, in canonical order,
    as tuples of Python floats. Each row is read once as a real array, so a
    complex row raises ValueError, and checked once, here."""

    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = [number_array(row, what="fiber values") for row in self.values]
        if any(row.ndim != 1 for row in rows):
            raise ValueError("fiber values must be one row of numbers per factor")
        _refuse_non_positive(rows, "fiber value")
        object.__setattr__(self, "values", tuple(tuple(row.tolist()) for row in rows))


def _factor_rows(group: GroupSpec, rows, what: str):
    """rows as one row per factor; a single factor may give its row bare.

    Refuses a scalar or an empty sequence. Only the first row is inspected, as
    a product's rows may differ in length.
    """
    try:
        empty = len(rows) == 0
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got {rows!r}") from None
    if empty:
        raise ValueError(f"{what} must not be empty")
    if len(group.factors) == 1 and np.ndim(rows[0]) == 0:
        return [rows]
    return rows


def _refuse_non_positive(rows, what: str) -> None:
    """Raise PositivityError naming the first value of rows, one float array
    per factor, that is not finite and positive, as `what`."""
    for f, row in enumerate(rows):
        bad = np.flatnonzero(~finite_positive(row))
        if bad.size:
            t, v = int(bad[0]), float(row[bad[0]])
            raise PositivityError(
                f"{what} {v:.6g} at factor {f}, root position {t} is not finite and positive",
                value=v,
            )


class HermitianStructure:
    """Torus metric + fiber metric (+ optional torus complex structure).

    x holds the effective fiber values z*x of every factor, stacked in the
    layout's row order, and xhat[f] is factor f's view of it; both are
    read-only."""

    def __init__(self, group: GroupSpec, fiber=None, torus="killing", jt=None):
        self.group = group
        if fiber is None:
            fiber = [np.ones(rs.npositive) for rs in group.systems]
        if not isinstance(fiber, FiberMetric):
            fiber = FiberMetric(_factor_rows(group, fiber, "fiber values"))
        self.fiber = fiber
        if len(fiber.values) != len(group.factors):
            raise ValueError("fiber metric factor count does not match the group")
        for rs, row in zip(group.systems, fiber.values):
            if len(row) != rs.npositive:
                raise ValueError(
                    f"{rs.stype} needs {rs.npositive} fiber values, got {len(row)}"
                )

        if isinstance(torus, TorusMetric):
            self.torus = torus
        elif isinstance(torus, str) and torus == "killing":
            self.torus = group.killing_torus
        else:
            self.torus = TorusMetric(torus)
        if self.torus.matrix.shape[0] != group.layout.size:
            raise ValueError("torus metric size does not match the total rank")

        if not (jt is None or isinstance(jt, TorusComplexStructure)):
            jt = TorusComplexStructure(jt)
        self.jt = jt
        if self.jt is not None:
            j, g = self.jt.matrix, self.torus.matrix
            if j.shape != g.shape:
                raise ValueError("jt size does not match the total rank")
            if np.abs(j.T @ g @ j - g).max() > 1e-8 * np.abs(g).max():
                raise ValueError("jt is not compatible with the torus metric")

        # effective fiber values z*x, stacked in the layout's row order: the
        # factor scale applied once, here; a product that overflows or
        # underflows is refused below, not warned about
        with np.errstate(over="ignore", under="ignore"):
            self.x = np.concatenate(
                [spec.z * np.array(row) for spec, row in zip(group.factors, fiber.values)]
            )
        self.x.flags.writeable = False
        self.xhat = tuple(self.x[rows] for rows in group.layout.row_slices)
        _refuse_non_positive(self.xhat, "effective fiber value z*x =")
        self.gt = self.torus.matrix

    @cached_property
    def scale(self) -> float:
        """The size of u = (fiber values, torus metric): the largest effective
        fiber value or, if larger, the largest |entry| of the torus metric over
        the largest |entry| of the layout's gram matrix. Every dd^c residual is
        linear in u, and the bi-invariant metric at z has scale z."""
        q = self.group.layout.gram_float
        return max(float(self.x.max()), float(np.abs(self.gt).max() / np.abs(q).max()))

    def parse_argument(self, arg):
        """Root (single factor) or (factor, Root) as (factor, index in all_roots()),
        or a torus vector over H_a as a complex array."""
        if isinstance(arg, Root):
            if len(self.group.factors) != 1:
                raise ValueError("bare Root argument is ambiguous on a product; pass (factor, Root)")
            return 0, self.group.systems[0].index_of(arg)
        if isinstance(arg, tuple) and len(arg) == 2 and isinstance(arg[1], Root):
            f = check_count(arg[0], "factor index", len(self.group.factors))
            return f, self.group.systems[f].index_of(arg[1])
        return number_array(arg, self.group.layout.size, "torus vector", complex)


def _split_args(h: HermitianStructure, args):
    parsed = [h.parse_argument(a) for a in args]
    positions = [i for i, p in enumerate(parsed) if isinstance(p, np.ndarray)]
    roots = [p for p in parsed if isinstance(p, tuple)]
    return [parsed[i] for i in positions], roots, positions


def _signed_root(group: GroupSpec, f: int, i: int) -> np.ndarray:
    """Root i of factor f in torus coordinates, with +0.0 in every zero entry."""
    n, k = group.systems[f].npositive, group.layout.coefficient_matrix
    row = k[group.layout.row_slices[f].start + i % n]
    return row if i < n else 0.0 - row


def _first_derivative(h: HermitianStructure, args, conjugate: bool) -> complex:
    torus, roots, tpos = _split_args(h, args)
    if len(torus) >= 2:
        return 0j
    if len(torus) == 1:
        if not conjugate and h.jt is None:
            raise MissingComplexStructureError(
                "d_omega with a torus argument needs a torus complex structure"
            )
        (f1, i1), (f2, i2) = roots
        if f1 != f2 or i2 != h.group.systems[f1].neg_index[i1]:
            return 0j
        sign = -1.0 if tpos[0] % 2 else 1.0
        t = torus[0] if conjugate else h.jt.matrix @ torus[0]
        return sign * -(t @ h.gt @ _signed_root(h.group, f1, i1))
    (f1, i1), (f2, i2), (f3, i3) = roots
    if not (f1 == f2 == f3):
        return 0j
    rs = h.group.systems[f1]
    if rs.sum_index[i1, i2] != rs.neg_index[i3]:
        return 0j
    fiber, ysign, n, dc_coef = triple_terms(rs, h.group.constants[f1], np.array([[i1, i2, i3]]))
    ys = triple_sums(fiber, ysign, h.xhat[f1])
    return complex(((dc_coef if conjugate else n) * ys)[0])


def d_omega(h: HermitianStructure, a, b, c) -> complex:
    """Exterior derivative of the fundamental form on three arguments."""
    return _first_derivative(h, (a, b, c), conjugate=False)


def dc_omega(h: HermitianStructure, a, b, c) -> complex:
    """The conjugated derivative; never needs the torus complex structure."""
    return _first_derivative(h, (a, b, c), conjugate=True)


def ddc_omega(h: HermitianStructure, a, b, c, d) -> float:
    """dd^c of the fundamental form on four arguments; real-valued."""
    torus, keys, _ = _split_args(h, (a, b, c, d))
    if torus or len(set(keys)) != 4 or np.any(sum(_signed_root(h.group, f, i) for f, i in keys)):
        return 0.0

    # opposite pair present: pair-level branch
    for i, j in itertools.combinations(range(4), 2):
        (fi, ri), (fj, rj) = keys[i], keys[j]
        if fi == fj and rj == h.group.systems[fi].neg_index[ri]:
            fb, rb = keys[next(m for m in range(4) if m not in (i, j))]
            na, nb = h.group.systems[fi].npositive, h.group.systems[fb].npositive
            ia, ib = ri % na, rb % nb
            dst = [(fi, ia), (fi, ia + na), (fb, ib), (fb, ib + nb)]
            sign = sort_sign([dst.index(k) for k in keys])
            return sign * float(pair_values(h, pair_rows(h.group, fi, [ia], fb, [ib]))[0])

    f, n = keys[0][0], h.group.systems[keys[0][0]].npositive
    pos = sorted(i for _, i in keys if i < n)
    neg = sorted(i for _, i in keys if i >= n)
    if len(pos) != 2:
        return 0.0
    # pos + neg is sorted, as every positive index is below every negative one
    row = quad_rows(h.group, f, *([k] for k in (*pos, *(c - n for c in neg))))
    return sort_sign(keys) * float(quad_values(h, row)[0])


def omega_form(h: HermitianStructure) -> InvariantForm:
    """The fundamental 2-form on the group's basis; needs jt for the torus block."""
    if h.jt is None:
        raise MissingComplexStructureError("the fundamental form needs a torus complex structure")
    basis = h.group.basis
    m = -(h.jt.matrix.T @ h.gt)
    comps = {(a, b): complex(m[a, b]) for a, b in np.argwhere(np.triu(m, 1)).tolist()}
    for e, x in zip(range(h.group.layout.size, basis.dim, 2), h.x.tolist()):
        comps[(e, e + 1)] = -1j * x
    return InvariantForm(basis=basis, degree=2, components=comps)


def dc_form(h: HermitianStructure) -> InvariantForm:
    """The 3-form d^c of the fundamental form, assembled componentwise from
    the group basis' dc_table: per factor the torus components of each root,
    root then torus coordinate, then its triple components."""
    basis = h.group.basis
    table = basis.dc_table
    # g_T @ k for every root in one batched matmul, each row with the bits of
    # its own product (a 2-D product differs in the last bit)
    gk = np.matmul(h.gt, h.group.layout.coefficient_matrix[:, :, None])[:, :, 0]
    vals = np.empty(len(table.keys), dtype=complex)
    vals[table.torus] = -gk.ravel()
    vals[table.triple] = table.dc_coef * triple_sums(table.fiber, table.ysign, h.x)
    # a torus component is kept where g_T k is nonzero, every triple component
    keep = vals != 0
    keep[table.triple] = True
    return computed_form(basis, 3, table.keys[keep], vals[keep])


def theta_form(h: HermitianStructure, x) -> InvariantForm:
    """Metric-dual 1-form of an algebra element, on the group's basis."""
    basis = h.group.basis
    parsed = h.parse_argument(x)
    if isinstance(parsed, np.ndarray):
        gv = h.gt @ parsed
        comps = {(a,): complex(-gv[a]) for a in np.flatnonzero(gv).tolist()}
    else:
        f, i = parsed
        rs = h.group.systems[f]
        e = int(basis.element_index(f, rs.neg_index[i]))
        comps = {(e,): complex(-h.xhat[f][i % rs.npositive])}
    return InvariantForm(basis=basis, degree=1, components=comps)


def sigma_form(h: HermitianStructure, x) -> InvariantForm:
    """2-form pairing brackets against x through the invariant form."""
    basis = h.group.basis
    parsed = h.parse_argument(x)
    # pairing[m]: the invariant form of basis element m against x
    pairing = np.zeros(basis.dim, dtype=complex)
    if isinstance(parsed, np.ndarray):
        q = h.group.layout.gram_float
        # row @ x per row in one batched matmul, with the bits of the loop
        pairing[: len(q)] = np.matmul(q[:, None, :], parsed)[:, 0]
    else:
        f, i = parsed
        pairing[basis.element_index(f, h.group.systems[f].neg_index[i])] = 1
    i, j, m, c = basis.bracket_arrays
    starts = basis.bracket_starts
    # each key's terms summed in order from zero, real and imaginary parts apart
    key = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(c)))
    terms = c * pairing[m]
    val = np.empty(len(starts), dtype=complex)
    val.real = np.bincount(key, weights=terms.real, minlength=len(starts))
    val.imag = np.bincount(key, weights=terms.imag, minlength=len(starts))
    keep = val != 0
    rows = starts[keep]
    return computed_form(basis, 2, np.stack([i[rows], j[rows]], axis=1), val[keep])


def d_star_omega(h: HermitianStructure) -> np.ndarray:
    """Codifferential of the fundamental form as the torus vector it is dual to."""
    return -(h.group.layout.coefficient_matrix / h.x[:, None]).sum(axis=0)


@dataclass
class PluriclosedReport:
    """A scan's verdict: max_residual / scale < tol, with the residuals
    absolute and scale the structure's. checked counts the residual rows
    scanned in closed form, or the nonzero dd^c components in brute force;
    it is 0 for a structure above SCAN_RANGE, where no scan runs."""

    verdict: bool
    max_residual: float
    witness: str | None
    skt1_max: float
    skt2_max: float
    mode: str
    tol: float
    scale: float
    checked: int
    elapsed_s: float = field(compare=False)


def _brute_force_scan(h: HermitianStructure) -> tuple[float, str | None, float, float, int]:
    """(max residual, witness, skt1 max, skt2 max, components checked) over
    dd^c omega, for a structure within SCAN_RANGE."""
    basis = h.group.basis
    keys, values = exterior_derivative(dc_form(h)).arrays()
    r = np.abs(values) / 2.0
    pair = basis.pair_of[keys]
    fiber = pair[:, 0] >= 0
    skt1 = fiber & (pair[:, 0] == pair[:, 1]) & (pair[:, 2] == pair[:, 3])
    best, row = worst_row(r)
    witness = None
    if row >= 0:
        word = "skt1" if skt1[row] else "skt2" if fiber[row] else "mixed"
        names = ", ".join(basis.element_names[i] for i in keys[row].tolist())
        witness = f"{word} ({names})"
    skt1_max, skt2_max = (float(r.max(where=m, initial=0.0)) for m in (skt1, fiber ^ skt1))
    return best, witness, skt1_max, skt2_max, len(values)


# The largest structure scale the scans run at. Every value either scan
# forms, partial sums included, is at most the sum of its terms' absolute
# values, a few hundred times the scale (612 on E8, the most measured over
# the catalog types and normalizations), so at or below 2^-40 of the largest
# float none overflows. Above it is_pluriclosed runs no scan and reports inf.
SCAN_RANGE = 2.0**984


def is_pluriclosed(
    h: HermitianStructure, mode: str = "closed_form", tol: float = 1e-8
) -> PluriclosedReport:
    """Scan dd^c of the fundamental form and report the worst component / 2.

    The verdict compares the worst component over the structure's scale with
    tol, so it does not change when the structure is scaled. A structure
    whose scale exceeds SCAN_RANGE is not scanned: in both modes it reports
    verdict false, max_residual, skt1_max and skt2_max inf, no witness and
    0 checked. Below the smallest normal float, 2^-1022, values round to a
    fixed step of 2^-1074 rather than to 53 bits, so there a residual can
    hold a few such steps of rounding, a relative residual of a few
    2^-1074 / scale.
    """
    scans = {"closed_form": closed_form_scan, "brute_force": _brute_force_scan}
    if mode not in scans:
        raise ValueError(f"unknown mode {mode!r}; expected closed_form or brute_force")
    tol = check_positive(tol)
    start = time.perf_counter()
    scale = h.scale
    if scale > SCAN_RANGE:
        max_res, witness, skt1_max, skt2_max, checked = np.inf, None, np.inf, np.inf, 0
    else:
        max_res, witness, skt1_max, skt2_max, checked = scans[mode](h)
    return PluriclosedReport(
        verdict=max_res / scale < tol,  # tol * scale is subnormal below 2e-300
        max_residual=max_res,
        witness=witness,
        skt1_max=skt1_max,
        skt2_max=skt2_max,
        mode=mode,
        tol=tol,
        scale=scale,
        checked=checked,
        elapsed_s=time.perf_counter() - start,
    )


def pluriclosed_family(group: GroupSpec, simple_values) -> HermitianStructure:
    """The pluriclosed structure determined by values on the simple roots.

    Raises PositivityError naming the first root whose induced value fails.
    """
    rows = _factor_rows(group, simple_values, "simple values")
    if len(rows) != len(group.factors):
        raise ValueError("need one tuple of simple values per factor")
    product = len(group.factors) > 1  # a single system's errors name only the root
    with np.errstate(**QUIET):
        xs = [family_gradient(rs, simple_array(rs, row), 0.0, f if product else None)[0]
              for f, (rs, row) in enumerate(zip(group.systems, rows))]
    return HermitianStructure(group, fiber=FiberMetric(xs), torus="killing")


def kahler_flag_residual(h: HermitianStructure) -> float:
    """Worst additivity defect of the fiber values over root sums, absolute;
    over h.scale it reads as a scan's verdict reads a residual."""
    worst = 0.0
    for f, rs in enumerate(h.group.systems):
        i, j, k = rs.positive_sums()
        x = h.xhat[f]
        worst = max(worst, float(np.abs(x[k] - x[i] - x[j]).max(initial=0.0)))
    return worst


@dataclass
class CompatibilityCone:
    """Solutions z of J^T G(z) J = G(z) over per-factor scalings z."""

    dimension: int
    basis: np.ndarray
    representative: np.ndarray | None


def _jt_matrix(group: GroupSpec, jt) -> np.ndarray:
    """jt (a matrix or TorusComplexStructure) as an (r, r) array, r the total rank."""
    j = _as_matrix(jt.matrix if isinstance(jt, TorusComplexStructure) else jt, "jt")
    r = group.layout.size
    if j.shape != (r, r):
        raise ValueError(f"jt must be {r}x{r} for this group, got shape {j.shape}")
    return j


def biinvariant_compatible(group: GroupSpec, jt, tol: float = 1e-10) -> CompatibilityCone:
    """Which block scalings of the torus metric the given jt preserves."""
    tol = check_positive(tol)
    j = _jt_matrix(group, jt)
    layout = group.layout
    nfac = len(group.factors)
    cols = []
    for f in range(nfac):
        # the gram matrix of factor f alone, zero on every other block
        d = layout.blockdiag(
            rs.gram_float if g == f else np.zeros((rs.rank, rs.rank))
            for g, rs in enumerate(layout.systems)
        )
        cols.append((j.T @ d @ j - d).ravel())
    m = np.array(cols).T
    # m has r * r >= nfac rows, so there is one singular value per factor
    _, svals, vt = np.linalg.svd(m)
    smax = svals.max(initial=0.0)
    null = [vt[i] for i in range(nfac) if svals[i] <= tol * max(smax, 1.0)]
    basis = np.array(null).T if null else np.zeros((nfac, 0))
    rep = None
    if basis.shape[1]:
        from scipy.optimize import linprog  # costly import, needed only here

        res = linprog(
            c=np.zeros(basis.shape[1]),
            A_ub=-basis,
            b_ub=-np.ones(nfac),
            bounds=[(None, None)] * basis.shape[1],
            method="highs",
        )
        if res.success:
            rep = basis @ res.x
    return CompatibilityCone(dimension=basis.shape[1], basis=basis, representative=rep)


def is_irreducible(group: GroupSpec, jt, tol: float = 1e-12) -> bool:
    """False when jt keeps the torus of some proper set of factors invariant.

    Such a set exists exactly when the coupling graph, a -> b when jt maps
    factor a's torus partly into factor b's, is not strongly connected.
    """
    tol = check_positive(tol)
    j = _jt_matrix(group, jt)
    slices = group.layout.slices
    reach = np.array([[np.abs(j[sb, sa]).max() > tol for sb in slices] for sa in slices])
    reach |= np.eye(len(slices), dtype=bool)
    for k in range(len(slices)):  # transitive closure (Warshall)
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return bool(reach.all())


def canonical_jt(gt: np.ndarray) -> np.ndarray:
    """A complex structure compatible with the given torus metric, checked by TorusMetric."""
    g = TorusMetric(gt).matrix
    r = g.shape[0]
    if r % 2:
        raise ValueError(f"torus complex structures need even rank, got {r}")
    half, inv_half = sqrt_and_inverse(g)
    j0, even = np.zeros((r, r)), np.arange(0, r, 2)
    j0[even, even + 1], j0[even + 1, even] = -1.0, 1.0
    return inv_half @ j0 @ half


def structure_to_dict(h: HermitianStructure) -> dict:
    factors = [
        {"family": spec.stype.family, "rank": spec.stype.rank,
         "normalization": spec.normalization.value, "z": spec.z, "x": list(x)}
        for spec, x in zip(h.group.factors, h.fiber.values)
    ]
    out: dict = {"factors": factors}
    if h.torus is h.group.killing_torus:
        out["torus"] = "killing"
    else:
        blocks = [h.gt[sl, sl] for sl in h.group.layout.slices]
        if np.abs(h.gt - h.group.layout.blockdiag(blocks)).max() > 0:
            raise ValueError(
                "torus metric couples different factors; only block-diagonal metrics serialize"
            )
        out["torus"] = {"blocks": [b.tolist() for b in blocks]}
    if h.jt is not None:
        out["jt"] = h.jt.matrix.tolist()
    return out


def _is_number(value) -> bool:
    """A JSON number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_rows(rows, what: str):
    """rows, a JSON list of rows of numbers; names the first entry that is not a number."""
    for i, row in enumerate(rows):
        for k, v in enumerate(row):
            if not _is_number(v):
                raise ValueError(f"{what} entry ({i}, {k}) must be a number, got {v!r}")
    return rows


def structure_from_dict(data: dict) -> HermitianStructure:
    try:
        rows = data["factors"]
        specs, xs = [], []
        for f, row in enumerate(rows):
            try:
                stype = SimpleType(str(row["family"]).upper(), row["rank"])
            except DynkinTypeError as exc:
                raise DynkinTypeError(f"factor {f}: {exc}") from None
            norm = Normalization.parse(str(row.get("normalization", "long2")))
            z, x = row.get("z", 1.0), row.get("x")
            if not _is_number(z):
                raise ValueError(f"factor {f}: z must be a number, got {z!r}")
            if x is not None and not (isinstance(x, list) and all(map(_is_number, x))):
                raise ValueError(f"factor {f}: x must be a list of numbers, got {x!r}")
            specs.append(FactorSpec(stype, norm, float(z)))
            xs.append(x)
        group = GroupSpec(specs)
        fiber = [np.ones(rs.npositive) if x is None else x for x, rs in zip(xs, group.systems)]
        torus = data.get("torus", "killing")
        if isinstance(torus, dict):
            blocks = (_number_rows(b, f"torus block {f}") for f, b in enumerate(torus["blocks"]))
            torus = TorusMetric(group.layout.blockdiag(blocks))
        elif torus != "killing":
            raise ValueError(f"unknown torus entry {torus!r}")
        jt = data.get("jt")
        if jt is not None:
            _number_rows(jt, "jt")
        return HermitianStructure(group, fiber=FiberMetric(fiber), torus=torus, jt=jt)
    except (KeyError, TypeError, OverflowError) as exc:  # an int too large for a float
        raise ValueError(f"invalid structure data: {exc!r}") from exc


def save_structure(h: HermitianStructure, path) -> None:
    """Write h as JSON; a structure that does not serialize leaves path untouched."""
    text = json.dumps(structure_to_dict(h), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_structure(path) -> HermitianStructure:
    with open(path, encoding="utf-8") as fh:
        return structure_from_dict(json.load(fh))
