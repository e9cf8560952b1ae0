"""Invariant Hermitian structures on products of compact simple groups.

A structure is a product of simple factors, a positive metric on the shared
maximal torus, one positive fiber value per positive root, and optionally a
complex structure on the torus. Torus vectors are coefficient vectors over
the complex basis elements H_a throughout this module.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    MissingComplexStructureError,
    PositivityError,
)
from .forms import ChevalleyBasis, InvariantForm, exterior_derivative
from .roots import Normalization, Root, RootSystem, SimpleType, build_root_system
from .structure import StructureConstants, structure_constants


@dataclass(frozen=True)
class FactorSpec:
    """One simple factor: type, inner-product normalization, scale z."""

    stype: SimpleType
    normalization: Normalization = Normalization.LONG2
    z: float = 1.0

    def __post_init__(self):
        if not self.z > 0:
            raise ValueError(f"factor scale z must be positive, got {self.z}")


class GroupSpec:
    """Product of simple factors with cached root data.

    Structure constants and the basis are built lazily; closed-form metric
    computations on large types never pay for them.
    """

    def __init__(self, factors: Sequence[FactorSpec]):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("a group needs at least one factor")
        self.systems: tuple[RootSystem, ...] = tuple(
            build_root_system(f.stype, f.normalization) for f in self.factors
        )
        self.rank_offsets = []
        r = 0
        for rs in self.systems:
            self.rank_offsets.append(r)
            r += rs.rank
        self.total_rank = r
        self._constants: tuple[StructureConstants, ...] | None = None
        self._basis: ChevalleyBasis | None = None

    @property
    def constants(self) -> tuple[StructureConstants, ...]:
        if self._constants is None:
            self._constants = tuple(structure_constants(rs) for rs in self.systems)
        return self._constants

    @property
    def basis(self) -> ChevalleyBasis:
        if self._basis is None:
            self._basis = ChevalleyBasis(list(zip(self.systems, self.constants)))
        return self._basis

    def embed(self, factor: int, coeffs) -> np.ndarray:
        v = np.zeros(self.total_rank)
        off = self.rank_offsets[factor]
        v[off : off + self.systems[factor].rank] = coeffs
        return v

    def gram_blockdiag(self, scales: Sequence[float] | None = None) -> np.ndarray:
        out = np.zeros((self.total_rank, self.total_rank))
        for f, rs in enumerate(self.systems):
            off = self.rank_offsets[f]
            s = 1.0 if scales is None else scales[f]
            out[off : off + rs.rank, off : off + rs.rank] = s * rs.gram_float
        return out

    def build(self, x=None, torus="killing", jt=None) -> "HermitianStructure":
        return HermitianStructure(self, fiber=x, torus=torus, jt=jt)


def _as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class TorusMetric:
    matrix: np.ndarray
    is_killing: bool = False

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-10 * scale:
            raise ValueError("torus metric must be symmetric")
        if np.linalg.eigvalsh(m).min() <= 0:
            raise ValueError("torus metric must be positive definite")

    @staticmethod
    def killing(group: GroupSpec) -> "TorusMetric":
        scales = [f.z for f in group.factors]
        return TorusMetric(group.gram_blockdiag(scales), is_killing=True)

    @staticmethod
    def from_blocks(blocks: Sequence) -> "TorusMetric":
        mats = [_as_matrix(b) for b in blocks]
        n = sum(m.shape[0] for m in mats)
        out = np.zeros((n, n))
        off = 0
        for m in mats:
            out[off : off + m.shape[0], off : off + m.shape[0]] = m
            off += m.shape[0]
        return TorusMetric(out)


@dataclass(frozen=True, eq=False)
class TorusComplexStructure:
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if np.abs(m @ m + np.eye(m.shape[0])).max() > 1e-10:
            raise ValueError("torus complex structure must square to -identity")


@dataclass(frozen=True)
class FiberMetric:
    """Raw positive value per positive root, per factor, in canonical order."""

    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        vals = tuple(tuple(float(v) for v in row) for row in self.values)
        object.__setattr__(self, "values", vals)
        for f, row in enumerate(vals):
            for t, v in enumerate(row):
                if not finite_positive(v):
                    raise PositivityError(
                        f"fiber value {v:.6g} at factor {f}, root position {t}"
                        " is not finite and positive",
                        value=v,
                    )


def finite_positive(values) -> np.ndarray:
    """Elementwise test that values are finite and strictly positive; NaN fails."""
    v = np.asarray(values, dtype=float)
    return np.isfinite(v) & (v > 0)


def induced_value_error(rs: RootSystem, root, value, factor=None) -> PositivityError:
    """The error for an induced fiber value of root that is not finite and positive."""
    bound = family_bound(rs)
    where = root.label if factor is None else f"{root.label} in factor {factor}"
    return PositivityError(
        f"induced value for root {where} is {value:.6g}, not finite and positive; "
        f"finite simple values above {bound:.6g} stay positive",
        root_label=root.label,
        value=float(value),
        bound=bound,
    )


class HermitianStructure:
    """Torus metric + fiber metric (+ optional torus complex structure)."""

    def __init__(self, group: GroupSpec, fiber=None, torus="killing", jt=None):
        self.group = group
        if fiber is None:
            fiber = FiberMetric(tuple(tuple(1.0 for _ in rs.positives) for rs in group.systems))
        elif not isinstance(fiber, FiberMetric):
            rows = fiber
            if len(group.factors) == 1 and np.ndim(rows[0]) == 0:
                rows = [rows]
            fiber = FiberMetric(tuple(tuple(float(v) for v in row) for row in rows))
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
            self.torus = TorusMetric.killing(group)
        else:
            self.torus = TorusMetric(_as_matrix(torus))
        if self.torus.matrix.shape[0] != group.total_rank:
            raise ValueError("torus metric size does not match the total rank")

        if jt is None or isinstance(jt, TorusComplexStructure):
            self.jt = jt
        else:
            self.jt = TorusComplexStructure(_as_matrix(jt))
        if self.jt is not None:
            j, g = self.jt.matrix, self.torus.matrix
            if j.shape != g.shape:
                raise ValueError("jt size does not match the total rank")
            if np.abs(j.T @ g @ j - g).max() > 1e-8 * max(1.0, np.abs(g).max()):
                raise ValueError("jt is not compatible with the torus metric")

        # effective fiber values: factor scale applied once, here
        self.xhat = tuple(
            spec.z * np.asarray(row, dtype=float)
            for spec, row in zip(group.factors, fiber.values)
        )
        self._x = tuple(row.tolist() for row in self.xhat)
        self.gt = self.torus.matrix
        self.q_full = group.gram_blockdiag()

    def xhat_of(self, factor: int, root: Root) -> float:
        return self._x[factor][self.group.systems[factor].positive_index(root)]

    def y(self, factor: int, root: Root) -> complex:
        return -1j * root.sign * self.xhat_of(factor, root)

    def parse_argument(self, arg):
        """Root (single factor), (factor, Root), or a torus vector over H_a."""
        if isinstance(arg, Root):
            if len(self.group.factors) != 1:
                raise ValueError("bare Root argument is ambiguous on a product; pass (factor, Root)")
            return ("t0", 0, arg)
        if (
            isinstance(arg, tuple)
            and len(arg) == 2
            and isinstance(arg[0], int)
            and isinstance(arg[1], Root)
        ):
            f, root = arg
            if not 0 <= f < len(self.group.factors):
                raise ValueError(f"factor index {f} out of range")
            return ("t0", f, root)
        v = np.asarray(arg, dtype=complex)
        if v.shape != (self.group.total_rank,):
            raise ValueError(
                f"torus vector must have length {self.group.total_rank}, got shape {v.shape}"
            )
        return ("torus", v)


def _split_args(h: HermitianStructure, args):
    parsed = [h.parse_argument(a) for a in args]
    torus = [p[1] for p in parsed if p[0] == "torus"]
    roots = [(p[1], p[2]) for p in parsed if p[0] == "t0"]
    positions = [i for i, p in enumerate(parsed) if p[0] == "torus"]
    return torus, roots, positions


def _first_derivative(h: HermitianStructure, args, conjugate: bool) -> complex:
    torus, roots, tpos = _split_args(h, args)
    if len(torus) >= 2:
        return 0j
    if len(torus) == 1:
        if not conjugate and h.jt is None:
            raise MissingComplexStructureError(
                "d_omega with a torus argument needs a torus complex structure"
            )
        (f1, r1), (f2, r2) = roots
        if f1 != f2 or r1.coeffs != (-r2).coeffs:
            return 0j
        sign = -1.0 if tpos[0] % 2 else 1.0
        k = h.group.embed(f1, r1.coeffs)
        t = torus[0] if conjugate else h.jt.matrix @ torus[0]
        return sign * -(t @ h.gt @ k)
    (f1, r1), (f2, r2), (f3, r3) = roots
    if not (f1 == f2 == f3):
        return 0j
    rs = h.group.systems[f1]
    i1, i2, i3 = (rs.index_of(r) for r in (r1, r2, r3))
    if rs.sum_index[i1, i2] != rs.neg_index[i3]:
        return 0j
    n = h.group.constants[f1].floats[i1][i2]
    ys = h.y(f1, r1) + h.y(f1, r2) + h.y(f1, r3)
    return 1j * (r1.sign * r2.sign * r3.sign) * n * ys if conjugate else n * ys


def d_omega(h: HermitianStructure, a, b, c) -> complex:
    """Exterior derivative of the fundamental form on three arguments."""
    return _first_derivative(h, (a, b, c), conjugate=False)


def dc_omega(h: HermitianStructure, a, b, c) -> complex:
    """The conjugated derivative; never needs the torus complex structure."""
    return _first_derivative(h, (a, b, c), conjugate=True)


def _pair_level_value(h: HermitianStructure, fa: int, i: int, fb: int, j: int) -> float:
    """dd^c on (E_a, E_-a, E_b, E_-b), a and b distinct positive roots by index."""
    ka = h.group.embed(fa, h.group.systems[fa].positives[i].coeffs)
    kb = h.group.embed(fb, h.group.systems[fb].positives[j].coeffs)
    val = 2.0 * float(ka @ h.gt @ kb)
    if fa != fb:
        return val
    rs, sc, x = h.group.systems[fa], h.group.constants[fa], h._x[fa]
    n = rs.npositive
    up = rs.sum_index[i, j]
    if up >= 0:
        val -= 2.0 * float(sc.at(i, j).squared()) * (x[up] - x[i] - x[j])
    down = rs.diff_index[i, j]
    if down >= 0:
        eps = 1.0 if down < n else -1.0
        val -= 2.0 * eps * float(sc.at(i, n + j).squared()) * (eps * x[down % n] - x[i] + x[j])
    return val


def _quad_level_value(h: HermitianStructure, f: int, a: int, b: int, c: int, d: int) -> float:
    """dd^c on (E_a, E_b, E_c, E_d) by root index: a, b positive, c, d negative,
    sum zero, no opposite pair."""
    rs, fl, x = h.group.systems[f], h.group.constants[f].floats, h._x[f]
    n, add = rs.npositive, rs.sum_index
    xa, xb, xc, xd = x[a], x[b], x[c - n], x[d - n]
    val = 0.0
    up = add[a, b]
    if up >= 0:
        val += fl[a][b] * fl[c][d] * (xa + xb + xc + xd - 2.0 * x[up])
    ac = add[a, c]
    if ac >= 0:
        eps = 1.0 if ac < n else -1.0
        val -= eps * fl[a][c] * fl[b][d] * (-xa + xb + xc - xd + 2.0 * eps * x[ac % n])
    ad = add[a, d]
    if ad >= 0:
        eps = 1.0 if ad < n else -1.0
        val += eps * fl[a][d] * fl[b][c] * (-xa + xb - xc + xd + 2.0 * eps * x[ad % n])
    return val


def _perm_sign(src: list, dst: list) -> float:
    perm = [dst.index(k) for k in src]
    inv = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1.0 if inv % 2 else 1.0


def ddc_omega(h: HermitianStructure, a, b, c, d) -> float:
    """dd^c of the fundamental form on four arguments; real-valued."""
    torus, roots, _ = _split_args(h, (a, b, c, d))
    if torus:
        return 0.0
    keys = [(f, h.group.systems[f].index_of(r)) for f, r in roots]
    if len(set(keys)) != 4:
        return 0.0
    for f in {f for f, _ in roots}:
        if np.any(sum(np.array(r.coeffs) for g, r in roots if g == f)):
            return 0.0

    # opposite pair present: pair-level branch
    for i in range(4):
        for j in range(i + 1, 4):
            (fi, ri), (fj, rj) = keys[i], keys[j]
            if fi == fj and rj == h.group.systems[fi].neg_index[ri]:
                fb, rb = keys[next(m for m in range(4) if m not in (i, j))]
                na, nb = h.group.systems[fi].npositive, h.group.systems[fb].npositive
                ia, ib = ri % na, rb % nb
                if (fi, ia) == (fb, ib):
                    return 0.0
                dst = [(fi, ia), (fi, ia + na), (fb, ib), (fb, ib + nb)]
                return _perm_sign(keys, dst) * _pair_level_value(h, fi, ia, fb, ib)

    f, n = keys[0][0], h.group.systems[keys[0][0]].npositive
    pos = sorted(i for _, i in keys if i < n)
    neg = sorted(i for _, i in keys if i >= n)
    if len(pos) != 2:
        return 0.0
    return _perm_sign(keys, [(f, i) for i in pos + neg]) * _quad_level_value(h, f, *pos, *neg)


def omega_form(h: HermitianStructure, basis: ChevalleyBasis | None = None) -> InvariantForm:
    """The fundamental 2-form on the full basis; needs jt for the torus block."""
    if h.jt is None:
        raise MissingComplexStructureError("the fundamental form needs a torus complex structure")
    basis = basis or h.group.basis
    comps: dict[tuple[int, ...], complex] = {}
    m = -(h.jt.matrix.T @ h.gt)
    r = h.group.total_rank
    for a in range(r):
        for b in range(a + 1, r):
            if m[a, b]:
                comps[(a, b)] = complex(m[a, b])
    for f, rs in enumerate(h.group.systems):
        for root in rs.positives:
            comps[(basis.root_index(f, root), basis.root_index(f, -root))] = -1j * h.xhat_of(
                f, root
            )
    return InvariantForm(basis=basis, degree=2, components=comps)


def dc_form(h: HermitianStructure, basis: ChevalleyBasis | None = None) -> InvariantForm:
    """The 3-form d^c of the fundamental form, assembled componentwise."""
    basis = basis or h.group.basis
    comps: dict[tuple[int, ...], complex] = {}
    for f, rs in enumerate(h.group.systems):
        for root in rs.positives:
            gk = h.gt @ h.group.embed(f, root.coeffs)
            ip, im = basis.root_index(f, root), basis.root_index(f, -root)
            for a in range(h.group.total_rank):
                if gk[a]:
                    comps[(a, ip, im)] = complex(-gk[a])
        n, fl, x = rs.npositive, h.group.constants[f].floats, h._x[f]
        for eta, theta, xi in zip(*(v.tolist() for v in rs.positive_sums())):
            for triple in ((eta, theta, n + xi), (n + eta, n + theta, xi)):
                idx = sorted((basis.element_index(f, r), r) for r in triple)
                rts = [r for _, r in idx]
                signs = [1 if r < n else -1 for r in rts]
                eps = signs[0] * signs[1] * signs[2]
                total_y = sum(-1j * sg * x[r % n] for sg, r in zip(signs, rts))
                comps[tuple(k for k, _ in idx)] = 1j * eps * fl[rts[0]][rts[1]] * total_y
    return InvariantForm(basis=basis, degree=3, components=comps)


def theta_form(h: HermitianStructure, x, basis: ChevalleyBasis | None = None) -> InvariantForm:
    """Metric-dual 1-form of an algebra element."""
    basis = basis or h.group.basis
    comps: dict[tuple[int, ...], complex] = {}
    parsed = h.parse_argument(x)
    if parsed[0] == "torus":
        gv = h.gt @ parsed[1]
        for a in range(h.group.total_rank):
            if gv[a]:
                comps[(a,)] = complex(-gv[a])
    else:
        _, f, root = parsed
        comps[(basis.root_index(f, -root),)] = complex(-h.xhat_of(f, root))
    return InvariantForm(basis=basis, degree=1, components=comps)


def sigma_form(h: HermitianStructure, x, basis: ChevalleyBasis | None = None) -> InvariantForm:
    """2-form pairing brackets against x through the invariant form."""
    basis = basis or h.group.basis
    parsed = h.parse_argument(x)
    comps: dict[tuple[int, ...], complex] = {}
    for (i, j), terms in basis.nonzero_brackets():
        val = 0j
        for m, cm in terms:
            desc = basis.descriptors[m]
            if parsed[0] == "torus" and desc[0] == "H":
                a = basis.torus_index(desc[1], desc[2])
                val += cm * (h.q_full[a] @ parsed[1])
            elif parsed[0] == "t0" and desc[0] == "E":
                _, f, root = parsed
                if desc[1] == f and desc[2].coeffs == tuple(-v for v in root.coeffs):
                    val += cm
        if val:
            comps[(i, j)] = val
    return InvariantForm(basis=basis, degree=2, components=comps)


def d_star_omega(h: HermitianStructure) -> np.ndarray:
    """Codifferential of the fundamental form as the torus vector it is dual to."""
    out = np.zeros(h.group.total_rank)
    for f, rs in enumerate(h.group.systems):
        for t, root in enumerate(rs.positives):
            out -= h.group.embed(f, root.coeffs) / h.xhat[f][t]
    return out


@dataclass
class PluriclosedReport:
    verdict: bool
    max_residual: float
    witness: str | None
    skt1_max: float
    skt2_max: float
    mode: str
    tol: float


def _closed_form_scan(h: HermitianStructure) -> tuple[float, str | None, float, float]:
    best = (0.0, None)
    skt1_max = 0.0
    skt2_max = 0.0
    nfac = len(h.group.factors)
    for f in range(nfac):
        rs = h.group.systems[f]
        pos = rs.positives
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                r = abs(_pair_level_value(h, f, i, f, j)) / 2.0
                if r > skt1_max:
                    skt1_max = r
                if r > best[0]:
                    best = (r, f"pair ({pos[i].label}, {pos[j].label}) in factor {f}")
        n = len(pos)
        for i, j, m, l in rs.positive_quads().tolist():
            r = abs(_quad_level_value(h, f, i, j, n + m, n + l)) / 2.0
            if r > skt2_max:
                skt2_max = r
            if r > best[0]:
                best = (
                    r,
                    f"quad ({pos[i].label}, {pos[j].label}, -{pos[m].label}, -{pos[l].label})"
                    f" in factor {f}",
                )
    for fa in range(nfac):
        for fb in range(fa + 1, nfac):
            pa, pb = h.group.systems[fa].positives, h.group.systems[fb].positives
            for i, j in itertools.product(range(len(pa)), range(len(pb))):
                r = abs(_pair_level_value(h, fa, i, fb, j)) / 2.0
                if r > skt1_max:
                    skt1_max = r
                if r > best[0]:
                    best = (r, f"pair (factor {fa}: {pa[i].label}, factor {fb}: {pb[j].label})")
    return best[0], best[1], skt1_max, skt2_max


def _brute_force_scan(h: HermitianStructure) -> tuple[float, str | None, float, float]:
    basis = h.group.basis
    four = exterior_derivative(dc_form(h, basis))
    best = (0.0, None)
    skt1_max = 0.0
    skt2_max = 0.0
    for key, val in four.components.items():
        r = abs(val) / 2.0
        descs = [basis.descriptors[i] for i in key]
        if all(dd[0] == "E" for dd in descs):
            pairs: dict[tuple, int] = {}
            for dd in descs:
                pk = (dd[1], dd[2].positive.coeffs)
                pairs[pk] = pairs.get(pk, 0) + 1
            bucket = "skt1" if len(pairs) == 2 and all(v == 2 for v in pairs.values()) else "skt2"
        else:
            bucket = "mixed"
        if bucket == "skt1" and r > skt1_max:
            skt1_max = r
        if bucket == "skt2" and r > skt2_max:
            skt2_max = r
        if r > best[0]:
            names = ", ".join(
                f"H_{dd[2] + 1}" if dd[0] == "H" else f"factor {dd[1]}: {dd[2].label}"
                for dd in descs
            )
            best = (r, f"{bucket} ({names})")
    return best[0], best[1], skt1_max, skt2_max


def is_pluriclosed(
    h: HermitianStructure, mode: str = "closed_form", tol: float = 1e-8
) -> PluriclosedReport:
    """Scan dd^c of the fundamental form and report the worst component / 2."""
    if mode == "closed_form":
        max_res, witness, skt1_max, skt2_max = _closed_form_scan(h)
    elif mode == "brute_force":
        max_res, witness, skt1_max, skt2_max = _brute_force_scan(h)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected closed_form or brute_force")
    return PluriclosedReport(
        verdict=max_res < tol,
        max_residual=max_res,
        witness=witness,
        skt1_max=skt1_max,
        skt2_max=skt2_max,
        mode=mode,
        tol=tol,
    )


def family_bound(rs: RootSystem) -> float:
    """Simple values at or above this make every induced fiber value positive."""
    return 1.0 - 1.0 / rs.maximal_root.height


def _simple_array(rs: RootSystem, simple_values) -> np.ndarray:
    s = np.asarray(simple_values, dtype=float)
    if s.shape != (rs.rank,):
        raise ValueError(f"{rs.stype} needs {rs.rank} simple values, got shape {s.shape}")
    return s


def family_values(rs: RootSystem, simple_values) -> np.ndarray:
    """Fiber values induced by values on the simple roots, affinely through 1."""
    return 1.0 + rs.coefficient_matrix @ (_simple_array(rs, simple_values) - 1.0)


def pluriclosed_family(group: GroupSpec, simple_values) -> HermitianStructure:
    """The pluriclosed structure determined by values on the simple roots.

    Raises PositivityError naming the first root whose induced value fails.
    """
    rows = simple_values
    if len(group.factors) == 1 and np.ndim(rows[0]) == 0:
        rows = [rows]
    if len(rows) != len(group.factors):
        raise ValueError("need one tuple of simple values per factor")
    xs = []
    for f, rs in enumerate(group.systems):
        simple = _simple_array(rs, rows[f])
        # A simple value is its root's induced value; refusing a bad one before
        # the matmul keeps an infinite one from meeting the zero coefficients.
        bad = np.nonzero(~finite_positive(simple))[0]
        if bad.size:
            raise induced_value_error(rs, rs.simples[bad[0]], simple[bad[0]], f)
        vals = family_values(rs, simple)
        bad = np.nonzero(~finite_positive(vals))[0]
        if bad.size:
            raise induced_value_error(rs, rs.positives[bad[0]], vals[bad[0]], f)
        xs.append(tuple(float(v) for v in vals))
    return HermitianStructure(group, fiber=FiberMetric(tuple(xs)), torus="killing")


def kahler_flag_residual(h: HermitianStructure) -> float:
    """Worst additivity defect of the fiber values over root sums."""
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


def biinvariant_compatible(group: GroupSpec, jt, tol: float = 1e-10) -> CompatibilityCone:
    """Which block scalings of the torus metric the given jt preserves."""
    j = _as_matrix(jt.matrix if isinstance(jt, TorusComplexStructure) else jt)
    r = group.total_rank
    if j.shape != (r, r):
        raise ValueError(f"jt must be {r}x{r} for this group")
    nfac = len(group.factors)
    cols = []
    for f in range(nfac):
        d = np.zeros((r, r))
        off = group.rank_offsets[f]
        rk = group.systems[f].rank
        d[off : off + rk, off : off + rk] = group.systems[f].gram_float
        cols.append((j.T @ d @ j - d).ravel())
    m = np.array(cols).T
    _, svals, vt = np.linalg.svd(m)
    smax = svals.max(initial=0.0)
    null = [vt[i] for i in range(nfac) if (svals[i] if i < len(svals) else 0.0) <= tol * max(smax, 1.0)]
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
    """False when jt keeps the torus of some proper set of factors invariant."""
    j = _as_matrix(jt.matrix if isinstance(jt, TorusComplexStructure) else jt)
    nfac = len(group.factors)
    if nfac == 1:
        return True
    if nfac > 20:
        raise ValueError(f"subset scan over {nfac} factors is not tractable")
    spans = []
    for f in range(nfac):
        off = group.rank_offsets[f]
        spans.append(list(range(off, off + group.systems[f].rank)))
    for mask in range(1, 2**nfac - 1):
        inside = [i for f in range(nfac) if mask >> f & 1 for i in spans[f]]
        outside = [i for f in range(nfac) if not mask >> f & 1 for i in spans[f]]
        if np.abs(j[np.ix_(outside, inside)]).max() <= tol:
            return False
    return True


def canonical_jt(gt: np.ndarray) -> np.ndarray:
    """A complex structure compatible with the given torus metric."""
    g = _as_matrix(gt)
    r = g.shape[0]
    if r % 2:
        raise ValueError(f"torus complex structures need even rank, got {r}")
    w, v = np.linalg.eigh(g)
    if w.min() <= 0:
        raise ValueError("torus metric must be positive definite")
    half = v @ np.diag(np.sqrt(w)) @ v.T
    inv_half = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    j0 = np.zeros((r, r))
    for a in range(0, r, 2):
        j0[a, a + 1] = -1.0
        j0[a + 1, a] = 1.0
    return inv_half @ j0 @ half


def structure_to_dict(h: HermitianStructure) -> dict:
    factors = []
    for f, spec in enumerate(h.group.factors):
        factors.append(
            {
                "family": spec.stype.family,
                "rank": spec.stype.rank,
                "normalization": spec.normalization.value,
                "z": spec.z,
                "x": list(h.fiber.values[f]),
            }
        )
    out: dict = {"factors": factors}
    if h.torus.is_killing:
        out["torus"] = "killing"
    else:
        blocks = []
        probe = h.gt.copy()
        for f, rs in enumerate(h.group.systems):
            off = h.group.rank_offsets[f]
            blocks.append(h.gt[off : off + rs.rank, off : off + rs.rank].tolist())
            probe[off : off + rs.rank, off : off + rs.rank] = 0.0
        if np.abs(probe).max() > 0:
            raise ValueError(
                "torus metric couples different factors; only block-diagonal metrics serialize"
            )
        out["torus"] = {"blocks": blocks}
    if h.jt is not None:
        out["jt"] = h.jt.matrix.tolist()
    return out


def structure_from_dict(data: dict) -> HermitianStructure:
    try:
        rows = data["factors"]
        specs = []
        xs = []
        for row in rows:
            stype = SimpleType(str(row["family"]).upper(), int(row["rank"]))
            norm = Normalization.parse(str(row.get("normalization", "long2")))
            specs.append(FactorSpec(stype, norm, float(row.get("z", 1.0))))
            xs.append(row.get("x"))
        group = GroupSpec(specs)
        fiber = tuple(
            tuple(float(v) for v in x) if x is not None else tuple(1.0 for _ in rs.positives)
            for x, rs in zip(xs, group.systems)
        )
        torus = data.get("torus", "killing")
        if isinstance(torus, dict):
            torus = TorusMetric.from_blocks(torus["blocks"])
        elif torus != "killing":
            raise ValueError(f"unknown torus entry {torus!r}")
        jt = data.get("jt")
        if jt is not None:
            jt = TorusComplexStructure(np.asarray(jt, dtype=float))
        return HermitianStructure(group, fiber=FiberMetric(fiber), torus=torus, jt=jt)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"invalid structure data: {exc!r}") from exc


def save_structure(h: HermitianStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(structure_to_dict(h), fh, indent=2)
        fh.write("\n")


def load_structure(path) -> HermitianStructure:
    with open(path, encoding="utf-8") as fh:
        return structure_from_dict(json.load(fh))
