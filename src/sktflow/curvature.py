"""Ricci representatives of canonical connections, and the metric functional.

The first Ricci classes of the relevant connections are determined by a
single torus vector each; a structure has vanishing Bismut class exactly when
that vector is zero, which happens on the fiber family only at the normalized
bi-invariant point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .forms import ChevalleyBasis, InvariantForm
from .hermitian import HermitianStructure, family_values, induced_value_error, sigma_form
from .roots import RootSystem


@dataclass(frozen=True)
class TorusVector:
    """Coefficients over the complex torus basis elements H_a."""

    components: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.components, dtype=float)
        if v.ndim != 1:
            raise ValueError("torus vector must be one-dimensional")
        object.__setattr__(self, "components", v)

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.components).max(initial=0.0))


def z_vector(rs: RootSystem, weights=None) -> np.ndarray:
    """Sum of positive-root coefficient vectors, optionally divided per root."""
    k = rs.coefficient_matrix
    if weights is None:
        return k.sum(axis=0)
    w = np.asarray(weights, dtype=float)
    if w.shape != (rs.npositive,):
        raise ValueError(f"{rs.stype} needs {rs.npositive} weights, got shape {w.shape}")
    return (k / w[:, None]).sum(axis=0)


def _concat_z(h: HermitianStructure, weighted: bool) -> np.ndarray:
    return np.concatenate(
        [z_vector(rs, h.xhat[f] if weighted else None) for f, rs in enumerate(h.group.systems)]
    )


@dataclass(frozen=True)
class RicciRep:
    """First Ricci class of a canonical connection, as its torus vector."""

    kind: str
    vector: TorusVector
    structure: HermitianStructure

    def two_form(self, basis: ChevalleyBasis | None = None) -> InvariantForm:
        return sigma_form(self.structure, self.vector.components, basis)


def chern_ricci(h: HermitianStructure) -> RicciRep:
    return RicciRep(kind="chern", vector=TorusVector(-_concat_z(h, weighted=False)), structure=h)


def bismut_ricci(h: HermitianStructure) -> RicciRep:
    zw = _concat_z(h, weighted=True)
    correction = np.linalg.solve(h.q_full, h.gt @ zw)
    vec = -_concat_z(h, weighted=False) + correction
    return RicciRep(kind="bismut", vector=TorusVector(vec), structure=h)


@dataclass
class CytReport:
    verdict: bool
    vector: np.ndarray
    residual: float
    tol: float


def is_cyt(h: HermitianStructure, tol: float = 1e-10) -> CytReport:
    """Whether the Bismut Ricci vector vanishes to within tol."""
    rep = bismut_ricci(h)
    res = rep.vector.sup_norm
    return CytReport(verdict=res < tol, vector=rep.vector.components, residual=res, tol=tol)


def _family_checked(rs: RootSystem, simple_values) -> np.ndarray:
    vals = family_values(rs, simple_values)
    bad = np.nonzero(~(vals > 0))[0]
    if bad.size:
        raise induced_value_error(rs, rs.positives[bad[0]], vals[bad[0]])
    return vals


def functional_F(rs: RootSystem, simple_values) -> float:
    """Strictly convex potential whose only critical point is all ones."""
    vals = _family_checked(rs, simple_values)
    return float(np.sum(vals - np.log(vals)))


def grad_F(rs: RootSystem, simple_values) -> np.ndarray:
    vals = _family_checked(rs, simple_values)
    return rs.coefficient_matrix.T @ (1.0 - 1.0 / vals)


def hessian_F(rs: RootSystem, simple_values) -> np.ndarray:
    vals = _family_checked(rs, simple_values)
    k = rs.coefficient_matrix
    return (k / vals[:, None] ** 2).T @ k


def critical_point(
    rs: RootSystem, x0=None, tol: float = 1e-10, max_iter: int = 200
) -> np.ndarray:
    """Damped Newton minimizer of the potential over the positive family domain."""
    x = np.ones(rs.rank) if x0 is None else np.asarray(x0, dtype=float).copy()
    _family_checked(rs, x)
    for _ in range(max_iter):
        g = grad_F(rs, x)
        if np.abs(g).max() < tol:
            return x
        step = np.linalg.solve(hessian_F(rs, x), -g)
        f0 = functional_F(rs, x)
        t = 1.0
        while t > 1e-14:
            cand = x + t * step
            if (family_values(rs, cand) > 0).all() and functional_F(rs, cand) <= f0 + 1e-12 * (
                1.0 + abs(f0)
            ):
                break
            t /= 2
        else:
            raise ConsistencyError("backtracking line search stalled")
        x = x + t * step
    raise ConsistencyError(f"Newton did not reach tolerance {tol} in {max_iter} iterations")
