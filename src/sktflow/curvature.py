"""Ricci representatives of canonical connections, and the metric functional.

The first Ricci classes of the relevant connections are determined by a
single torus vector each; a structure has vanishing Bismut class exactly when
that vector is zero, which happens on the fiber family only at the normalized
bi-invariant point.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, PositivityError
from .forms import ChevalleyBasis, InvariantForm
from .hermitian import (
    HermitianStructure,
    _QUIET,
    _check_tol,
    _simple_array,
    d_star_omega,
    family_gradient,
    sigma_form,
    z_vector,
)
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


@dataclass(frozen=True)
class RicciRep:
    """First Ricci class of a canonical connection, as its torus vector."""

    kind: str
    vector: TorusVector
    structure: HermitianStructure

    def two_form(self, basis: ChevalleyBasis | None = None) -> InvariantForm:
        return sigma_form(self.structure, self.vector.components, basis)


def chern_ricci(h: HermitianStructure) -> RicciRep:
    z = np.concatenate([z_vector(rs) for rs in h.group.systems])
    return RicciRep(kind="chern", vector=TorusVector(-z), structure=h)


def bismut_ricci(h: HermitianStructure) -> RicciRep:
    correction = np.linalg.solve(h.q_full, h.gt @ -d_star_omega(h))
    vec = chern_ricci(h).vector.components + correction
    return RicciRep(kind="bismut", vector=TorusVector(vec), structure=h)


@dataclass
class CytReport:
    verdict: bool
    vector: np.ndarray
    residual: float
    tol: float


def is_cyt(h: HermitianStructure, tol: float = 1e-10) -> CytReport:
    """Whether the Bismut Ricci vector vanishes to within tol."""
    _check_tol(tol)
    rep = bismut_ricci(h)
    res = rep.vector.sup_norm
    return CytReport(verdict=res < tol, vector=rep.vector.components, residual=res, tol=tol)


def potential(v: np.ndarray) -> float:
    """F = sum(v - log v) over induced values v, with np.add.reduce, the sum
    ndarray.sum calls, called without that method's Python wrapper."""
    return float(np.add.reduce(v - np.log(v)))


def _hessian(rs: RootSystem, v: np.ndarray) -> np.ndarray:
    k = rs.coefficient_matrix
    return (k / v[:, None] ** 2).T @ k


@np.errstate(**_QUIET)
def functional_F(rs: RootSystem, simple_values) -> float:
    """Strictly convex potential whose only critical point is all ones."""
    return potential(family_gradient(rs, _simple_array(rs, simple_values))[0])


@np.errstate(**_QUIET)
def grad_F(rs: RootSystem, simple_values) -> np.ndarray:
    return family_gradient(rs, _simple_array(rs, simple_values))[1]


@np.errstate(**_QUIET)
def hessian_F(rs: RootSystem, simple_values) -> np.ndarray:
    return _hessian(rs, family_gradient(rs, _simple_array(rs, simple_values))[0])


@np.errstate(**_QUIET)
def critical_point(rs: RootSystem, x0=None, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Damped Newton minimizer of the potential over the positive family domain."""
    _check_tol(tol)
    x = np.ones(rs.rank) if x0 is None else _simple_array(rs, x0).copy()
    v, g = family_gradient(rs, x)
    for _ in range(max_iter):
        if np.abs(g).max() < tol:
            return x
        step = np.linalg.solve(_hessian(rs, v), -g)
        f0 = potential(v)
        t = 1.0
        while t > 1e-14:
            cand = x + t * step
            with suppress(PositivityError):  # cand is outside the domain
                v_c, g_c = family_gradient(rs, cand)
                if potential(v_c) <= f0 + 1e-12 * (1.0 + abs(f0)):
                    break
            t /= 2
        else:
            raise ConsistencyError("backtracking line search stalled")
        x, v, g = cand, v_c, g_c
    raise ConsistencyError(f"Newton did not reach tolerance {tol} in {max_iter} iterations")
