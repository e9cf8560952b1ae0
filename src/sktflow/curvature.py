"""Ricci representatives of canonical connections, and the CYT test.

The first Ricci classes of the relevant connections are determined by a
single torus vector each; a structure has vanishing Bismut class exactly when
that vector is zero, which happens on the fiber family only at the normalized
bi-invariant point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# grad_F stays a module attribute: perfbench/tracing.py wraps it.
from .family import grad_F  # noqa: F401
from .forms import ChevalleyBasis, InvariantForm
from .hermitian import HermitianStructure, d_star_omega, sigma_form, z_vector
from .roots import check_positive, number_array


@dataclass(frozen=True)
class TorusVector:
    """Coefficients over the complex torus basis elements H_a."""

    components: np.ndarray

    def __post_init__(self):
        v = number_array(self.components, what="torus vector")
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
    tol = check_positive(tol)
    rep = bismut_ricci(h)
    res = rep.vector.sup_norm
    return CytReport(verdict=res < tol, vector=rep.vector.components, residual=res, tol=tol)
