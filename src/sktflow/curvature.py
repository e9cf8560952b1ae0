"""Ricci representatives of canonical connections, and the CYT test.

The first Ricci classes of the relevant connections are determined by a
single torus vector each, and chern_ricci and bismut_ricci return that
vector as a float array; sigma_form(h, vector) is the class's two-form. A
structure has vanishing Bismut class exactly when its vector is zero, which
happens on the fiber family only at the normalized bi-invariant point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# grad_F stays a module attribute: perfbench/tracing.py wraps it.
from .family import grad_F  # noqa: F401
from .hermitian import HermitianStructure, d_star_omega
from .roots import check_positive


def chern_ricci(h: HermitianStructure) -> np.ndarray:
    """The Chern Ricci torus vector: minus the column sums of the coefficient matrix."""
    return -h.group.layout.coefficient_matrix.sum(axis=0)


def bismut_ricci(h: HermitianStructure) -> np.ndarray:
    """The Bismut Ricci torus vector: the Chern vector corrected by -d*ω."""
    correction = np.linalg.solve(h.group.layout.gram_float, h.gt @ -d_star_omega(h))
    return chern_ricci(h) + correction


@dataclass
class CytReport:
    verdict: bool
    vector: np.ndarray
    residual: float
    tol: float


def is_cyt(h: HermitianStructure, tol: float = 1e-10) -> CytReport:
    """Whether the Bismut Ricci vector vanishes to within tol."""
    tol = check_positive(tol)
    vector = bismut_ricci(h)
    res = float(np.abs(vector).max(initial=0.0))
    return CytReport(verdict=res < tol, vector=vector, residual=res, tol=tol)
