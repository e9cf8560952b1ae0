"""The fiber family: the affine map from simple values to induced values,
its positivity guard, and the potential F whose gradient flow it carries.

On a root system with positive-root coefficient matrix K, simple values s
induce the fiber values v = 1 + K(s - 1). F = sum(v - log v) has gradient
Kᵀ(1 - 1/v) and Hessian Kᵀ diag(1/v²) K, and is defined where every v is
finite and positive. Simple values are read by roots.number_array.

The factors are given as a RootSystem, a sequence of them, a GroupSpec or a
FactorLayout; FactorLayout.of resolves all four, and K stacks every factor's rows.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

from .errors import ConsistencyError, PositivityError
from .roots import FactorLayout, RootSystem, check_count, check_positive, number_array

# A non-finite induced value is refused by family_gradient's guard (or, from
# family_values, returned), so numpy need not warn: the per-point functions run
# under np.errstate(**QUIET).
QUIET = {"invalid": "ignore", "over": "ignore"}


def simple_array(rs: RootSystem, simple_values) -> np.ndarray:
    """simple_values as a real array with one entry per simple root of rs."""
    return number_array(simple_values, rs.rank, f"{rs.stype} simple values")


def finite_positive(values: np.ndarray) -> np.ndarray:
    """Elementwise test that float values are finite and strictly positive; NaN fails."""
    return np.isfinite(values) & (values > 0)


def family_bound(rs: RootSystem) -> float:
    """(h - 1)/h, h the maximal root's height, within one ulp. At simple values all
    (h - 1)/h the maximal root's induced value is 0 and every other one positive;
    strictly above it every induced value is positive. At the float itself an
    induced value may round to 0 or just below."""
    return 1.0 - 1.0 / rs.maximal_root.height


_ONE = np.array(1.0)  # the operand 1.0, as a read-only 0-d array
_ONE.flags.writeable = False


def _induced(k: np.ndarray, s: np.ndarray) -> np.ndarray:
    """v = 1 + K(s - 1), the one formula for the induced values."""
    return k.dot(s - _ONE) + _ONE


def _state(systems, x) -> tuple[FactorLayout, np.ndarray]:
    """The layout of systems, and x read as its state."""
    layout = FactorLayout.of(systems)
    return layout, number_array(x, layout.size, "state")


@np.errstate(**QUIET)
def family_values(systems, x) -> np.ndarray:
    """Fiber values induced by values on the simple roots, affinely through 1."""
    layout, x = _state(systems, x)
    return _induced(layout.coefficient_matrix, x)


class Violation(Exception):
    """Some induced value is at or below a positive guard eps."""


def family_gradient(rs: RootSystem | FactorLayout, s: np.ndarray, eps: float = 0.0, factor=None):
    """v = 1 + K(s - 1) and the gradient g = Kᵀ(1 - 1/v) of F at simple values s, a float array.

    rs is a RootSystem, or a FactorLayout read as one system whose K stacks
    every factor's rows. With eps > 0 this raises Violation when some v is
    at or below eps; it raises PositivityError, naming the root (and the
    factor, if one is given or rs is a product), when some v is not finite
    and positive.

    An evaluation is a few elements wide, so its cost is numpy call
    overhead, and each call here is the cheapest that gives the same bits:
    the operand 1.0 is _ONE, a 0-d array, which dispatches faster than a
    Python float, .dot gives the bits of @ in about half its dispatch time,
    and _admissible is the guard.
    """
    k = rs.coefficient_matrix
    v = _induced(k, s)
    if not _admissible(v, eps):
        _refuse(rs, s, v, eps, factor)
    return v, (_ONE - _ONE / v).dot(k)


def _admissible(v: np.ndarray, eps: float) -> bool:
    """The guard min(v) > eps and max(v) < inf, False when some v is NaN.

    It reads v at v.argmin() and v.argmax(): C methods with no Python
    wrapper, each about a third of a ufunc reduction's cost. Both pick the
    first NaN when there is one, and neither raises a floating-point warning.
    """
    return v[v.argmin()] > eps and v[v.argmax()] < np.inf


def _refuse(rs, s: np.ndarray, v: np.ndarray, eps: float, factor=None):
    """Raise for induced values v of s that fail the guard v > eps, v < inf.

    Violation when eps > 0 and some v is at or below it; otherwise
    PositivityError naming the first bad simple value, else the first bad
    induced value, located by the layout's offsets.
    """
    if eps > 0 and (v <= eps).any():
        raise Violation
    layout = FactorLayout.of(rs)
    bad = np.flatnonzero(~finite_positive(s))  # name a bad simple value, not its NaN
    if bad.size:
        f, i = layout.locate(bad[0])
        root, value = layout.systems[f].simples[i], s[bad[0]]
    else:
        t = np.flatnonzero(~((v > eps) & (v < np.inf)))[0]  # the guard fails, so one exists
        f, i = layout.locate(t, rows=True)
        root, value = layout.systems[f].positives[i], v[t]
    if rs is layout and len(layout.systems) > 1:
        factor = f
    raise induced_value_error(layout.systems[f], root, value, factor)


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


def potential(v: np.ndarray) -> float:
    """F = sum(v - log v) over induced values v, with np.add.reduce, the sum
    ndarray.sum calls, called without that method's Python wrapper."""
    return float(np.add.reduce(v - np.log(v)))


def _hessian(layout: FactorLayout, v: np.ndarray) -> np.ndarray:
    k = layout.coefficient_matrix
    return (k / v[:, None] ** 2).T @ k


@np.errstate(**QUIET)
def functional_F(systems, x) -> float:
    """Strictly convex potential whose only critical point is all ones."""
    return potential(family_gradient(*_state(systems, x))[0])


@np.errstate(**QUIET)
def grad_F(systems, x) -> np.ndarray:
    return family_gradient(*_state(systems, x))[1]


@np.errstate(**QUIET)
def hessian_F(systems, x) -> np.ndarray:
    layout, x = _state(systems, x)
    return _hessian(layout, family_gradient(layout, x)[0])


@np.errstate(**QUIET)
def critical_point(systems, x0=None, tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Damped Newton minimizer of the potential over the positive family domain."""
    tol, max_iter = check_positive(tol), check_count(max_iter, "max_iter")
    layout = FactorLayout.of(systems)
    x = np.ones(layout.size) if x0 is None else _state(layout, x0)[1].copy()
    v, g = family_gradient(layout, x)
    steps = 0
    while not np.abs(g).max() < tol:  # tested before the first step and after the last
        if steps == max_iter:
            raise ConsistencyError(f"Newton did not reach tolerance {tol} in {max_iter} iterations")
        steps += 1
        step = np.linalg.solve(_hessian(layout, v), -g)
        f0 = potential(v)
        t = 1.0
        while t > 1e-14:
            cand = x + t * step
            with suppress(PositivityError):  # cand is outside the domain
                v_c, g_c = family_gradient(layout, cand)
                if potential(v_c) <= f0 + 1e-12 * (1.0 + abs(f0)):
                    break
            t /= 2
        else:
            raise ConsistencyError("backtracking line search stalled")
        x, v, g = cand, v_c, g_c
    return x


def sqrt_and_inverse(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric square root of a positive-definite g, and its inverse."""
    w, v = np.linalg.eigh(g)
    if w.min() <= 0:
        raise ValueError("torus metric must be positive definite")
    return v @ np.diag(np.sqrt(w)) @ v.T, v @ np.diag(1.0 / np.sqrt(w)) @ v.T
