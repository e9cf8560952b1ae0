"""Metric flow on the fiber family, driven by the gradient of the potential.

State vectors are the simple-root values of every factor concatenated; each
factor evolves under minus its gram matrix applied to the factor gradient,
which is exactly the induced flow of the geometric evolution on this family.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .curvature import _family_checked, functional_F, grad_F
from .errors import PositivityError
from .hermitian import family_values, finite_positive
from .roots import RootSystem

_TERMINATIONS = ("converged", "t_end_reached", "positivity_violation")


def _systems(arg) -> list[RootSystem]:
    if isinstance(arg, RootSystem):
        return [arg]
    if hasattr(arg, "systems"):
        return list(arg.systems)
    return list(arg)


def gram_matrix(systems) -> np.ndarray:
    """Block-diagonal gram matrix of the factor list."""
    sys_list = _systems(systems)
    n = sum(rs.rank for rs in sys_list)
    out = np.zeros((n, n))
    off = 0
    for rs in sys_list:
        out[off : off + rs.rank, off : off + rs.rank] = rs.gram_float
        off += rs.rank
    return out


def _slices(sys_list):
    off = 0
    for rs in sys_list:
        yield rs, slice(off, off + rs.rank)
        off += rs.rank


def total_functional(systems, x) -> float:
    sys_list = _systems(systems)
    x = np.asarray(x, dtype=float)
    return sum(functional_F(rs, x[sl]) for rs, sl in _slices(sys_list))


def total_gradient(systems, x) -> np.ndarray:
    sys_list = _systems(systems)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for rs, sl in _slices(sys_list):
        out[sl] = grad_F(rs, x[sl])
    return out


def rhs(systems, x) -> np.ndarray:
    """Flow velocity: minus the gram matrix applied to the gradient, per factor."""
    sys_list = _systems(systems)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for rs, sl in _slices(sys_list):
        out[sl] = -rs.gram_float @ grad_F(rs, x[sl])
    return out


def per_root_rhs(systems, x, factor: int, root) -> float:
    """Velocity of the induced value on any root, straight from the definition.

    Equals the matching combination of rhs components; kept as an independent
    cross-check of the rearrangement used there.
    """
    sys_list = _systems(systems)
    x = np.asarray(x, dtype=float)
    rs = sys_list[factor]
    off = sum(r.rank for r in sys_list[:factor])
    vals = _family_checked(rs, x[off : off + rs.rank])
    j = rs.index_of(root)
    total = 0.0
    for t in range(rs.npositive):
        total -= (1.0 - 1.0 / vals[t]) * float(rs.gram_scale * rs.inner_at(t, j))
    return total


@dataclass
class FlowConfig:
    integrator: str = "rk4_fixed"
    h: float = 0.01
    t_end: float = 100.0
    tol: float = 1e-8
    eps_pos: float = 1e-8
    rel_tol: float = 1e-8
    min_step: float = 1e-12

    def __post_init__(self):
        if self.integrator not in ("rk4_fixed", "rkf45"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        for name in ("h", "t_end", "tol", "eps_pos", "rel_tol", "min_step"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class FlowState:
    t: float
    x: np.ndarray


class _Violation(Exception):
    """Internal: a stage left the admissible region."""


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    f_values: np.ndarray
    grad_inf: np.ndarray
    termination: str
    metadata: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    @property
    def final(self) -> FlowState:
        return FlowState(t=float(self.times[-1]), x=self.states[-1].copy())

    def to_csv(self, path_or_buf) -> None:
        buf = path_or_buf if hasattr(path_or_buf, "write") else open(path_or_buf, "w")
        try:
            for key, val in {**self.metadata, "termination": self.termination}.items():
                buf.write(f"# {key} = {val}\n")
            n = self.states.shape[1]
            buf.write("t," + ",".join(f"x_{i + 1}" for i in range(n)) + ",F,grad_inf\n")
            for i in range(len(self.times)):
                row = [self.times[i], *self.states[i], self.f_values[i], self.grad_inf[i]]
                buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
        finally:
            if buf is not path_or_buf:
                buf.close()

    @staticmethod
    def from_csv(path_or_buf) -> "Trajectory":
        buf = path_or_buf if hasattr(path_or_buf, "read") else open(path_or_buf)
        try:
            meta: dict = {}
            header = None
            rows = []
            for line in buf:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    meta[key.strip()] = val.strip()
                elif header is None:
                    header = line.split(",")
                else:
                    rows.append([float(v) for v in line.split(",")])
        finally:
            if buf is not path_or_buf:
                buf.close()
        if header is None or not rows:
            raise ValueError("trajectory file has no data rows")
        data = np.array(rows)
        termination = meta.pop("termination", "unknown")
        return Trajectory(
            times=data[:, 0],
            states=data[:, 1:-2],
            f_values=data[:, -2],
            grad_inf=data[:, -1],
            termination=termination,
            metadata=meta,
        )

    def to_json(self) -> dict:
        return {
            "metadata": dict(self.metadata),
            "termination": self.termination,
            "times": self.times.tolist(),
            "states": self.states.tolist(),
            "f_values": self.f_values.tolist(),
            "grad_inf": self.grad_inf.tolist(),
        }

    @staticmethod
    def from_json(data: dict) -> "Trajectory":
        return Trajectory(
            times=np.asarray(data["times"], dtype=float),
            states=np.asarray(data["states"], dtype=float),
            f_values=np.asarray(data["f_values"], dtype=float),
            grad_inf=np.asarray(data["grad_inf"], dtype=float),
            termination=data.get("termination", "unknown"),
            metadata=dict(data.get("metadata", {})),
        )

    def to_csv_string(self) -> str:
        out = io.StringIO()
        self.to_csv(out)
        return out.getvalue()


def _check_start(sys_list, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).copy()
    n = sum(rs.rank for rs in sys_list)
    if x0.shape != (n,):
        raise ValueError(f"state must have length {n}, got shape {x0.shape}")
    if not finite_positive(x0).all():
        raise PositivityError(f"start values must be finite and positive, got {x0.tolist()}")
    for rs, sl in _slices(sys_list):
        _family_checked(rs, x0[sl])
    return x0


def _guarded_rhs(sys_list, x, eps_pos):
    for rs, sl in _slices(sys_list):
        if (family_values(rs, x[sl]) <= eps_pos).any():
            raise _Violation
    return rhs(sys_list, x)


def _rk4_step(sys_list, x, h, eps_pos):
    k1 = _guarded_rhs(sys_list, x, eps_pos)
    k2 = _guarded_rhs(sys_list, x + 0.5 * h * k1, eps_pos)
    k3 = _guarded_rhs(sys_list, x + 0.5 * h * k2, eps_pos)
    k4 = _guarded_rhs(sys_list, x + h * k3, eps_pos)
    out = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    _guarded_rhs(sys_list, out, eps_pos)
    return out


_RKF_K = (
    (0.25,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def _rkf45_step(sys_list, x, h, eps_pos):
    ks = [_guarded_rhs(sys_list, x, eps_pos)]
    for row in _RKF_K:
        stage = x + h * sum(c * k for c, k in zip(row, ks))
        ks.append(_guarded_rhs(sys_list, stage, eps_pos))
    x4 = x + h * sum(c * k for c, k in zip(_RKF_B4, ks))
    x5 = x + h * sum(c * k for c, k in zip(_RKF_B5, ks))
    _guarded_rhs(sys_list, x5, eps_pos)
    return x5, float(np.abs(x5 - x4).max())


def integrate(systems, x0, config: FlowConfig | None = None) -> Trajectory:
    """Run the flow from x0 until convergence, t_end, or loss of positivity.

    Loss of positivity is recorded as the termination reason rather than
    raised, except when the starting point itself is inadmissible.
    """
    sys_list = _systems(systems)
    cfg = config or FlowConfig()
    x = _check_start(sys_list, x0)

    rows_t, rows_x, rows_f, rows_g = [], [], [], []

    def record(t, x):
        rows_t.append(t)
        rows_x.append(x.copy())
        rows_f.append(total_functional(sys_list, x))
        rows_g.append(float(np.abs(total_gradient(sys_list, x)).max()))

    def converged(x):
        return (
            np.abs(x - 1.0).max() < cfg.tol
            and np.abs(rhs(sys_list, x)).max() < cfg.tol
        )

    t = 0.0
    record(t, x)
    termination = None
    h = cfg.h
    while termination is None:
        if converged(x):
            termination = "converged"
            break
        if t >= cfg.t_end - 1e-15 * cfg.t_end:
            termination = "t_end_reached"
            break
        step = min(h, cfg.t_end - t)
        if cfg.integrator == "rk4_fixed":
            try:
                x_new = _rk4_step(sys_list, x, step, cfg.eps_pos)
            except _Violation:
                h = step / 2.0
                if h < cfg.min_step:
                    termination = "positivity_violation"
                continue
            x, t = x_new, t + step
            record(t, x)
            h = cfg.h
        else:
            try:
                x_new, err = _rkf45_step(sys_list, x, step, cfg.eps_pos)
            except _Violation:
                h = step / 2.0
                if h < cfg.min_step:
                    termination = "positivity_violation"
                continue
            scale = cfg.rel_tol * max(1.0, float(np.abs(x).max()))
            if err <= scale:
                x, t = x_new, t + step
                record(t, x)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
            h = step * factor
            if h < cfg.min_step:
                termination = "positivity_violation"

    meta = {
        "systems": " x ".join(f"{rs.stype}[{rs.normalization.value}]" for rs in sys_list),
        "integrator": cfg.integrator,
        "h": repr(cfg.h),
        "t_end": repr(cfg.t_end),
        "tol": repr(cfg.tol),
        "eps_pos": repr(cfg.eps_pos),
    }
    return Trajectory(
        times=np.array(rows_t),
        states=np.array(rows_x),
        f_values=np.array(rows_f),
        grad_inf=np.array(rows_g),
        termination=termination,
        metadata=meta,
    )


def gradient_flow_check(systems, x0, t_end: float = 1.0, h: float = 0.01) -> float:
    """Deviation between the flow and the conjugated plain gradient flow.

    Both runs use the same fixed grid and ignore convergence; the return value
    is the largest pointwise distance along the grid, which is bounded by the
    integrator error when the flow really is gradient-like.
    """
    sys_list = _systems(systems)
    x0 = _check_start(sys_list, x0)
    q = gram_matrix(sys_list)
    w, v = np.linalg.eigh(q)
    s = v @ np.diag(np.sqrt(w)) @ v.T
    s_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.T

    nsteps = max(1, int(np.ceil(t_end / h)))
    dt = t_end / nsteps

    def rk4(f, state):
        k1 = f(state)
        k2 = f(state + 0.5 * dt * k1)
        k3 = f(state + 0.5 * dt * k2)
        k4 = f(state + dt * k3)
        return state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def f_x(state):
        return rhs(sys_list, state)

    def f_y(state):
        return -(s @ total_gradient(sys_list, s @ state))

    x = x0.copy()
    y = s_inv @ x0
    worst = 0.0
    for _ in range(nsteps):
        x = rk4(f_x, x)
        y = rk4(f_y, y)
        worst = max(worst, float(np.abs(s @ y - x).max()))
    return worst
