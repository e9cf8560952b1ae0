"""Metric flow on the fiber family, driven by the gradient of the potential.

State vectors are the simple-root values of every factor concatenated; each
factor evolves under minus its gram matrix applied to the factor gradient,
which is exactly the induced flow of the geometric evolution on this family.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .curvature import _family_checked, functional_F, grad_F
from .errors import PositivityError
# family_values, grad_F and rhs stay module attributes: perfbench/tracing.py wraps them.
from .hermitian import family_values, finite_positive, induced_value_error  # noqa: F401
from .roots import RootSystem

_TERMINATIONS = ("converged", "t_end_reached", "positivity_violation", "step_underflow")


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
class FlowStats:
    """The work one integrate call did.

    evaluations counts guarded flow evaluations (stages and new points);
    rejected counts rkf45 steps refused by error control; halvings counts
    steps halved because a stage or the new point failed the positivity
    guard; h_min and h_max span the steps tried (0 when none was).
    """

    evaluations: int = 0
    accepted: int = 0
    rejected: int = 0
    halvings: int = 0
    h_min: float = 0.0
    h_max: float = 0.0
    wall_s: float = 0.0

    def to_meta(self) -> dict:
        """The `stats.<name>` metadata lines, values as exact reprs."""
        return {f"stats.{f.name}": repr(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def pop_meta(cls, meta: dict) -> "FlowStats | None":
        """Take the `stats.<name>` entries out of parsed metadata, if present."""
        found = {
            f.name: type(f.default)(meta.pop(f"stats.{f.name}"))
            for f in fields(cls)
            if f"stats.{f.name}" in meta
        }
        return cls(**found) if found else None


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    f_values: np.ndarray
    grad_inf: np.ndarray
    termination: str
    metadata: dict = field(default_factory=dict)
    stats: FlowStats | None = None

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    @property
    def final(self) -> FlowState:
        return FlowState(t=float(self.times[-1]), x=self.states[-1].copy())

    def to_csv(self, path_or_buf) -> None:
        buf = path_or_buf if hasattr(path_or_buf, "write") else open(path_or_buf, "w")
        try:
            stats = self.stats.to_meta() if self.stats is not None else {}
            for key, val in {**self.metadata, **stats, "termination": self.termination}.items():
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
        stats = FlowStats.pop_meta(meta)
        return Trajectory(
            times=data[:, 0],
            states=data[:, 1:-2],
            f_values=data[:, -2],
            grad_inf=data[:, -1],
            termination=termination,
            metadata=meta,
            stats=stats,
        )

    def to_json(self) -> dict:
        out = {
            "metadata": dict(self.metadata),
            "termination": self.termination,
            "times": self.times.tolist(),
            "states": self.states.tolist(),
            "f_values": self.f_values.tolist(),
            "grad_inf": self.grad_inf.tolist(),
        }
        if self.stats is not None:
            out["stats"] = asdict(self.stats)
        return out

    @staticmethod
    def from_json(data: dict) -> "Trajectory":
        return Trajectory(
            times=np.asarray(data["times"], dtype=float),
            states=np.asarray(data["states"], dtype=float),
            f_values=np.asarray(data["f_values"], dtype=float),
            grad_inf=np.asarray(data["grad_inf"], dtype=float),
            termination=data.get("termination", "unknown"),
            metadata=dict(data.get("metadata", {})),
            stats=FlowStats(**data["stats"]) if "stats" in data else None,
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


class _Evaluator:
    """The guarded flow evaluation, with each factor's arrays fetched once.

    Calling it at x returns the rhs and, per factor, the induced values v and
    the gradient g; it raises _Violation when some v is at or below eps, and
    PositivityError when some v is NaN or infinite. The arithmetic is that of
    rhs(), factor by factor, so the result is bit-identical to it.
    """

    def __init__(self, sys_list):
        self.blocks = [
            (rs, sl, rs.coefficient_matrix, rs.coefficient_matrix.T, -rs.gram_float)
            for rs, sl in _slices(sys_list)
        ]
        self.n = sum(rs.rank for rs in sys_list)
        self.calls = 0

    def __call__(self, x, eps):
        self.calls += 1
        out = np.empty(self.n)
        parts = []
        for rs, sl, k, kt, neg_q in self.blocks:
            v = 1.0 + k @ (x[sl] - 1.0)
            if not (v.min() > eps and v.max() < math.inf):
                _refuse(rs, v, eps)
            g = kt @ (1.0 - 1.0 / v)
            out[sl] = neg_q @ g
            parts.append((v, g))
        return out, parts


def _refuse(rs, v, eps):
    if (v <= eps).any():
        raise _Violation
    t = np.nonzero(~np.isfinite(v))[0][0]
    raise induced_value_error(rs, rs.positives[t], v[t])


def _rk4(f, x, h, k1):
    """One classical RK4 step of x' = f(x), given k1 = f(x)."""
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


_RKF_K = (
    (0.25,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def _rkf45(f, x, h, k1):
    """One Runge-Kutta-Fehlberg step given k1 = f(x): the 5th-order point and its error."""
    ks = [k1]
    for row in _RKF_K:
        stage = x + h * sum(c * k for c, k in zip(row, ks))
        ks.append(f(stage))
    x4 = x + h * sum(c * k for c, k in zip(_RKF_B4, ks))
    x5 = x + h * sum(c * k for c, k in zip(_RKF_B5, ks))
    return x5, float(np.abs(x5 - x4).max())


def integrate(systems, x0, config: FlowConfig | None = None) -> Trajectory:
    """Run the flow from x0 until convergence, t_end, or loss of positivity.

    Loss of positivity, and an adaptive step driven below min_step by error
    control, are recorded as the termination reason rather than raised; a
    start outside the domain, or a stage value that is NaN or infinite,
    raises PositivityError.

    Every stage and every new point is evaluated once, guarded. The
    evaluation at an accepted point is its recorded F and gradient norm, the
    convergence test's rhs and the first stage of the next step; a step that
    is halved or rejected keeps it.
    """
    wall_start = time.perf_counter()
    sys_list = _systems(systems)
    cfg = config or FlowConfig()
    x = _check_start(sys_list, x0)
    evaluate = _Evaluator(sys_list)
    eps = cfg.eps_pos

    def stage(s):
        return evaluate(s, eps)[0]

    rows_t, rows_x, rows_f, rows_g = [], [], [], []

    def record(t, x, parts):
        rows_t.append(t)
        rows_x.append(x)
        rows_f.append(sum(float(np.sum(v - np.log(v))) for v, _ in parts))
        rows_g.append(max(float(np.abs(g).max()) for _, g in parts))

    try:
        k, parts = evaluate(x, eps)
        admissible = True
    except _Violation:
        # a start with induced values in (0, eps_pos] is recorded, but every
        # step from it fails the guard until h falls below min_step
        k, parts = evaluate(x, 0.0)
        admissible = False
    t = 0.0
    record(t, x, parts)
    h = cfg.h
    stop = None  # set once h has fallen below min_step, with the reason
    rejected = halvings = 0
    h_min, h_max = math.inf, 0.0
    while True:
        if np.abs(x - 1.0).max() < cfg.tol and np.abs(k).max() < cfg.tol:
            termination = "converged"
            break
        if t >= cfg.t_end - 1e-15 * cfg.t_end:
            termination = "t_end_reached"
            break
        if stop is not None:
            termination = stop
            break
        step = min(h, cfg.t_end - t)
        h_min, h_max = min(h_min, step), max(h_max, step)
        try:
            if not admissible:
                raise _Violation
            if cfg.integrator == "rk4_fixed":
                x_new = _rk4(stage, x, step, k)
            else:
                x_new, err = _rkf45(stage, x, step, k)
            k_new, parts = evaluate(x_new, eps)
        except _Violation:
            halvings += 1
            h = step / 2.0
            if h < cfg.min_step:
                stop = "positivity_violation"
            continue
        if cfg.integrator == "rk4_fixed":
            accept = True
            h = cfg.h
        else:
            scale = cfg.rel_tol * max(1.0, float(np.abs(x).max()))
            accept = err <= scale
            rejected += not accept
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
            h = step * factor
            if h < cfg.min_step:
                stop = "step_underflow"
        if accept:
            x, t, k = x_new, t + step, k_new
            record(t, x, parts)

    meta = {
        "systems": " x ".join(f"{rs.stype}[{rs.normalization.value}]" for rs in sys_list),
        "integrator": cfg.integrator,
        "h": repr(cfg.h),
        "t_end": repr(cfg.t_end),
        "tol": repr(cfg.tol),
        "eps_pos": repr(cfg.eps_pos),
    }
    stats = FlowStats(
        evaluations=evaluate.calls,
        accepted=len(rows_t) - 1,
        rejected=rejected,
        halvings=halvings,
        h_min=h_min if h_max > 0 else 0.0,
        h_max=h_max,
        wall_s=time.perf_counter() - wall_start,
    )
    return Trajectory(
        times=np.array(rows_t),
        states=np.array(rows_x),
        f_values=np.array(rows_f),
        grad_inf=np.array(rows_g),
        termination=termination,
        metadata=meta,
        stats=stats,
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

    def f_x(state):
        return rhs(sys_list, state)

    def f_y(state):
        return -(s @ total_gradient(sys_list, s @ state))

    x = x0.copy()
    y = s_inv @ x0
    worst = 0.0
    for _ in range(nsteps):
        x = _rk4(f_x, x, dt, f_x(x))
        y = _rk4(f_y, y, dt, f_y(y))
        worst = max(worst, float(np.abs(s @ y - x).max()))
    return worst
