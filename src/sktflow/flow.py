"""Metric flow on the fiber family, driven by the gradient of the potential.

State vectors are the simple-root values of every factor concatenated; the
state evolves under minus the block-diagonal gram matrix applied to the
gradient, so each factor evolves under its own gram matrix and gradient,
which is exactly the induced flow of the geometric evolution on this family.
The factors are given as a RootSystem, a sequence of them, a GroupSpec or a
FactorLayout; FactorLayout.of resolves all four.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

# family_values, grad_F and rhs stay module attributes: perfbench/tracing.py wraps them.
from .family import (  # noqa: F401
    QUIET, Violation, family_gradient, family_values, grad_F, potential,
)
from .hermitian import sqrt_and_inverse
from .roots import FactorLayout, check_count, check_positive, number_array

F_RISE_TOL = 1e-10  # the most an accepted step may raise F; a larger rise halves it


class _Evaluator:
    """The rhs and the whole layout's family_gradient (v, g) at (x, eps), with -Q built once."""

    def __init__(self, systems):
        self.layout = FactorLayout.of(systems)
        self.neg_q = -self.layout.gram_float
        self.calls = 0

    def __call__(self, x, eps):
        self.calls += 1
        v, g = family_gradient(self.layout, x, eps)
        return self.neg_q.dot(g), (v, g)


@np.errstate(**QUIET)
def _evaluate(systems, x):
    evaluate = _Evaluator(systems)
    return evaluate(number_array(x, evaluate.layout.size, "state"), 0.0)


def total_functional(systems, x) -> float:
    return potential(_evaluate(systems, x)[1][0])


def total_gradient(systems, x) -> np.ndarray:
    return _evaluate(systems, x)[1][1]


def rhs(systems, x) -> np.ndarray:
    """Flow velocity: minus the block-diagonal gram matrix applied to the gradient."""
    return _evaluate(systems, x)[0]


@np.errstate(**QUIET)
def per_root_rhs(systems, x, factor: int, root) -> float:
    """Velocity of the induced value on any root, straight from the definition.

    Equals the matching combination of rhs components; kept as an independent
    cross-check of the rearrangement used there.
    """
    layout = FactorLayout.of(systems)
    x = number_array(x, layout.size, "state")
    factor = check_count(factor, "factor index", len(layout.systems))
    rs = layout.systems[factor]
    vals = family_gradient(layout, x)[0][layout.row_slices[factor]]
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
        # an infinite value would leave the stepping loop without a bound
        for name in ("h", "t_end", "tol", "eps_pos", "rel_tol", "min_step"):
            setattr(self, name, check_positive(getattr(self, name), name))
        # rk4_fixed takes t_end / h steps, so an h below the step floor need never end
        if self.h < self.min_step:
            raise ValueError(f"h ({self.h!r}) must be at least min_step ({self.min_step!r})")


@dataclass
class FlowStats:
    """The work one integrate call did.

    evaluations counts guarded flow evaluations (stages and new points);
    rejected counts rkf45 steps refused by error control; halvings counts
    steps halved by the positivity guard, f_rises those halved because F
    rose by more than F_RISE_TOL; h_min, h_max span the steps tried (or 0).
    """

    evaluations: int = 0
    accepted: int = 0
    rejected: int = 0
    halvings: int = 0
    f_rises: int = 0
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
        columns = ("times", "states", "f_values", "grad_inf")
        return Trajectory(
            **{name: number_array(data[name], what=name) for name in columns},
            termination=data.get("termination", "unknown"),
            metadata=dict(data.get("metadata", {})),
            stats=FlowStats(**data["stats"]) if "stats" in data else None,
        )

    def to_csv_string(self) -> str:
        out = io.StringIO()
        self.to_csv(out)
        return out.getvalue()


def _rk4(f, x, h, k1):
    """One classical RK4 step of x' = f(x), given k1 = f(x).

    The bits of x + 0.5*h*k for a stage and x + (h/6)*(k1 + 2*k2 + 2*k3 + k4)
    for the step, in cheaper calls: array * float beats float * array, and
    k + k (exactly 2*k) and + x are array-array ops.
    """
    half = 0.5 * h
    k2 = f(k1 * half + x)
    k3 = f(k2 * half + x)
    k4 = f(k3 * h + x)
    return (k1 + (k2 + k2) + (k3 + k3) + k4) * (h / 6.0) + x


_RKF_K = (
    (0.25,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def _combine(coefs, ks):
    """sum(c * k for c, k in zip(coefs, ks)), bit for bit for finite k, in fewer ops: it
    starts from the first term, not 0, and skips c = 0.0, as 0 + a and a + 0.0 * k are a."""
    first, *rest = (k * c for c, k in zip(coefs, ks) if c)
    return sum(rest, first)


def _rkf45(f, x, h, k1):
    """One Runge-Kutta-Fehlberg step given k1 = f(x): the 5th-order point and its error.

    Stages and points are formed as _combine(...) * h + x, the bits of
    x + h * _combine(...) with an array-array add.
    """
    ks = [k1]
    for row in _RKF_K:
        ks.append(f(_combine(row, ks) * h + x))
    x4 = _combine(_RKF_B4, ks) * h + x
    x5 = _combine(_RKF_B5, ks) * h + x
    return x5, float(np.maximum.reduce(np.abs(x5 - x4)))


def _within(values, tol) -> bool:
    """Whether every value is less than tol from 1, as max|x - 1| < tol decides it."""
    for value in values:
        if not abs(value - 1.0) < tol:
            return False
    return True


@np.errstate(**QUIET)
def integrate(systems, x0, config: FlowConfig | None = None) -> Trajectory:
    """Run the flow from x0 until convergence, t_end, or loss of positivity.

    Loss of positivity, and a step driven below min_step by error control or
    by the descent guard, are recorded as the termination reason rather than
    raised; a start outside the domain, or a stage value that is NaN or
    infinite, raises PositivityError.

    Every stage and every new point is evaluated once, guarded, by one
    family_gradient call over the whole layout. The evaluation at an
    accepted point is its recorded F and gradient, the convergence test's
    rhs and the first stage of the next step; a step that is halved or
    rejected keeps it. The convergence test reads x as Python floats and
    stops at the first coordinate at least tol from 1 (a NaN is never
    within tol), so most steps spend no numpy call on it. The gradient sup
    norms are taken once, at the end, from the stored gradients. The flow
    never raises F, so a step that raises it by more than F_RISE_TOL is
    halved like a guard failure, and rkf45 error control never grows a
    later step past that halved one.
    """
    wall_start = time.perf_counter()
    cfg = config or FlowConfig()
    evaluate = _Evaluator(systems)
    x = number_array(x0, evaluate.layout.size, "state")
    eps = cfg.eps_pos
    fixed = cfg.integrator == "rk4_fixed"

    def stage(s):
        return evaluate(s, eps)[0]

    try:
        k, parts = evaluate(x, eps)
        admissible = True
    except Violation:
        # a start with induced values in (0, eps_pos] is recorded, but every
        # step from it fails the guard until h falls below min_step
        k, parts = evaluate(x, 0.0)
        admissible = False
    t, f = 0.0, potential(parts[0])
    rows = [(t, x, f, parts[1])]  # the accepted points: t, x, F, gradient
    stats = FlowStats(h_min=math.inf)
    h = cfg.h
    ceiling = math.inf  # rkf45 steps never regrow past a descent-guard halving
    stop = None  # set once h has fallen below min_step, with the reason
    top = np.maximum.reduce  # ndarray.max without its Python wrapper
    while True:
        if _within(x.tolist(), cfg.tol) and top(np.abs(k)) < cfg.tol:
            termination = "converged"
            break
        if t >= cfg.t_end - 1e-15 * cfg.t_end:
            termination = "t_end_reached"
            break
        if stop is not None:
            termination = stop
            break
        step = min(h, cfg.t_end - t)
        stats.h_min, stats.h_max = min(stats.h_min, step), max(stats.h_max, step)
        try:
            if not admissible:
                raise Violation
            if fixed:
                x_new = _rk4(stage, x, step, k)
            else:
                x_new, err = _rkf45(stage, x, step, k)
            k_new, parts = evaluate(x_new, eps)
        except Violation:
            stats.halvings += 1
            h = step / 2.0
            if h < cfg.min_step:
                stop = "positivity_violation"
            continue
        if fixed:
            accept = True
            h = cfg.h
        else:
            scale = cfg.rel_tol * max(1.0, float(top(np.abs(x))))
            accept = err <= scale
            stats.rejected += not accept
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
            h = min(step * factor, ceiling)
            if h < cfg.min_step:
                stop = "step_underflow"
        f_new = potential(parts[0])
        if accept and f_new > f + F_RISE_TOL:
            stats.f_rises += 1
            ceiling = h = step / 2.0
            if h < cfg.min_step:
                stop = "step_underflow"
        elif accept:
            x, t, k, f = x_new, t + step, k_new, f_new
            rows.append((t, x, f, parts[1]))

    stats.evaluations = evaluate.calls
    stats.accepted = len(rows) - 1
    if stats.h_max == 0.0:  # no step was tried
        stats.h_min = 0.0
    meta = {
        "systems": " x ".join(
            f"{rs.stype}[{rs.normalization.value}]" for rs in evaluate.layout.systems
        ),
        "integrator": cfg.integrator,
        "h": repr(cfg.h),
        "t_end": repr(cfg.t_end),
        "tol": repr(cfg.tol),
        "eps_pos": repr(cfg.eps_pos),
    }
    times, states, f_values, grads = (np.array(column) for column in zip(*rows))
    grad_inf = np.abs(grads).max(axis=1)
    stats.wall_s = time.perf_counter() - wall_start
    return Trajectory(times, states, f_values, grad_inf, termination, meta, stats)


@np.errstate(**QUIET)
def gradient_flow_check(systems, x0, t_end: float = 1.0, h: float = 0.01) -> float:
    """Deviation between the flow and the conjugated plain gradient flow.

    Both runs use the same fixed grid and ignore convergence; the return value
    is the largest pointwise distance along the grid, which is bounded by the
    integrator error when the flow really is gradient-like.
    """
    cfg = FlowConfig(t_end=t_end, h=h)  # refuses a t_end or h that is not finite and positive
    evaluate = _Evaluator(systems)
    layout = evaluate.layout
    x0 = number_array(x0, layout.size, "state")
    s, s_inv = sqrt_and_inverse(layout.gram_float)

    nsteps = max(1, int(np.ceil(cfg.t_end / cfg.h)))
    dt = cfg.t_end / nsteps

    def f_x(state):
        return evaluate(state, 0.0)[0]

    def f_y(state):
        return -(s @ evaluate(s @ state, 0.0)[1][1])

    x = x0.copy()
    y = s_inv @ x0
    worst = 0.0
    for _ in range(nsteps):
        x = _rk4(f_x, x, dt, f_x(x))
        y = _rk4(f_y, y, dt, f_y(y))
        worst = max(worst, float(np.abs(s @ y - x).max()))
    return worst
