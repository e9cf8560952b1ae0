"""Metric flow on the fiber family, driven by the gradient of the potential.

State vectors are the simple-root values of every factor concatenated; the
state evolves under minus the block-diagonal gram matrix applied to the
gradient, so each factor evolves under its own gram matrix and gradient,
which is exactly the induced flow of the geometric evolution on this family.
The factors are given in any form that family.py's functions take.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields

import numpy as np

# family_values, grad_F and rhs stay module attributes: perfbench/tracing.py wraps them.
from .family import (  # noqa: F401
    QUIET, Violation, family_gradient, family_values, grad_F, potential, sqrt_and_inverse,
)
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
def rhs(systems, x) -> np.ndarray:
    """Flow velocity: minus the block-diagonal gram matrix applied to the gradient."""
    evaluate = _Evaluator(systems)
    return evaluate(number_array(x, evaluate.layout.size, "state"), 0.0)[0]


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
    j = rs.index_of(root) % rs.npositive  # a root and its negative share one fiber value
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
    def parse(cls, stats) -> "FlowStats":
        """FlowStats from a mapping of field names to numbers or their reprs.

        ValueError names stats.<name> for an unknown name, a bool, a value
        that does not parse, and a count that is not an integer.
        """
        kinds = {f.name: type(f.default) for f in fields(cls)}
        found = {}
        for name, value in _mapping(stats, "stats").items():
            if name not in kinds:
                raise ValueError(f"unknown stats key {name!r}")
            kind = kinds[name]
            try:
                found[name] = kind(value)
                ok = not isinstance(value, bool) and (kind is float or found[name] == float(value))
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                noun = "an integer" if kind is int else "a number"
                raise ValueError(f"stats.{name} must be {noun}, got {value!r}")
        return cls(**found)


def _mapping(value, what: str) -> Mapping:
    """value, the trajectory's field what; ValueError unless it is a mapping."""
    if not isinstance(value, Mapping):
        raise ValueError(f"trajectory {what} must be a mapping, got {value!r}")
    return value


def _csv_header(d: int) -> list[str]:
    """The CSV header over rows of time, d state values, F and grad_inf."""
    return ["t", *(f"x_{i + 1}" for i in range(d)), "F", "grad_inf"]


def _columns(data) -> dict:
    """The four columns of data as float arrays: times, f_values and grad_inf
    of one length n, states of shape (n, d) with d >= 1. ValueError names a
    missing column, a value that is no number, or a column of the wrong shape."""
    names = ("times", "states", "f_values", "grad_inf")
    for name in names:
        if name not in data:
            raise ValueError(f"trajectory data has no {name!r} column")
    cols = {name: number_array(data[name], what=name) for name in names}
    times, states = cols["times"], cols["states"]
    if times.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
    n = len(times)
    for name in ("f_values", "grad_inf"):
        if cols[name].shape != (n,):
            raise ValueError(f"{name} must have the shape of times, ({n},), got {cols[name].shape}")
    if states.ndim != 2 or len(states) != n or states.shape[1] < 1:
        raise ValueError(f"states must have shape ({n}, d) with d >= 1, got {states.shape}")
    return cols


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
            buf.write(",".join(_csv_header(self.states.shape[1])) + "\n")
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
                    row = [float(v) for v in line.split(",")]
                    if len(row) != len(header):
                        raise ValueError(f"trajectory row {len(rows)} has {len(row)} numbers"
                                         f" under a header of {len(header)}")
                    rows.append(row)
        finally:
            if buf is not path_or_buf:
                buf.close()
        if header is None or not rows:
            raise ValueError("trajectory file has no data rows")
        if len(header) < 4 or header != _csv_header(len(header) - 3):
            raise ValueError(
                f"trajectory header {','.join(header)!r} is not t,x_1,...,x_d,F,grad_inf"
            )
        data = np.array(rows)
        stats = {f.name: meta.pop(f"stats.{f.name}") for f in fields(FlowStats)
                 if f"stats.{f.name}" in meta}
        return Trajectory.from_json({
            "times": data[:, 0],
            "states": data[:, 1:-2],
            "f_values": data[:, -2],
            "grad_inf": data[:, -1],
            "termination": meta.pop("termination", "unknown"),
            "metadata": meta,
            "stats": stats or None,
        })

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
        """The trajectory that to_json wrote; from_csv reads through here too.
        ValueError names a column, stats entry or other field that is malformed."""
        termination = data.get("termination", "unknown")
        if not isinstance(termination, str):
            raise ValueError(f"trajectory termination must be a string, got {termination!r}")
        stats = data.get("stats")
        return Trajectory(
            **_columns(data),
            termination=termination,
            metadata=dict(_mapping(data.get("metadata", {}), "metadata")),
            stats=None if stats is None else FlowStats.parse(stats),
        )


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


def _rkf45(f, x, h, k1):
    """One Runge-Kutta-Fehlberg step given k1 = f(x): the 5th-order point and its error.

    Fehlberg's tableau (NASA TR R-315, 1969) written out on the state's
    Python floats. Each stage input, x4 and x5 is one comprehension
    (k1*c1 + k2*c2 + ...) * h + x, summed left to right from the first
    nonzero term, zero terms skipped; each k is read once with tolist(), and
    a, b, c, d, e, g are the entries of k1 to k6.
    Python float * and + are the correctly rounded IEEE operations of numpy's
    elementwise ufuncs, so these are the bits of x + h * sum(c * k) in numpy,
    at a fraction of its calls on a small state; the evaluations stay in
    numpy. err is max|x5 - x4|, NaN when any entry is.
    """
    xs, k1 = x.tolist(), k1.tolist()
    k2 = f(np.array([a * 0.25 * h + y for a, y in zip(k1, xs)])).tolist()
    k3 = f(np.array([
        (a * (3 / 32) + b * (9 / 32)) * h + y
        for a, b, y in zip(k1, k2, xs)
    ])).tolist()
    k4 = f(np.array([
        (a * (1932 / 2197) + b * (-7200 / 2197) + c * (7296 / 2197)) * h + y
        for a, b, c, y in zip(k1, k2, k3, xs)
    ])).tolist()
    k5 = f(np.array([
        (a * (439 / 216) + b * -8.0 + c * (3680 / 513) + d * (-845 / 4104)) * h + y
        for a, b, c, d, y in zip(k1, k2, k3, k4, xs)
    ])).tolist()
    k6 = f(np.array([
        (a * (-8 / 27) + b * 2.0 + c * (-3544 / 2565) + d * (1859 / 4104)
         + e * (-11 / 40)) * h + y
        for a, b, c, d, e, y in zip(k1, k2, k3, k4, k5, xs)
    ])).tolist()
    x4 = [
        (a * (25 / 216) + c * (1408 / 2565) + d * (2197 / 4104) + e * (-1 / 5)) * h + y
        for a, c, d, e, y in zip(k1, k3, k4, k5, xs)
    ]
    x5 = [
        (a * (16 / 135) + c * (6656 / 12825) + d * (28561 / 56430) + e * (-9 / 50)
         + g * (2 / 55)) * h + y
        for a, c, d, e, g, y in zip(k1, k3, k4, k5, k6, xs)
    ]
    diffs = [abs(p - q) for p, q in zip(x5, x4)]
    total = sum(diffs)  # NaN exactly when some entry is; max passes over a NaN not first
    return np.array(x5), max(diffs) if total == total else total


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
        **{name: v if isinstance(v, str) else repr(v) for name, v in asdict(cfg).items()},
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
