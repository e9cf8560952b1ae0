"""One guarded evaluation per stage: recorded rows, reference stepper, stats.

`integrate` evaluates each stage and each new point once and reuses the
evaluation at an accepted point as its recorded row, the convergence test's
rhs and the next step's first stage. The reference stepper below evaluates
everything afresh through the public per-point functions instead; both must
give bit-identical trajectories.
"""

import io
import json

import numpy as np
import pytest

from conftest import system
from sktflow import (
    FlowConfig,
    PositivityError,
    Trajectory,
    family_bound,
    family_values,
    functional_F,
    grad_F,
    integrate,
    rhs,
)
from sktflow.family import Violation as _Violation
from sktflow.flow import _Evaluator

# The Fehlberg tableau (NASA TR R-315, 1969): stage rows, then the 4th- and
# 5th-order weights. flow._rkf45 writes it out; the tests check it against these rows.
_RKF_K = (
    (0.25,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


class _Halve(Exception):
    pass


def reference_integrate(sys_list, x0, cfg):
    """Every stage and new point through a guard and the public rhs (five rhs
    calls per rk4 step, seven per rkf45 step); rows from functional_F and
    grad_F."""

    def guarded(x):
        off = 0
        for rs in sys_list:
            if (family_values(rs, x[off : off + rs.rank]) <= cfg.eps_pos).any():
                raise _Halve
            off += rs.rank
        return rhs(sys_list, x)

    def rk4(x, h):
        k1 = guarded(x)
        k2 = guarded(x + 0.5 * h * k1)
        k3 = guarded(x + 0.5 * h * k2)
        k4 = guarded(x + h * k3)
        out = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        guarded(out)
        return out, 0.0

    def rkf45(x, h):
        ks = [guarded(x)]
        for row in _RKF_K:
            ks.append(guarded(x + h * sum(c * k for c, k in zip(row, ks))))
        x4 = x + h * sum(c * k for c, k in zip(_RKF_B4, ks))
        x5 = x + h * sum(c * k for c, k in zip(_RKF_B5, ks))
        guarded(x5)
        return x5, float(np.abs(x5 - x4).max())

    x = np.asarray(x0, dtype=float)
    t, h = 0.0, cfg.h
    rows = [(t, x)]
    while True:
        if np.abs(x - 1.0).max() < cfg.tol and np.abs(rhs(sys_list, x)).max() < cfg.tol:
            termination = "converged"
            break
        if t >= cfg.t_end - 1e-15 * cfg.t_end:
            termination = "t_end_reached"
            break
        step = min(h, cfg.t_end - t)
        try:
            x_new, err = (rk4 if cfg.integrator == "rk4_fixed" else rkf45)(x, step)
        except _Halve:
            h = step / 2.0
            if h < cfg.min_step:
                termination = "positivity_violation"
                break
            continue
        if cfg.integrator == "rk4_fixed":
            x, t, h = x_new, t + step, cfg.h
            rows.append((t, x))
            continue
        scale = cfg.rel_tol * max(1.0, float(np.abs(x).max()))
        if err <= scale:
            x, t = x_new, t + step
            rows.append((t, x))
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
        h = step * factor
        if h < cfg.min_step:
            termination = "step_underflow"
            break
    states = np.array([r[1] for r in rows])
    return Trajectory(
        times=np.array([r[0] for r in rows]),
        states=states,
        f_values=np.array([functional_F(sys_list, s) for s in states]),
        grad_inf=np.array([float(np.abs(grad_F(sys_list, s)).max()) for s in states]),
        termination=termination,
    )


def _near_bound(sys_list, gap=1e-4):
    return np.concatenate([np.full(rs.rank, family_bound(rs) + gap) for rs in sys_list])


GROUPS = {"A2": ["A2"], "G2": ["G2"], "A2xG2": ["A2", "G2"]}
INTEGRATORS = ("rk4_fixed", "rkf45")


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_recorded_rows_are_the_per_point_reference(group, integrator):
    sys_list = [system(t) for t in GROUPS[group]]
    rng = np.random.default_rng(7)
    x0 = rng.uniform(0.9, 2.0, sum(rs.rank for rs in sys_list))
    traj = integrate(sys_list, x0, FlowConfig(integrator=integrator, t_end=400.0, tol=1e-7))
    assert traj.termination == "converged"
    for i, x in enumerate(traj.states):
        assert traj.f_values[i] == functional_F(sys_list, x)
        assert traj.grad_inf[i] == float(np.abs(grad_F(sys_list, x)).max())


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize(
    "tokens,x0",
    [
        (("A2",), (2.0, 1.3)),
        (("G2",), (1.2, 1.4)),
        (("A2", "G2"), (1.5, 0.95, 1.8, 1.1)),
        (("A3",), None),  # 1e-4 above family_bound: the guard halves steps
        (("A2", "G2"), None),
    ],
)
def test_integrate_matches_reference_stepper(tokens, x0, integrator):
    sys_list = [system(t) for t in tokens]
    near = x0 is None
    x0 = _near_bound(sys_list) if near else np.array(x0)
    cfg = FlowConfig(integrator=integrator, t_end=400.0, tol=1e-7)
    got = integrate(sys_list, x0, cfg)
    want = reference_integrate(sys_list, x0, cfg)
    assert (got.stats.halvings > 0) == near
    assert got.termination == want.termination == "converged"
    for name in ("times", "states", "f_values", "grad_inf"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_start_within_eps_pos_of_zero_ends_positivity_violation():
    rs = system("A2")
    x0 = np.full(2, 0.5 + 2.5e-9)  # induced value on a1+a2 is about 5e-9
    assert 0 < family_values(rs, x0).min() <= FlowConfig().eps_pos
    traj = integrate(rs, x0)
    assert traj.termination == "positivity_violation"
    assert len(traj.times) == 1
    assert traj.stats.accepted == 0 and traj.stats.halvings > 0
    assert traj.f_values[0] == functional_F([rs], x0)


def test_rkf45_error_control_underflow_is_step_underflow():
    cfg = FlowConfig(integrator="rkf45", rel_tol=1e-300, min_step=1e-3)
    traj = integrate(system("A2"), (2.0, 2.0), cfg)
    assert traj.termination == "step_underflow"
    assert traj.stats.halvings == 0 and traj.stats.rejected > 0
    assert traj.stats.h_min >= cfg.min_step


@pytest.mark.parametrize("state", [(np.nan, 1.5), (1.7e308, 1.7e308)])  # NaN, +inf on a1+a2
def test_stage_evaluation_refuses_non_finite_values(state):
    evaluate = _Evaluator([system("A2")])
    with np.errstate(over="ignore"), pytest.raises(PositivityError):
        evaluate(np.array(state), 1e-8)
    with pytest.raises(_Violation):
        evaluate(np.array([0.5, 0.5]), 1e-8)  # a1+a2 induced value 0


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_stats_count_the_work(integrator):
    traj = integrate(system("B2"), (1.7, 1.2), FlowConfig(integrator=integrator))
    st = traj.stats
    assert st.accepted == len(traj.times) - 1
    assert st.halvings == 0
    per_step = 4 if integrator == "rk4_fixed" else 6  # rk4: 3 stages + new point
    assert st.evaluations == 1 + per_step * (st.accepted + st.rejected)
    assert 0 < st.h_min <= st.h_max and st.wall_s > 0
    if integrator == "rk4_fixed":
        assert st.rejected == 0 and st.h_max == FlowConfig().h


def test_stats_round_trip_csv_and_json(tmp_path):
    traj = integrate(system("A2"), (2.0, 1.3), FlowConfig(integrator="rkf45", t_end=0.5))
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    assert "# stats.evaluations = " in path.read_text()
    back = Trajectory.from_csv(path)
    assert back.stats == traj.stats
    assert not any(key.startswith("stats.") for key in back.metadata)
    assert back.metadata == traj.metadata
    data = json.loads(json.dumps(traj.to_json()))
    assert Trajectory.from_json(data).stats == traj.stats


def test_metadata_keeps_every_flow_setting_through_csv_and_json(tmp_path):
    cfg = FlowConfig(integrator="rkf45", t_end=0.5, rel_tol=1e-4, min_step=1e-6)
    traj = integrate(system("A2"), (1.5, 1.2), cfg)
    assert traj.metadata == {
        "systems": "A2[long2]", "integrator": "rkf45", "h": "0.01", "t_end": "0.5",
        "tol": "1e-08", "eps_pos": "1e-08", "rel_tol": "0.0001", "min_step": "1e-06",
    }
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    assert Trajectory.from_csv(path).metadata == traj.metadata
    data = json.loads(json.dumps(traj.to_json()))
    assert Trajectory.from_json(data).metadata == traj.metadata


def test_trajectory_without_stats_round_trips():
    traj = integrate(system("A2"), (2.0, 1.3), FlowConfig(t_end=0.1))
    traj.stats = None
    assert Trajectory.from_csv(io.StringIO(traj.to_csv_string())).stats is None
    assert Trajectory.from_json(traj.to_json()).stats is None
