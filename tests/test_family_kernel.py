"""One guarded evaluation of the fiber family, and what rests on it.

`family.family_gradient` computes the induced values v = 1 + K(s - 1)
and the gradient g = Kᵀ(1 - 1/v) of F once, under one positivity guard.
F, its gradient and Hessian, Newton, the flow velocity, the flow's stages
and its descent guard all read it, so each refuses the same states.
"""

import numpy as np
import pytest

from conftest import parse_token, system
from sktflow import (
    FactorSpec,
    FlowConfig,
    GroupSpec,
    PositivityError,
    bismut_ricci,
    critical_point,
    family_bound,
    functional_F,
    grad_F,
    gradient_flow_check,
    hessian_F,
    integrate,
    per_root_rhs,
    pluriclosed_family,
    rhs,
    total_functional,
    total_gradient,
)
import sktflow.flow

MONOTONE_SLACK = 1e-10  # as in the acceptance suite

# -- the guard refuses an induced value that overflows to +inf -------------

HUGE = np.array([1e308, 1e308])  # the induced value on a1+a2 overflows to +inf

PER_FACTOR = (functional_F, grad_F, hessian_F, critical_point)
PER_LAYOUT = (
    rhs,
    total_functional,
    total_gradient,
    integrate,
    gradient_flow_check,
    lambda rs, x: per_root_rhs(rs, x, 0, rs.positives[2]),
)


def _ids(fns):
    return [getattr(fn, "__name__", "?").replace("<lambda>", "per_root_rhs") for fn in fns]


@pytest.mark.parametrize("fn", PER_FACTOR + PER_LAYOUT, ids=_ids(PER_FACTOR + PER_LAYOUT))
def test_infinite_induced_value_is_refused_everywhere(fn):
    rs = system("A2")
    with np.errstate(over="ignore"), pytest.raises(PositivityError) as exc:
        fn(rs, HUGE)
    assert exc.value.root_label == rs.positives[2].label
    assert exc.value.value == np.inf


# -- a non-finite simple value is named, not a root its NaN spreads to -----

NAMED = (integrate, rhs, functional_F, critical_point)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("fn", NAMED, ids=_ids(NAMED))
def test_non_finite_simple_value_is_named(fn, bad):
    with np.errstate(invalid="ignore"), pytest.raises(PositivityError) as exc:
        fn(system("A2"), (bad, 1.5))
    assert str(exc.value).startswith(f"induced value for root a1 is {bad}, not finite")
    assert exc.value.root_label == "a1"
    assert np.array_equal(exc.value.value, bad, equal_nan=True)


@pytest.mark.parametrize("fn", PER_LAYOUT, ids=_ids(PER_LAYOUT))
def test_state_of_the_wrong_length_is_refused(fn):
    with pytest.raises(ValueError, match="state must have length 2, got shape \\(3,\\)"):
        fn(system("A2"), [1.0, 1.0, 5.0])


# -- gradient_flow_check takes only a finite, positive t_end and h ----------


@pytest.mark.parametrize("value", [0.0, -0.5, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", ["t_end", "h"])
def test_gradient_flow_check_refuses_bad_t_end_and_h(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        gradient_flow_check(system("A2"), (2.0, 1.5), **{name: value})


def test_gradient_flow_check_builds_one_evaluation(monkeypatch):
    built = []

    class Counted(sktflow.flow._Evaluator):
        def __init__(self, systems):
            built.append(self)
            super().__init__(systems)

    monkeypatch.setattr(sktflow.flow, "_Evaluator", Counted)
    assert gradient_flow_check(system("A2"), (2.0, 1.5), t_end=0.5) < 1e-7
    assert len(built) == 1 and built[0].calls == 2 * 4 * 50  # two flows, 50 rk4 steps


# -- the descent guard: the flow never raises F ----------------------------

# Starts family_bound + U(1e-4, 1e-3) per coordinate, 20 per type from
# default_rng(0) over these types in this order; without the descent guard
# rk4_fixed raises F on exactly these (index within the type's 20).
NEAR_TYPES = ("A2", "B2", "G2", "A3", "C3", "F4")
RISING = {("B2", 3), ("G2", 0), ("G2", 17), ("A3", 4), ("A3", 7), ("A3", 11), ("C3", 8), ("F4", 9)}
CRITERION_5 = FlowConfig(t_end=400.0, tol=1e-7)


def _rising_starts():
    rng = np.random.default_rng(0)
    out = []
    for token in NEAR_TYPES:
        rs = system(token)
        for i in range(20):
            x0 = family_bound(rs) + rng.uniform(1e-4, 1e-3, rs.rank)
            if (token, i) in RISING:
                out.append(pytest.param(token, x0, id=f"{token}#{i}"))
    return out


@pytest.mark.parametrize("token,x0", _rising_starts())
def test_rk4_near_the_bound_never_raises_F(token, x0):
    traj = integrate(system(token), x0, CRITERION_5)
    assert traj.termination == "converged"
    assert np.abs(traj.states[-1] - 1).max() < 1e-6
    assert np.diff(traj.f_values).max(initial=0.0) <= MONOTONE_SLACK
    assert traj.stats.f_rises > 0


def test_rkf45_with_loose_error_control_never_raises_F():
    cfg = FlowConfig(integrator="rkf45", rel_tol=0.1, t_end=400.0, tol=1e-7)
    traj = integrate(system("B2"), (2.0, 1.3), cfg)
    assert traj.termination == "converged"
    assert np.diff(traj.f_values).max(initial=0.0) <= MONOTONE_SLACK
    assert traj.stats.f_rises > 0


def _loose_starts():
    # the recipe U(0.9, 3.0) from default_rng(1), 5 starts per type in this order
    rng = np.random.default_rng(1)
    starts = {
        t: [rng.uniform(0.9, 3.0, int(t[1])) for _ in range(5)] for t in ("A2", "B2", "G2", "A3")
    }
    return [
        pytest.param(token, starts[token][i], rel_tol, id=f"{token}#{i}-rel{rel_tol:g}")
        for token, i, rel_tol in (("A2", 1, 1e-2), ("G2", 0, 1e-2), ("G2", 3, 0.1), ("B2", 0, 1.0))
    ]


@pytest.mark.parametrize("token,x0,rel_tol", _loose_starts())
def test_rkf45_does_not_regrow_past_a_descent_halving(token, x0, rel_tol):
    # error control used to grow h by up to 5x after every halving, so these
    # runs cycled near the fixed point, halving hundreds of times, to t_end
    cfg = FlowConfig(integrator="rkf45", rel_tol=rel_tol, t_end=400.0, tol=1e-7)
    traj = integrate(system(token), x0, cfg)
    assert traj.termination == "converged"
    assert np.diff(traj.f_values).max(initial=0.0) <= MONOTONE_SLACK
    assert 0 < traj.stats.f_rises <= 2
    assert traj.stats.evaluations < 500


def test_descent_guard_below_min_step_is_step_underflow():
    rs = system("G2")
    x0 = next(p.values[1] for p in _rising_starts() if p.id == "G2#0")
    traj = integrate(rs, x0, FlowConfig(t_end=400.0, tol=1e-7, min_step=4e-3))
    assert traj.termination == "step_underflow"
    assert traj.stats.f_rises > 0
    assert np.diff(traj.f_values).max(initial=0.0) <= MONOTONE_SLACK


# -- CYT rigidity: on the family the Bismut vector is minus grad F ----------

IDENTITY_GROUPS = [((t,), z) for t in ("A2", "G2", "B3", "F4", "E6") for z in (1.0, 2.5)] + [
    (("A2", "G2"), 1.0),
    (("B3", "G2"), 1.0),
]


@pytest.mark.parametrize(
    "tokens,z", IDENTITY_GROUPS, ids=[f"{'x'.join(t)}-z{z}" for t, z in IDENTITY_GROUPS]
)
def test_bismut_vector_is_minus_gradient_and_drives_the_flow(tokens, z):
    """CYT on the family means grad F = 0, i.e. the bi-invariant point, and
    the flow is the ODE s' = Q (Bismut vector)."""
    group = GroupSpec([FactorSpec(parse_token(t), z=z) for t in tokens])
    rng = np.random.default_rng(3)
    for _ in range(3):
        rows = [rng.uniform(0.9, 2.5, rs.rank) for rs in group.systems]
        s = np.concatenate(rows)
        bismut = bismut_ricci(pluriclosed_family(group, rows)).vector.components
        grad = total_gradient(group, s)
        tol = 1e-13 * max(1.0, float(np.abs(grad).max()))
        assert np.abs(bismut + grad).max() <= tol
        assert np.abs(rhs(group, s) - group.q_full @ bismut).max() <= tol
