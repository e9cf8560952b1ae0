"""Gradient-flow right-hand side, integrators, trajectories, file formats."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import system
from sktflow import (
    FactorSpec,
    FlowConfig,
    GroupSpec,
    PositivityError,
    SimpleType,
    Trajectory,
    functional_F,
    grad_F,
    gradient_flow_check,
    integrate,
    per_root_rhs,
    rhs,
)


def test_rhs_oracles():
    assert np.allclose(rhs(system("A2"), (2.0, 2.0)), [-7 / 6, -7 / 6])
    assert np.allclose(rhs(system("G2", "short2"), (1.0, 2.0)), [0.0, -5.0])
    assert np.allclose(rhs(system("A3"), (1.0, 1.0, 1.0)), [0.0, 0.0, 0.0])


def su3_rhs(x, y):
    return (2 / x - 1 / y + 1 / (x + y - 1) - 2, -1 / x + 2 / y + 1 / (x + y - 1) - 2)


def so5_rhs(x, y):
    return (
        2 / x - 1 / y + 1 / (x + y - 1) - 2,
        -1 / x + 1 / y + 1 / (x + 2 * y - 2) - 1,
    )


def g2_short2_rhs(x, y):
    return (
        2 / x - 3 / y - 1 / (x + y - 1) + 1 / (2 * x + y - 2) + 3 / (3 * x + y - 3) - 2,
        -3 / x + 6 / y + 3 / (x + y - 1) - 3 / (3 * x + y - 3) + 3 / (3 * x + 2 * y - 4) - 6,
    )


@pytest.mark.parametrize(
    "token,norm,oracle",
    [("A2", "long2", su3_rhs), ("B2", "long2", so5_rhs), ("G2", "short2", g2_short2_rhs)],
)
def test_rank2_printed_systems(token, norm, oracle):
    rs = system(token, norm)
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.uniform(0.9, 3.0, 2)
        got = rhs(rs, x)
        want = np.array(oracle(*x))
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(["A2", "B2", "G2", "C3"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_per_root_matches_rhs_on_simples(token, seed):
    rs = system(token)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.9, 2.2, rs.rank)
    full = rhs(rs, x)
    for j, simple in enumerate(rs.simples):
        assert per_root_rhs([rs], x, 0, simple) == pytest.approx(full[j], abs=1e-12)


def test_per_root_extends_to_non_simple_roots():
    rs = system("A2")
    x = np.array([2.0, 2.0])
    v = per_root_rhs([rs], x, 0, rs.root((1, 1)))
    # the family constraint propagates: d(x_{a+b}) = d(x_a) + d(x_b)
    full = rhs(rs, x)
    assert v == pytest.approx(full.sum())


@pytest.mark.parametrize(
    "tokens,factor", [(("A2",), 0), (("G2",), 0), (("A2", "G2"), 1)], ids=["A2", "G2", "A2xG2-1"]
)
def test_a_root_and_its_negative_have_one_velocity(tokens, factor):
    # g(E_a, E_-a) = -x_a: a root and its negative share one fiber value
    systems = [system(t) for t in tokens]
    rs = systems[factor]
    x = np.random.default_rng(4).uniform(0.9, 2.2, sum(r.rank for r in systems))
    own = rhs(systems, x)[sum(r.rank for r in systems[:factor]):][: rs.rank]
    for i, root in enumerate(rs.positives):
        v = per_root_rhs(systems, x, factor, root)
        assert per_root_rhs(systems, x, factor, -root).hex() == v.hex()
        assert v == pytest.approx(rs.coefficient_matrix[i] @ own, abs=1e-12)


def test_rhs_zero_at_identity_multi_factor():
    g = GroupSpec([FactorSpec(SimpleType("A", 2)), FactorSpec(SimpleType("G", 2))])
    x = np.ones(4)
    assert np.abs(rhs(g, x)).max() == 0
    assert functional_F(g, x) == pytest.approx(3 + 6)
    assert np.abs(grad_F(g, x)).max() == 0


def test_gram_matrix_blockdiag():
    g = GroupSpec([FactorSpec(SimpleType("A", 1)), FactorSpec(SimpleType("B", 2))])
    Q = g.layout.gram_float
    assert Q.shape == (3, 3)
    assert Q[0, 0] == pytest.approx(2.0)
    assert np.abs(Q[0, 1:]).max() == 0


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(integrator="euler")
    with pytest.raises(ValueError):
        FlowConfig(h=-0.1)
    with pytest.raises(ValueError):
        FlowConfig(t_end=0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["h", "t_end", "tol", "eps_pos", "rel_tol", "min_step"])
def test_flow_config_refuses_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        FlowConfig(**{name: value})


def test_flow_config_refuses_a_step_below_min_step():
    with pytest.raises(ValueError, match=r"h \(1e-300\) must be at least min_step \(1e-12\)"):
        FlowConfig(h=1e-300)
    with pytest.raises(ValueError, match=r"h \(0\.001\) must be at least min_step \(0\.01\)"):
        FlowConfig(integrator="rkf45", h=1e-3, min_step=1e-2)
    assert FlowConfig(h=1e-12).h == FlowConfig().min_step


def test_integrate_converges_and_f_monotone():
    traj = integrate(system("A2"), (2.0, 2.0))
    assert traj.termination == "converged"
    assert traj.converged
    assert np.abs(traj.states[-1] - 1).max() < 1e-6
    assert np.all(np.diff(traj.f_values) <= 1e-10)
    assert traj.times[0] == 0.0 and np.allclose(traj.states[0], [2.0, 2.0])


def test_integrate_t_end_reached():
    traj = integrate(system("A2"), (2.0, 2.0), FlowConfig(t_end=0.05))
    assert traj.termination == "t_end_reached"
    assert traj.times[-1] == pytest.approx(0.05)


def test_invariant_lines_rank2():
    for token, norm in (("A2", "long2"), ("B2", "long2"), ("G2", "short2")):
        rs = system(token, norm)
        t1 = integrate(rs, (1.0, 1.8), FlowConfig(t_end=4.0))
        assert np.abs(t1.states[:, 0] - 1).max() < 1e-9
        t2 = integrate(rs, (1.6, 1.0), FlowConfig(t_end=4.0))
        assert np.abs(t2.states[:, 1] - 1).max() < 1e-9


def test_rkf45_converges_with_fewer_steps():
    fixed = integrate(system("A2"), (3.0, 0.9), FlowConfig(t_end=200.0))
    adaptive = integrate(
        system("A2"), (3.0, 0.9), FlowConfig(integrator="rkf45", t_end=200.0)
    )
    assert fixed.termination == adaptive.termination == "converged"
    assert len(adaptive.times) < len(fixed.times)
    assert np.abs(adaptive.states[-1] - 1).max() < 1e-6


def test_positivity_error_at_start():
    with pytest.raises(PositivityError):
        integrate(system("B2"), (0.5, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_is_refused(bad):
    with pytest.raises(PositivityError):
        integrate(system("A2"), (bad, 1.5))
    with pytest.raises(PositivityError):
        integrate([system("A2"), system("G2")], (1.5, 1.5, 1.5, bad))


def test_non_finite_start_on_a_product_names_the_factor():
    # A2 and G2 share root labels; only the factor index tells them apart.
    # The NaN spreads to every root of G2; the message names the simple root holding it.
    with pytest.raises(PositivityError, match=r"root a1 in factor 1 is nan"):
        integrate([system("A2"), system("G2")], (1.5, 1.5, np.nan, 1.5))
    with pytest.raises(PositivityError, match=r"root a2 is nan, not finite"):
        integrate(system("A2"), (1.5, np.nan))


@pytest.mark.parametrize("factor", [-1, 2])
def test_per_root_rhs_refuses_a_factor_index_out_of_range(factor):
    systems = [system("A2"), system("G2")]
    root = systems[1].positives[0]
    with pytest.raises(ValueError, match=f"factor index {factor} out of range"):
        per_root_rhs(systems, (1.5, 1.5, 1.5, 1.5), factor, root)


@pytest.mark.parametrize("factor", [True, False, 1.0, "1", None])
def test_per_root_rhs_refuses_a_factor_index_that_is_not_an_integer(factor):
    systems = [system("A2"), system("G2")]
    with pytest.raises(ValueError, match="factor index must be an integer"):
        per_root_rhs(systems, (1.5, 1.5, 1.2, 1.3), factor, systems[1].positives[0])


def test_per_root_rhs_takes_a_numpy_integer_factor_index():
    systems = [system("A2"), system("G2")]
    x, root = (1.5, 1.5, 1.2, 1.3), systems[1].positives[-1]
    assert per_root_rhs(systems, x, np.int64(1), root) == per_root_rhs(systems, x, 1, root)


def test_positivity_violation_termination():
    traj = integrate(system("A2"), (2.0, 2.0), FlowConfig(eps_pos=1.5))
    assert traj.termination == "positivity_violation"
    assert not traj.converged


def test_multi_factor_joint_equals_independent():
    g = GroupSpec([FactorSpec(SimpleType("A", 2)), FactorSpec(SimpleType("B", 2))])
    cfg = FlowConfig(t_end=1.0)
    joint = integrate(g, (1.5, 0.9, 1.3, 1.2), cfg)
    solo_a = integrate(system("A2"), (1.5, 0.9), cfg)
    solo_b = integrate(system("B2"), (1.3, 1.2), cfg)
    assert np.allclose(joint.states[-1][:2], solo_a.states[-1], atol=1e-14)
    assert np.allclose(joint.states[-1][2:], solo_b.states[-1], atol=1e-14)


def test_normalization_time_rescaling_bit_exact():
    x0 = np.array([1.7, 2.3])
    xl = integrate(system("B2"), x0, FlowConfig(h=0.02, t_end=0.02)).states[-1]
    xs = integrate(system("B2", "short2"), x0, FlowConfig(h=0.01, t_end=0.01)).states[-1]
    assert np.array_equal(xl, xs)


def test_gradient_flow_structure():
    assert gradient_flow_check(system("A2"), (2.0, 1.5), t_end=2.0) < 1e-7
    assert gradient_flow_check(system("G2", "short2"), (1.2, 1.4), t_end=1.0) < 1e-7


def test_csv_round_trip_bit_exact(tmp_path):
    traj = integrate(system("A2"), (2.0, 1.3), FlowConfig(t_end=0.5))
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.f_values, traj.f_values)
    assert np.array_equal(back.grad_inf, traj.grad_inf)
    assert back.termination == traj.termination
    assert back.metadata["integrator"] == "rk4_fixed"


def test_csv_string_round_trip():
    traj = integrate(system("B2"), (1.4, 1.2), FlowConfig(t_end=0.2))
    s = traj.to_csv_string()
    assert s.startswith("#")
    header = [ln for ln in s.splitlines() if not ln.startswith("#")][0]
    assert header == "t,x_1,x_2,F,grad_inf"
    back = Trajectory.from_csv(io.StringIO(s))
    assert np.array_equal(back.states, traj.states)


def test_json_round_trip():
    traj = integrate(system("A2"), (1.5, 1.5), FlowConfig(t_end=0.3))
    data = json.loads(json.dumps(traj.to_json()))
    back = Trajectory.from_json(data)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert back.termination == traj.termination


def test_from_csv_rejects_empty():
    with pytest.raises(ValueError):
        Trajectory.from_csv(io.StringIO("# only = meta\nt,x_1,F,grad_inf\n"))
