"""The RKF45 step written out on Python floats is the plain numpy step, bit for bit.

`flow._rkf45` forms each stage input, x4 and x5 as one comprehension over
the state's Python floats, `(k1*c1 + k2*c2 + ...) * h + x`, from the first
nonzero tableau term with zero terms skipped, and takes err as max|x5 - x4|.
The reference here is the same sums in numpy, `x + h * sum(c * k)`: Python
float * and + round as numpy's elementwise ufuncs do, so every stage, x5
and err must agree to the bit, at every state size, at extreme scales, with
signed zeros, and through whole runs on E8 and E8xE8.
"""

import math
from dataclasses import asdict
from functools import reduce

import numpy as np
import pytest

import sktflow.flow as flow_module
from conftest import system
from sktflow import FlowConfig, family_bound, integrate
from sktflow.flow import _rkf45
from test_flow_reuse import _RKF_B4, _RKF_B5, _RKF_K

SIZES = (1, 3, 5, 16, 24)
STEPS = (1e-300, 1e-3, 0.37, 1e300)


def _plain_sum(coefs, ks):
    """sum(c * k) in numpy, from the first nonzero term, zero terms skipped."""
    return reduce(np.add, (c * k for c, k in zip(coefs, ks) if c))


def _plain_rkf45(f, x, h, k1):
    """The RKF45 step in numpy: every stage and point is x + h * sum(c * k)."""
    ks = [k1]
    for row in _RKF_K:
        ks.append(f(x + h * _plain_sum(row, ks)))
    x4 = x + h * _plain_sum(_RKF_B4, ks)
    x5 = x + h * _plain_sum(_RKF_B5, ks)
    return x5, float(np.maximum.reduce(np.abs(x5 - x4)))


def _replay(ks):
    """A stage function that returns ks in turn, and the list of its arguments."""
    seen, answers = [], iter(ks)

    def f(x):
        seen.append(x)
        return next(answers)

    return f, seen


def _vectors(rng, count, n, scale):
    """count vectors of length n, entries of random sign at scale, or at a scale
    10**U(-300, 300) per entry if scale is None; about a quarter of the entries
    replaced by +0.0 or -0.0."""
    size = 10.0 ** rng.uniform(-300, 300, (count, n)) if scale is None else scale
    out = rng.choice((-1.0, 1.0), (count, n)) * size * rng.uniform(0.5, 2.0, (count, n))
    zero = rng.random(out.shape) < 0.25
    out[zero] = np.where(rng.random(out.shape) < 0.5, 0.0, -0.0)[zero]
    return list(out)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _steps(x, ks, h):
    """The written-out and the plain step from x with stage values ks: their
    stage inputs, x5 and err."""
    out = []
    for step in (_rkf45, _plain_rkf45):
        f, seen = _replay(ks[1:])
        x5, err = step(f, x, h, ks[0])
        out.append(([s.tobytes() for s in seen], x5.tobytes(), err))
    return out


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("scale", (None, 1e-300, 1e-150, 1.0, 1e150, 1e300))
def test_the_written_out_step_is_the_plain_numpy_step_bit_for_bit(n, scale):
    rng = np.random.default_rng(n)
    with np.errstate(all="ignore"):  # the reference overflows at the far scales
        for h in STEPS:
            for _ in range(20):
                x, *ks = _vectors(rng, 7, n, scale)
                (stages, x5, err), (plain_stages, plain_x5, plain_err) = _steps(x, ks, h)
                assert stages == plain_stages
                assert x5 == plain_x5
                assert _same(err, plain_err)


def test_the_step_keeps_the_sign_of_zero():
    # every k is zero, so each stage and x5 is x + (+-0.0): -0.0 stays -0.0 only
    # when every term is -0.0, and no term 0 * k is added for a zero coefficient
    for x0 in (0.0, -0.0):
        for k0 in (0.0, -0.0):
            x = np.full(3, x0)
            ks = [np.full(3, k0) for _ in range(6)]
            (stages, x5, err), (plain_stages, plain_x5, _) = _steps(x, ks, 0.5)
            assert stages == plain_stages and x5 == plain_x5 and err == 0.0


def test_zero_weights_are_skipped_not_multiplied():
    # k2 has weight 0 in x4 and x5, and k6 in x4: an inf there must not add 0 * inf = NaN
    rng = np.random.default_rng(1)
    x, *ks = list(rng.standard_normal((7, 3)))
    ks[1][0] = np.inf
    ks[5][2] = np.inf
    with np.errstate(invalid="ignore"):
        (stages, x5, err), (plain_stages, plain_x5, plain_err) = _steps(x, ks, 0.1)
    assert stages == plain_stages and x5 == plain_x5
    assert np.isfinite(np.frombuffer(x5)[:2]).all() and np.frombuffer(x5)[2] == np.inf
    assert err == plain_err == math.inf


@pytest.mark.parametrize("at", (0, 2, 4))
def test_err_is_nan_wherever_an_inf_minus_inf_lands(at):
    rng = np.random.default_rng(at)
    x, *ks = list(rng.standard_normal((7, 5)))
    x[at] = np.inf  # x4 and x5 are inf there, and x5 - x4 is NaN
    with np.errstate(invalid="ignore"):
        x5, err = _rkf45(_replay(ks[1:])[0], x, 0.1, ks[0])
        plain_x5, plain_err = _plain_rkf45(_replay(ks[1:])[0], x, 0.1, ks[0])
    assert math.isnan(err) and math.isnan(plain_err)
    assert x5.tobytes() == plain_x5.tobytes()
    # one entry that overflows on one side only makes err inf, not NaN
    x[at] = 1.0
    ks[5][at] = 1e308  # k6 enters x5 only
    with np.errstate(over="ignore"):
        err = _rkf45(_replay(ks[1:])[0], x, 1e300, ks[0])[1]
    assert err == math.inf


def _run(systems, x0, cfg):
    traj = integrate(systems, x0, cfg)
    stats = {k: v for k, v in asdict(traj.stats).items() if k != "wall_s"}
    columns = (traj.times, traj.states, traj.f_values, traj.grad_inf)
    return [c.tobytes() for c in columns], traj.termination, stats


@pytest.mark.parametrize("token", ["E8", "E8xE8"])
def test_rkf45_runs_match_the_plain_numpy_stepper(token, monkeypatch):
    systems = [system(t) for t in token.split("x")]
    rng = np.random.default_rng(8)
    starts = [np.concatenate([rng.uniform(0.9, 2.0, rs.rank) for rs in systems]) for _ in range(2)]
    # just above the family bound, where the positivity guard halves steps
    starts.append(np.concatenate([family_bound(rs) + rng.uniform(1e-4, 1e-3, rs.rank) for rs in systems]))
    cfg = FlowConfig(integrator="rkf45", t_end=400.0, tol=1e-7)
    runs = [_run(systems, x0, cfg) for x0 in starts]
    monkeypatch.setattr(flow_module, "_rkf45", _plain_rkf45)
    plain = [_run(systems, x0, cfg) for x0 in starts]
    assert runs == plain
    assert all(termination == "converged" for _, termination, _ in runs)
    assert runs[-1][2]["halvings"] > 0
