"""Every number a caller hands the package is read by one rule, where it is made.

Scalars (tolerances, flow settings, a factor scale), matrices (a torus
metric, a jt, torus blocks) and vectors (torus vectors, weights, saved
trajectories) are refused with ValueError naming the argument when they
hold a bool or a string, which a float conversion would read as a number,
and, where the value must be real, when they are complex, which it would
truncate. Counts and indices refuse a bool, a non-integer or a negative
value. What the constructors accept saves and loads back unchanged.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import sktflow
from conftest import parse_token, system
from sktflow import (
    FactorSpec,
    FlowConfig,
    GroupSpec,
    TorusComplexStructure,
    TorusVector,
    Trajectory,
    canonical_jt,
    critical_point,
    d_omega,
    dc_omega,
    is_cyt,
    is_pluriclosed,
    load_structure,
    save_structure,
    sigma_form,
    theta_form,
    z_vector,
)

PACKAGE = Path(sktflow.__file__).resolve().parent
A2 = parse_token("A2")
BOOLS_OR_STRINGS = "must be numbers, not bools or strings"


def _a2():
    return GroupSpec([FactorSpec(A2)])


def _roots():
    a1, _ = system("A2").simples
    return a1, -a1


def _trajectory(times):
    return {"times": times, "states": [[1.0, 1.0]] * 2, "f_values": [2.0, 2.0],
            "grad_inf": [0.0, 0.0]}


REFUSED = {
    "z bool": (lambda: FactorSpec(A2, z=True), f"factor scale z {BOOLS_OR_STRINGS}"),
    "z string": (lambda: FactorSpec(A2, z="2"), f"factor scale z {BOOLS_OR_STRINGS}"),
    "complex torus": (lambda: _a2().build(torus=np.array([[2, 1j], [-1j, 2]])),
                      "torus metric must be real, got complex"),
    "complex jt": (lambda: _a2().build(torus=np.eye(2), jt=[[0, -1 + 1e-3j], [1, 0]]),
                   "jt must be real, got complex"),
    "string torus": (lambda: _a2().build(torus=[["2", "-1"], ["-1", "2"]]),
                     f"torus metric {BOOLS_OR_STRINGS}"),
    "string jt": (lambda: TorusComplexStructure([["0", "-1"], ["1", "0"]]),
                  f"jt {BOOLS_OR_STRINGS}"),
    "string block": (lambda: _a2().layout.blockdiag([[["2", "-1"], ["-1", "2"]]]),
                     f"torus block 0 {BOOLS_OR_STRINGS}"),
    "t_end string": (lambda: FlowConfig(t_end="5"), f"t_end {BOOLS_OR_STRINGS}"),
    "h bool": (lambda: FlowConfig(h=True), f"h {BOOLS_OR_STRINGS}"),
    "scan tol bool": (lambda: is_pluriclosed(_a2().build(), tol=True), f"tol {BOOLS_OR_STRINGS}"),
    "newton tol bool": (lambda: critical_point(system("A2"), tol=True), f"tol {BOOLS_OR_STRINGS}"),
    "cyt tol string": (lambda: is_cyt(_a2().build(), tol="1e-3"), f"tol {BOOLS_OR_STRINGS}"),
    "tol sequence": (lambda: is_cyt(_a2().build(), tol=[1e-8]),
                     "tol must be finite and positive"),
    "complex weights": (lambda: z_vector(system("A2"), [1 + 1j, 1.0, 1.0]),
                        "A2 weights must be real, got complex"),
    "complex torus vector": (lambda: TorusVector(np.array([1 + 1j, 2.0])),
                             "torus vector must be real, got complex"),
    "asymmetric metric": (lambda: canonical_jt([[2, 5], [0, 2]]),
                          "torus metric must be symmetric"),
    "bool torus argument": (lambda: dc_omega(_a2().build(), [True, False], *_roots()),
                            f"torus vector {BOOLS_OR_STRINGS}"),
    "string torus argument": (lambda: theta_form(_a2().build(), ["1", "0"]),
                              f"torus vector {BOOLS_OR_STRINGS}"),
    "bool trajectory times": (lambda: Trajectory.from_json(_trajectory([True, 1.0])),
                              f"times {BOOLS_OR_STRINGS}"),
    "negative max_iter": (lambda: critical_point(system("A2"), [1.5, 1.5], max_iter=-1),
                          "max_iter must be nonnegative, got -1"),
    "bool max_iter": (lambda: critical_point(system("A2"), [1.5, 1.5], max_iter=True),
                      "max_iter must be an integer, got True"),
}


@pytest.mark.parametrize("call,message", REFUSED.values(), ids=REFUSED)
def test_bad_caller_numbers_are_refused_where_they_are_read(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not truncated with a ComplexWarning
        with pytest.raises(ValueError, match=message):
            call()


def test_complex_torus_vectors_are_still_accepted():
    h = _a2().build(torus=np.eye(2), jt=canonical_jt(np.eye(2)))
    v = np.array([1 + 1j, 0.5])
    a1, neg = _roots()
    assert dc_omega(h, v, a1, neg) == dc_omega(h, list(v), a1, neg) != 0
    assert d_omega(h, v, a1, neg) == d_omega(h, tuple(v), a1, neg)
    assert theta_form(h, v).components == theta_form(h, v.tolist()).components
    assert sigma_form(h, v).components == sigma_form(h, v.tolist()).components


@pytest.mark.parametrize(
    "z", [2, np.int64(2), np.float32(2.5), np.float64(0.75)], ids=lambda z: type(z).__name__
)
def test_accepted_structures_round_trip(z, tmp_path):
    spec = FactorSpec(A2, z=z)
    assert type(spec.z) is float and spec.z == float(z)
    group = GroupSpec([spec, FactorSpec(parse_token("G2"))])
    fiber = [[2, 3, 4], [1, 2, 3, 1, 2, 5]]  # integer rows
    blocks = [[[4, -2], [-2, 4]], [[2, -3], [-3, 6]]]  # integer torus blocks
    for h in (group.build(fiber), group.build(fiber, torus=group.layout.blockdiag(blocks))):
        path = tmp_path / "structure.json"
        save_structure(h, path)
        back = load_structure(path)
        assert back.fiber.values == h.fiber.values
        assert [f.z for f in back.group.factors] == [f.z for f in h.group.factors]
        assert back.torus.is_killing == h.torus.is_killing
        assert np.array_equal(back.gt, h.gt)


def test_flow_settings_are_kept_as_python_floats():
    cfg = FlowConfig(h=np.float32(0.5), t_end=np.int64(3))
    assert type(cfg.h) is float and type(cfg.t_end) is float
    assert cfg.h == 0.5 and cfg.t_end == 3.0


def _dtype_conversions(source: str) -> list[int]:
    """Lines of np.array/np.asarray calls with dtype float or complex."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("array", "asarray")
        and any(k.arg == "dtype" and isinstance(k.value, ast.Name)
                and k.value.id in ("float", "complex") for k in node.keywords)
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "roots.py"), ids=lambda p: p.name
)
def test_no_module_but_the_rules_home_converts_to_float_or_complex(path):
    assert _dtype_conversions(path.read_text(encoding="utf-8")) == []
