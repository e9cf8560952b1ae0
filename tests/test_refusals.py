"""Refusals and degenerate inputs that no other test reaches: each refusal
raises its own type with its message, as a caller or a shell reads it."""

import re

import numpy as np
import pytest
from click.testing import CliRunner

import sktflow.cli as cli_module
from conftest import system
from sktflow import (
    ConsistencyError,
    FactorSpec,
    GroupSpec,
    MissingComplexStructureError,
    SimpleType,
    d_omega,
    integrate,
    is_pluriclosed,
    omega_form,
    structure_from_dict,
)
from sktflow.cli import main

A2 = GroupSpec([FactorSpec(SimpleType("A", 2))])
A2G2 = GroupSpec([FactorSpec(SimpleType("A", 2)), FactorSpec(SimpleType("G", 2))])
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

REFUSALS = {
    "no_factor": (lambda: GroupSpec([]), ValueError, "a group needs at least one factor"),
    "torus_not_square": (
        lambda: A2.build(torus=np.ones((2, 3))), ValueError,
        "expected a square matrix, got shape (2, 3)",
    ),
    "jt_not_complex": (
        lambda: A2.build(jt=np.eye(2)), ValueError,
        "torus complex structure must square to -identity",
    ),
    "torus_size": (
        lambda: A2.build(torus=np.eye(3)), ValueError,
        "torus metric size does not match the total rank",
    ),
    "jt_size": (
        lambda: A2.build(jt=np.kron(np.eye(2), J2)), ValueError,
        "jt size does not match the total rank",
    ),
    "bare_root": (
        lambda: A2G2.build().parse_argument(A2G2.systems[0].simples[0]), ValueError,
        "bare Root argument is ambiguous on a product; pass (factor, Root)",
    ),
    "omega_without_jt": (
        lambda: omega_form(A2.build()), MissingComplexStructureError,
        "the fundamental form needs a torus complex structure",
    ),
    "scan_mode": (
        lambda: is_pluriclosed(A2.build(), mode="fast"), ValueError,
        "unknown mode 'fast'; expected closed_form or brute_force",
    ),
    "torus_entry": (
        lambda: structure_from_dict({"factors": [{"family": "A", "rank": 2}], "torus": "flat"}),
        ValueError, "unknown torus entry 'flat'",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_raises_its_type_with_its_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)) as exc:
        call()
    assert type(exc.value) is error


def _raise_consistency(*args, **kwargs):
    raise ConsistencyError("identity suite disagrees with itself")


@pytest.mark.parametrize(
    "args,patch,code,output",
    [
        (["flow", "A", "2", "--x0", "a,b"], None, 2,
         "error: cannot parse vector 'a,b'; expected comma-separated floats\n"),
        (["roots", "A", "2"], _raise_consistency, 3,
         "error: identity suite disagrees with itself\n"),
    ],
    ids=["bad_vector", "consistency_error"],
)
def test_a_command_maps_its_refusal_onto_the_exit_code(monkeypatch, args, patch, code, output):
    if patch is not None:
        monkeypatch.setattr(cli_module, "verify_identities", patch)
    res = CliRunner().invoke(main, args)
    assert res.exit_code == code
    assert res.output.endswith(output)


def test_d_omega_of_a_triple_across_two_factors_is_zero():
    a1, b1 = A2G2.systems[0].simples[0], A2G2.systems[1].simples[0]
    assert d_omega(A2G2.build(), (0, a1), (1, b1), (1, -b1)) == 0j


def test_a_flow_from_the_critical_point_converges_without_a_step():
    traj = integrate(system("A2"), (1.0, 1.0))
    assert traj.converged and traj.stats.accepted == 0
    assert traj.stats.h_min == traj.stats.h_max == 0.0
