"""Refusals and degenerate inputs that no other test reaches: each refusal
raises its own type with its message, as a caller or a shell reads it."""

import io
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

import sktflow.cli as cli_module
from conftest import system
from sktflow import (
    ConsistencyError,
    FactorLayout,
    FactorSpec,
    GroupSpec,
    InvariantForm,
    MissingComplexStructureError,
    Root,
    SimpleType,
    Trajectory,
    canonical_jt,
    d_omega,
    integrate,
    is_pluriclosed,
    moduli_dimensions,
    omega_form,
    squarefree_split,
    structure_constants,
    structure_from_dict,
)
from sktflow.cli import main
from sktflow.family import sqrt_and_inverse
from sktflow.surd import Surd

A2 = GroupSpec([FactorSpec(SimpleType("A", 2))])
A2G2 = GroupSpec([FactorSpec(SimpleType("A", 2)), FactorSpec(SimpleType("G", 2))])
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _trajectory():
    return {"times": [0.0, 1.0], "states": [[1.0, 1.0]] * 2, "f_values": [2.0, 2.0],
            "grad_inf": [0.0, 0.0]}


def _csv_with(line):
    """A one-row trajectory CSV under the metadata line `# line`."""
    return io.StringIO(f"# {line}\nt,x_1,F,grad_inf\n0,1,2,0\n")


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
    "form_value_count": (
        lambda: InvariantForm.from_arrays(A2.basis, 2, [[0, 1]], [1.0, 2.0]), ValueError,
        "need (n, 2) keys for n values",
    ),
    "index_of_non_root": (
        lambda: A2.systems[0].index_of((1, -1)), ValueError, "(1, -1) is not a root of A2",
    ),
    "root_of_non_root": (
        lambda: A2.systems[0].root((2, 1)), ValueError, "(2, 1) is not a root of A2",
    ),
    "moduli_without_torus": (
        lambda: moduli_dimensions(0, 1), ValueError, "need d >= 1 and nposroots >= 0",
    ),
    "layout_index": (
        lambda: FactorLayout(A2.systems).locate(5), IndexError, "index 5 is outside the layout",
    ),
    "table_without_sum": (
        lambda: structure_constants(A2.systems[0]).table[((1, 0), (1, 0))], KeyError,
        "((1, 0), (1, 0))",
    ),
    "squarefree_of_zero": (
        lambda: squarefree_split(0), ValueError, "expected a positive integer, got 0",
    ),
    "squarefree_of_negative": (
        lambda: squarefree_split(-12), ValueError, "expected a positive integer, got -12",
    ),
    "surd_by_zero_surd": (
        lambda: Surd(Fraction(1), 2) / Surd.of(0), ZeroDivisionError, "division by zero surd",
    ),
    "root_sign": (
        lambda: Root((1, -1)), ValueError, "coefficients (1, -1) of a root mix signs or are all 0",
    ),
    "element_factor_below": (
        lambda: A2G2.basis.element_index(-1, 0), ValueError, "factor index -1 out of range",
    ),
    "element_factor_above": (
        lambda: A2G2.basis.element_index(2, 0), ValueError, "factor index 2 out of range",
    ),
    "element_root_above": (
        lambda: A2.basis.element_index(0, 6), ValueError,
        "root index 6 of factor 0 is not an integer in [0, 6)",
    ),
    "element_root_below": (
        lambda: A2.basis.element_index(0, -1), ValueError,
        "root index -1 of factor 0 is not an integer in [0, 6)",
    ),
    "element_root_array": (
        lambda: A2.basis.element_index(0, np.array([0, 6])), ValueError,
        "root index [0 6] of factor 0 is not an integer in [0, 6)",
    ),
    "layout_negative_index": (
        lambda: FactorLayout(A2.systems).locate(-1), IndexError, "index -1 is outside the layout",
    ),
    "moduli_fractional": (
        lambda: moduli_dimensions(1.5, 2), ValueError, "d must be an integer, got 1.5",
    ),
    "moduli_bool": (
        lambda: moduli_dimensions(True, 2), ValueError, "d must be an integer, got True",
    ),
    "moduli_fractional_roots": (
        lambda: moduli_dimensions(2, 2.5), ValueError, "nposroots must be an integer, got 2.5",
    ),
    "squarefree_of_fraction": (
        lambda: squarefree_split(2.5), ValueError, "expected a positive integer, got 2.5",
    ),
    "squarefree_of_bool": (
        lambda: squarefree_split(True), ValueError, "expected a positive integer, got True",
    ),
    "trajectory_without_states": (
        lambda: Trajectory.from_json({"times": [0.0], "f_values": [2.0], "grad_inf": [0.0]}),
        ValueError, "trajectory data has no 'states' column",
    ),
    "trajectory_stats_key": (
        lambda: Trajectory.from_json({**_trajectory(), "stats": {"steps": 3}}), ValueError,
        "unknown stats key 'steps'",
    ),
    "trajectory_stats_string": (
        lambda: Trajectory.from_json({**_trajectory(), "stats": {"evaluations": "x"}}),
        ValueError, "stats.evaluations must be an integer, got 'x'",
    ),
    "trajectory_stats_bool": (
        lambda: Trajectory.from_json({**_trajectory(), "stats": {"evaluations": True}}),
        ValueError, "stats.evaluations must be an integer, got True",
    ),
    "trajectory_stats_fraction": (
        lambda: Trajectory.from_json({**_trajectory(), "stats": {"evaluations": 1.5}}),
        ValueError, "stats.evaluations must be an integer, got 1.5",
    ),
    "trajectory_stats_float_string": (
        lambda: Trajectory.from_json({**_trajectory(), "stats": {"wall_s": "fast"}}),
        ValueError, "stats.wall_s must be a number, got 'fast'",
    ),
    "trajectory_stats_list": (
        lambda: Trajectory.from_json({**_trajectory(), "stats": [1, 2]}), ValueError,
        "trajectory stats must be a mapping, got [1, 2]",
    ),
    "trajectory_metadata_list": (
        lambda: Trajectory.from_json({**_trajectory(), "metadata": [1, 2]}), ValueError,
        "trajectory metadata must be a mapping, got [1, 2]",
    ),
    "trajectory_termination": (
        lambda: Trajectory.from_json({**_trajectory(), "termination": 3}), ValueError,
        "trajectory termination must be a string, got 3",
    ),
    "trajectory_csv_stats": (
        lambda: Trajectory.from_csv(_csv_with("stats.evaluations = x")),
        ValueError, "stats.evaluations must be an integer, got 'x'",
    ),
    "trajectory_csv_fraction": (
        lambda: Trajectory.from_csv(_csv_with("stats.accepted = 2.5")),
        ValueError, "stats.accepted must be an integer, got '2.5'",
    ),
    "trajectory_flat_states": (
        lambda: Trajectory.from_json({**_trajectory(), "states": [1.0, 1.0]}), ValueError,
        "states must have shape (2, d) with d >= 1, got (2,)",
    ),
    "trajectory_short_times": (
        lambda: Trajectory.from_json({**_trajectory(), "times": [0.0]}), ValueError,
        "f_values must have the shape of times, (1,), got (2,)",
    ),
    "trajectory_short_states": (
        lambda: Trajectory.from_json({**_trajectory(), "states": [[1.0, 1.0]]}), ValueError,
        "states must have shape (2, d) with d >= 1, got (1, 2)",
    ),
    "trajectory_csv_header": (
        lambda: Trajectory.from_csv(io.StringIO("t,x_1,F,grad_inf\n0,1,1,2,0\n")), ValueError,
        "trajectory row 0 has 5 numbers under a header of 4",
    ),
    "trajectory_csv_names": (
        lambda: Trajectory.from_csv(io.StringIO("t,y,F,grad_inf\n0,1,2,0\n")), ValueError,
        "trajectory header 't,y,F,grad_inf' is not t,x_1,...,x_d,F,grad_inf",
    ),
    "trajectory_csv_row": (
        lambda: Trajectory.from_csv(io.StringIO("t,x_1,F,grad_inf\n0,1,2,0\n1,1,2\n")),
        ValueError, "trajectory row 1 has 3 numbers under a header of 4",
    ),
    "sqrt_of_indefinite": (
        lambda: sqrt_and_inverse(np.diag([1.0, -1.0])), ValueError,
        "torus metric must be positive definite",
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


def test_classify_exits_1_when_no_factor_scaling_is_compatible(tmp_path):
    gt = np.array([[2.0, 0.3], [0.3, 1.0]])
    data = {"factors": [{"family": "A", "rank": 2}], "torus": {"blocks": [gt.tolist()]},
            "jt": canonical_jt(gt).tolist()}
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    res = CliRunner().invoke(main, ["classify", str(path)])
    assert res.exit_code == 1
    assert res.output == (
        "compatibility cone dimension: 0\n"
        "no positive factor scaling is compatible with this complex structure\n"
    )


def test_a_pair_of_a_root_and_a_non_root_has_the_zero_structure_constant():
    assert structure_constants(A2.systems[0]).value((1, 0), (2, 2)) == Surd.of(0)


def test_a_root_prints_as_its_label():
    root = A2.systems[0].positives[-1]
    assert str(root) == root.label == "a1+a2" and str(-root) == "-(a1+a2)"


def test_from_csv_skips_blank_lines_and_round_trips_the_states_exactly():
    traj = integrate(system("A2"), (1.3, 0.8))
    buf = io.StringIO()
    traj.to_csv(buf)
    text = "\n" + buf.getvalue().replace("\n", "\n\n")
    back = Trajectory.from_csv(io.StringIO(text))
    for name in ("times", "states", "f_values", "grad_inf"):
        assert getattr(back, name).tobytes() == getattr(traj, name).tobytes()
    assert len(traj.times) > 1 and back.termination == traj.termination == "converged"


def test_d_omega_of_a_triple_across_two_factors_is_zero():
    a1, b1 = A2G2.systems[0].simples[0], A2G2.systems[1].simples[0]
    assert d_omega(A2G2.build(), (0, a1), (1, b1), (1, -b1)) == 0j


def test_a_flow_from_the_critical_point_converges_without_a_step():
    traj = integrate(system("A2"), (1.0, 1.0))
    assert traj.converged and traj.stats.accepted == 0
    assert traj.stats.h_min == traj.stats.h_max == 0.0
