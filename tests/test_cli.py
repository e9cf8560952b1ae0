"""End-to-end command tests through the click runner."""

import functools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from sktflow import (
    FactorSpec,
    GroupSpec,
    SimpleType,
    StructureConstants,
    FlowConfig,
    Trajectory,
    canonical_jt,
    pluriclosed_family,
    save_structure,
    verify_identities,
    build_root_system,
)
import sktflow.cli as cli_module
from sktflow.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


# ---------------------------------------------------------------- roots

def test_roots_g2_short2(runner):
    res = invoke(runner, "roots", "G", "2", "--norm", "short2")
    assert res.exit_code == 0
    assert "6 positive roots" in res.output
    assert "[2, -3]" in res.output and "[-3, 6]" in res.output
    assert "identities PASS" in res.output


def test_roots_a2(runner):
    res = invoke(runner, "roots", "A", "2")
    assert res.exit_code == 0
    assert "3 positive roots" in res.output


def test_roots_e7_runs_the_full_identity_check(runner):
    res = invoke(runner, "roots", "E", "7")
    assert res.exit_code == 0
    rs = build_root_system(SimpleType("E", 7))
    rep = verify_identities(rs, cli_module.structure_constants(rs))
    assert rep.counts["four_term_cocycle"] == len(rs.zero_sum_quads()) == 7560
    assert f"identities PASS ({sum(rep.counts.values())} checks)" in res.output


def test_roots_invalid_rank(runner):
    res = invoke(runner, "roots", "D", "2")
    assert res.exit_code == 2
    assert "D requires rank ≥ 3" in res.output


def test_roots_lowercase_family(runner):
    res = invoke(runner, "roots", "b", "2")
    assert res.exit_code == 0
    assert "4 positive roots" in res.output


# ---------------------------------------------------------------- check

def _write_family(path, token, simple_values):
    g = GroupSpec([FactorSpec(SimpleType(token[0], int(token[1:])))])
    h = pluriclosed_family(g, simple_values)
    save_structure(h, path)
    return h


def test_check_family_structure(runner, tmp_path):
    p = tmp_path / "a2.json"
    _write_family(p, "A2", (2.0, 2.0))
    res = invoke(runner, "check", str(p))
    assert res.exit_code == 0
    assert "pluriclosed: true" in res.output
    assert "cyt: false" in res.output
    assert "-1.1666666666666667" in res.output


def test_check_killing_is_cyt(runner, tmp_path):
    p = tmp_path / "b3.json"
    _write_family(p, "B3", (1.0, 1.0, 1.0))
    res = invoke(runner, "check", str(p), "--mode", "brute_force")
    assert res.exit_code == 0
    assert "pluriclosed: true" in res.output
    assert "cyt: true" in res.output


def test_check_off_family_fails(runner, tmp_path):
    g = GroupSpec([FactorSpec(SimpleType("A", 2))])
    h = g.build(x=[(2.0, 2.0, 4.0)])
    p = tmp_path / "bad.json"
    save_structure(h, p)
    res = invoke(runner, "check", str(p))
    assert res.exit_code == 1
    assert "pluriclosed: false" in res.output
    assert "worst witness: pair" in res.output
    assert "max residual: 1" in res.output


def test_check_prints_what_the_scan_checked(runner, tmp_path):
    p = tmp_path / "b2.json"
    p.write_text(json.dumps({"factors": [{"family": "B", "rank": 2, "x": [1, 2, 1.5, 0.7]}]}))
    res = invoke(runner, "check", str(p))
    assert res.exit_code == 1
    assert re.search(r"^checked: 6 residual rows in [0-9.e+-]+ ms$", res.output, re.M)
    res = invoke(runner, "check", str(p), "--mode", "brute_force")
    assert res.exit_code == 1
    assert re.search(r"^checked: \d+ dd\^c components in [0-9.e+-]+ ms$", res.output, re.M)


def test_check_bad_file(runner, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    res = invoke(runner, "check", str(p))
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    res = invoke(runner, "check", str(tmp_path / "missing.json"))
    assert res.exit_code == 2


def test_check_refuses_blocks_that_do_not_match_factor_ranks(runner, tmp_path):
    p = tmp_path / "blocks.json"
    p.write_text(json.dumps({
        "factors": [{"family": "A", "rank": 1}, {"family": "A", "rank": 2}],
        "torus": {"blocks": [[[2, 0.5], [0.5, 2]], [[3]]]},
    }))
    res = invoke(runner, "check", str(p))
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    assert "factor 0" in res.output


@pytest.mark.parametrize(
    "text",
    [
        '{"factors": [{"family": "A", "rank": 2, "z": Infinity}], "torus": "killing"}',
        '{"factors": [{"family": "A", "rank": 2}], "torus": {"blocks": [[[Infinity, 0], [0, 2]]]}}',
        '{"factors": [{"family": "A", "rank": 2}], "torus": "killing", "jt": [[NaN, -1], [1, 0]]}',
    ],
    ids=["z", "torus", "jt"],
)
def test_check_refuses_non_finite_numbers(runner, tmp_path, text):
    p = tmp_path / "s.json"
    p.write_text(text)
    res = invoke(runner, "check", str(p))
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    assert "finite" in res.output


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"factors": [{"family": "A", "rank": 2, "z": 1e200, "x": [1e200, 1e200, 1e200]}]}',
         "factor 0, root position 0"),
        ('{"factors": [{"family": "A", "rank": 2.5}]}', "factor 0: rank must be"),
        ('{"factors": [{"family": "A", "rank": true}]}', "factor 0: rank must be"),
    ],
    ids=["overflow", "rank_2.5", "rank_true"],
)
def test_check_refuses_overflow_and_non_integer_rank(runner, tmp_path, text, message):
    p = tmp_path / "s.json"
    p.write_text(text)
    res = invoke(runner, "check", str(p))
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    assert message in res.output


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_check_refuses_a_tol_that_is_not_finite_and_positive(runner, tmp_path, tol):
    p = tmp_path / "off.json"
    save_structure(GroupSpec([FactorSpec(SimpleType("A", 2))]).build(x=[(2.0, 2.0, 4.0)]), p)
    res = invoke(runner, "check", str(p), "--tol", tol)
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    assert "tol must be finite and positive" in res.output


# ---------------------------------------------------------------- classify

def test_classify_requires_jt(runner, tmp_path):
    p = tmp_path / "a2.json"
    _write_family(p, "A2", (2.0, 2.0))
    res = invoke(runner, "classify", str(p))
    assert res.exit_code == 2
    assert "error:" in res.output and "jt" in res.output


def test_classify_coupled_pair(runner, tmp_path):
    b = 2.0
    g = GroupSpec([FactorSpec(SimpleType("A", 1), z=b * b), FactorSpec(SimpleType("A", 1))])
    jt = np.array([[0.0, -1.0 / b], [b, 0.0]])
    h = g.build(jt=jt)
    p = tmp_path / "pair.json"
    save_structure(h, p)
    res = invoke(runner, "classify", str(p))
    assert res.exit_code == 0
    assert "cone dimension: 1" in res.output
    assert "irreducible: true" in res.output


def test_classify_blockdiag_reducible(runner, tmp_path):
    g = GroupSpec([FactorSpec(SimpleType("A", 2)), FactorSpec(SimpleType("A", 2))])
    h0 = g.build()
    jt = np.zeros((4, 4))
    jt[:2, :2] = canonical_jt(h0.gt[:2, :2])
    jt[2:, 2:] = canonical_jt(h0.gt[2:, 2:])
    p = tmp_path / "block.json"
    save_structure(g.build(jt=jt), p)
    res = invoke(runner, "classify", str(p))
    assert res.exit_code == 0
    assert "cone dimension: 2" in res.output
    assert "irreducible: false" in res.output


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_classify_refuses_a_tol_that_is_not_finite_and_positive(runner, tmp_path, tol):
    g = GroupSpec([FactorSpec(SimpleType("A", 1), z=4.0), FactorSpec(SimpleType("A", 1))])
    p = tmp_path / "pair.json"
    save_structure(g.build(jt=np.array([[0.0, -0.5], [2.0, 0.0]])), p)
    res = invoke(runner, "classify", str(p), "--tol", tol)
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    assert "tol must be finite and positive" in res.output


# ---------------------------------------------------------------- flow

def test_flow_converges_and_writes_csv(runner, tmp_path):
    out = tmp_path / "traj.csv"
    res = invoke(
        runner, "flow", "A", "2", "--x0", "2,2", "--t-end", "50", "--out", str(out)
    )
    assert res.exit_code == 0
    assert "termination: converged" in res.output
    traj = Trajectory.from_csv(out)
    assert np.abs(traj.states[-1] - 1).max() < 1e-6


def test_flow_json_output(runner, tmp_path):
    out = tmp_path / "traj.json"
    res = invoke(
        runner,
        "flow", "G", "2", "--norm", "short2", "--x0", "1,2",
        "--t-end", "5", "--out", str(out), "--format", "json",
    )
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    xs = np.array(data["states"])
    assert np.abs(xs[:, 0] - 1).max() < 1e-9


def test_flow_bad_start(runner):
    res = invoke(runner, "flow", "B", "2", "--x0", "0.5,0.5")
    assert res.exit_code == 2
    assert "error:" in res.output


@pytest.mark.parametrize("start", ["nan,1.5", "inf,1.5", "1.5,-inf"])
def test_flow_non_finite_start(runner, start):
    res = invoke(runner, "flow", "A", "2", "--x0", start)
    assert res.exit_code == 2
    assert res.output.startswith("error: ")
    assert "termination" not in res.output


def test_flow_infinite_t_end_is_refused():
    # run apart, with a timeout: a run to t_end = inf would never return
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = ["flow", "A", "2", "--x0", "2,2", "--t-end", "inf", "--tol", "1e-300"]
    out = subprocess.run(
        [sys.executable, "-m", "sktflow.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout.startswith("error: t_end must be finite and positive")


def test_flow_bad_vector_length(runner):
    res = invoke(runner, "flow", "A", "2", "--x0", "1,2,3")
    assert res.exit_code == 2
    assert "expected 2" in res.output


def test_flow_positivity_violation_exit(runner):
    res = invoke(runner, "flow", "A", "2", "--x0", "2,2", "--eps-pos", "1.5")
    assert res.exit_code == 3
    assert "termination: positivity_violation" in res.output


def test_flow_refuses_a_step_below_min_step(runner):
    res = invoke(runner, "flow", "A", "2", "--x0", "1.5,1.5", "--h", "1e-300", "--t-end", "1")
    assert res.exit_code == 2
    assert res.output == "error: h (1e-300) must be at least min_step (1e-12)\n"


def test_flow_step_underflow_exit(runner, monkeypatch):
    # The CLI keeps FlowConfig's rel_tol and min_step; tighten them behind it.
    monkeypatch.setattr(
        cli_module, "FlowConfig", functools.partial(FlowConfig, rel_tol=1e-300, min_step=1e-3)
    )
    res = invoke(runner, "flow", "A", "2", "--x0", "2,2", "--integrator", "rkf45")
    assert res.exit_code == 3
    assert "termination: step_underflow" in res.output


def test_flow_stats_match_the_written_trajectory(runner, tmp_path):
    out = tmp_path / "traj.csv"
    res = invoke(runner, "flow", "B", "2", "--x0", "1.7,1.2", "--stats", "--out", str(out))
    assert res.exit_code == 0
    printed = dict(
        line.split(" = ") for line in res.output.splitlines() if line.startswith("stats.")
    )
    traj = Trajectory.from_csv(out)
    assert printed == traj.stats.to_meta()
    assert traj.stats.accepted == len(traj.times) - 1


def test_flow_rkf45(runner):
    res = invoke(
        runner, "flow", "A", "3", "--x0", "1.5,2,0.9", "--integrator", "rkf45"
    )
    assert res.exit_code == 0
    assert "termination: converged" in res.output


# ---------------------------------------------------------------- verify

def test_verify_default_passes(runner):
    res = invoke(runner, "verify", "--types", "A2,B2,G2")
    assert res.exit_code == 0
    assert "A2: PASS" in res.output
    assert "G2: PASS" in res.output


def test_verify_sampled_cocycle(runner):
    res = invoke(runner, "verify", "--types", "D4", "--cocycle-limit", "50", "--seed", "3")
    assert res.exit_code == 0
    assert "D4: PASS" in res.output


def test_verify_counts_the_failures_it_does_not_print(runner, monkeypatch):
    build = cli_module.structure_constants

    def doubled(rs):
        table = {key: 2 * value for key, value in build(rs).table.items()}
        return StructureConstants(system=rs, table=table)

    monkeypatch.setattr(cli_module, "structure_constants", doubled)
    res = invoke(runner, "verify", "--types", "A2,G2")
    assert res.exit_code == 3
    lines = res.output.splitlines()
    for token in ("A2", "G2"):
        at = next(k for k, line in enumerate(lines) if line.startswith(f"{token}: FAIL ("))
        rs = build_root_system(SimpleType(token[0], 2))
        rep = verify_identities(rs, doubled(rs))
        assert rep.failure_count > 5
        assert all(line.startswith("  failure: ") for line in lines[at + 1:at + 6])
        assert lines[at + 6] == f"  ... and {rep.failure_count - 5} more failures"


@pytest.mark.parametrize("types", [",", " , ,", ""])
def test_verify_without_a_type_is_an_input_error(runner, types):
    res = invoke(runner, "verify", "--types", types)
    assert res.exit_code == 2
    assert res.output.startswith("error: --types names no type")


def test_verify_bad_token(runner):
    res = invoke(runner, "verify", "--types", "A2,Q9")
    assert res.exit_code == 2
    assert "error:" in res.output


def test_verify_negative_cocycle_limit(runner):
    res = invoke(runner, "verify", "--types", "D4", "--cocycle-limit", "-1")
    assert res.exit_code == 2
    assert "cocycle_limit must be nonnegative" in res.output


@pytest.mark.parametrize("types", ["A2", "G2"])  # without quads and with them
@pytest.mark.parametrize("option,args", [
    ("--seed", ["--seed", "-1", "--cocycle-limit", "1"]),
    ("--seed", ["--seed", "-3"]),
    ("--cocycle-limit", ["--cocycle-limit", "-1", "--seed", "2"]),
])
def test_verify_refuses_a_negative_seed_or_limit_before_any_work(runner, types, option, args):
    res = invoke(runner, "verify", "--types", types, *args)
    assert res.exit_code == 2
    assert res.output.startswith(f"error: {option}: ") and "must be nonnegative" in res.output
    assert f"{types}: " not in res.output


# ---------------------------------------------------------------- cold start

def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, sktflow; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------- round trip

def test_generated_structure_round_trips_through_check(runner, tmp_path):
    rng = np.random.default_rng(21)
    for token in ("A2", "B2", "C3"):
        p = tmp_path / f"{token}.json"
        g = GroupSpec([FactorSpec(SimpleType(token[0], int(token[1:])))])
        vals = tuple(rng.uniform(1.0, 2.0, g.systems[0].rank))
        save_structure(pluriclosed_family(g, vals), p)
        res = invoke(runner, "check", str(p), "--tol", "1e-10")
        assert res.exit_code == 0, res.output
        assert "pluriclosed: true" in res.output


def test_check_refuses_a_torus_block_that_is_not_numbers(runner, tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"factors": [{"family": "A", "rank": 2}],'
                 ' "torus": {"blocks": [[["2", "-1"], ["-1", "2"]]]}}')
    res = invoke(runner, "check", str(p))
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    assert "torus block 0 entry (0, 0) must be a number, got '2'" in res.output


@pytest.mark.parametrize(
    "entry,message",
    [
        ('"x": "123"', "factor 0: x must be a list of numbers, got '123'"),
        ('"x": [true, true, 2]', "factor 0: x must be a list of numbers"),
        ('"z": true', "factor 0: z must be a number, got True"),
        ('"z": "2"', "factor 0: z must be a number, got '2'"),
        ('"z": 1%s' % ("0" * 400), "int too large to convert to float"),
    ],
    ids=["x_string", "x_bools", "z_true", "z_string", "z_huge_int"],
)
def test_check_refuses_z_and_x_that_are_not_numbers(runner, tmp_path, entry, message):
    p = tmp_path / "s.json"
    p.write_text('{"factors": [{"family": "A", "rank": 2, %s}]}' % entry)
    res = invoke(runner, "check", str(p))
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    assert message in res.output
