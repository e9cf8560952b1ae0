"""Smoke runs of the batch scripts under scripts/, which no other test imports."""

import importlib.util
from pathlib import Path

import pytest

from sktflow import Trajectory

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv",
    [
        ("flow_battery", ["--types", "A2,A2xG2", "--starts", "1", "--t-end", "50"]),
        ("oracle_crosscheck", ["--types", "A2,B2,A2xG2,A1xA2xG2", "--samples", "2"]),
        ("catalog_tables", ["--types", "A1,G2,D4", "--cocycle-limit", "5", "--seed", "1"]),
    ],
)
def test_script_runs(name, argv, capsys):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", ["flow_battery", "oracle_crosscheck", "catalog_tables"])
@pytest.mark.parametrize("token", ["A2x", "Q2", "A", "A2,,B2"])
def test_script_refuses_a_bad_type_token(name, token, capsys):
    assert _load(name).main(["--types", token]) == 2
    assert capsys.readouterr().out.startswith("error: ")


def test_flow_battery_names_product_runs_by_their_token(tmp_path, capsys):
    argv = ["--types", "a2xG2", "--starts", "1", "--integrators", "rk4_fixed",
            "--outdir", str(tmp_path)]
    assert _load("flow_battery").main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("A2xG2 ")
    assert [p.name for p in tmp_path.iterdir()] == ["A2xG2_rk4_fixed_0.csv"]
    traj = Trajectory.from_csv(tmp_path / "A2xG2_rk4_fixed_0.csv")
    assert traj.converged and traj.states.shape[1] == 4


def _digest(capsys, seed):
    argv = ["--types", "A2,A2xG2", "--starts", "1", "--t-end", "5", "--seed", str(seed)]
    _load("flow_battery").main(argv)
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("digest ") and len(last.split()[1]) == 64
    return last


def test_flow_battery_digest_follows_the_seed(capsys):
    assert _digest(capsys, 3) == _digest(capsys, 3)
    assert _digest(capsys, 3) != _digest(capsys, 4)


def _crosscheck_digest(capsys, seed):
    argv = ["--types", "A2,G2,A1xB2", "--samples", "2", "--seed", str(seed)]
    assert _load("oracle_crosscheck").main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("digest ") and len(last.split()[1]) == 64
    return last


def test_oracle_crosscheck_digest_follows_the_seed(capsys):
    assert _crosscheck_digest(capsys, 3) == _crosscheck_digest(capsys, 3)
    assert _crosscheck_digest(capsys, 3) != _crosscheck_digest(capsys, 4)


def test_oracle_crosscheck_round_trips_every_serializable_structure(capsys):
    assert _load("oracle_crosscheck").main(["--types", "A2,A1xB2", "--samples", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the product's off-family torus metrics couple the factors and do not serialize
    assert "round trips 4/4 ok" in lines[0] and "round trips 2/2 ok" in lines[1]


def test_oracle_crosscheck_fails_on_a_changed_round_trip(monkeypatch, capsys):
    module = _load("oracle_crosscheck")
    load = module.load_structure

    def shifted(path):
        h = load(path)
        return h.group.build([tuple(v * 1.5 for v in x) for x in h.fiber.values], torus=h.gt)

    monkeypatch.setattr(module, "load_structure", shifted)
    assert module.main(["--types", "A2", "--samples", "2"]) == 1
    out = capsys.readouterr().out
    assert "round trips 0/2 CHANGED" in out and "1 type(s) failed" in out


def test_flow_battery_totals_each_integrator_before_the_digest(capsys):
    argv = ["--types", "A2,B2", "--starts", "2", "--t-end", "5", "--seed", "3"]
    _load("flow_battery").main(argv)
    lines = capsys.readouterr().out.splitlines()
    runs = [line.split() for line in lines[1:-4]]
    assert lines[-1].startswith("digest ")
    for line, integrator in zip(lines[-3:-1], ["rk4_fixed", "rkf45"]):
        name, integ, _, evaluations, _, wall_s, _, per_evaluation = line.split()
        assert (name, integ) == ("total", integrator)
        assert int(evaluations) == sum(int(run[5]) for run in runs if run[1] == integrator) > 0
        # wall_s is printed to 0.5 ms and us_per_evaluation to 0.005 us
        wall_from_rate = float(per_evaluation) * int(evaluations) / 1e6
        assert abs(wall_from_rate - float(wall_s)) <= 5e-4 + 5e-3 * int(evaluations) / 1e6


def test_oracle_crosscheck_rebuilds_each_dc_form_outside_the_digest(monkeypatch, capsys):
    argv = ["--types", "A2,A1xB2", "--samples", "3"]
    module = _load("oracle_crosscheck")
    assert module.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all("rebuilt forms 3/3 ok" in line for line in lines[:2])

    form_class = module.InvariantForm

    class Reversed(form_class):
        """from_arrays that loses the insertion order of the components."""

        @classmethod
        def from_arrays(cls, basis, degree, keys, values):
            return form_class.from_arrays(basis, degree, keys[::-1], values[::-1])

    monkeypatch.setattr(module, "InvariantForm", Reversed)
    assert module.main(argv) == 1
    broken = capsys.readouterr().out.splitlines()
    # dd^c omega is empty at the two family points, so only the off-family sample differs
    assert all("rebuilt forms 2/3 CHANGED" in line for line in broken[:2])
    assert broken[-2] == "2 type(s) failed"
    assert broken[-1] == lines[-1]  # the digest reads the scan reports only


def _catalog_digest(capsys, *argv):
    code = _load("catalog_tables").main(["--types", "A2,G2,B3,F4", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("digest ") and len(lines[-1].split()[1]) == 64
    return code, lines


def test_catalog_tables_digest_is_stable_across_runs_and_seeds(capsys):
    code, lines = _catalog_digest(capsys, "--cocycle-limit", "100", "--seed", "3")
    assert code == 0 and lines[-2] == "all identities pass"
    assert [line.split()[0] for line in lines[1:-2]] == ["A2", "G2", "B3", "F4"]
    again = [_catalog_digest(capsys, "--cocycle-limit", "100", "--seed", seed)[1][-1]
             for seed in ("3", "4")]
    # a passing sampled check reports the same counts at every seed
    assert again == [lines[-1]] * 2
    assert _catalog_digest(capsys)[1][-1] != lines[-1]  # the full check counts every quad


def test_catalog_tables_digest_at_default_arguments_is_pinned(capsys):
    # the digest hashes integer tables and check counts only, so no BLAS or
    # float rounding can move it
    assert _load("catalog_tables").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "all identities pass"
    assert lines[-1] == "digest 4647de835d4dbf9fc811505e510efc57ca88c61ef5fffa0c5210f4febdacc686"


def test_catalog_tables_digest_reads_the_tables(monkeypatch, capsys):
    module = _load("catalog_tables")
    code, lines = _catalog_digest(capsys)
    build = module.structure_constants

    def flipped(rs):
        sc = build(rs)
        sign = sc.sign.copy()
        sign[sc.sign != 0] *= -1  # -N is an equally valid table: the identities still hold
        return type(sc)._of(rs, sign, sc.sq)

    monkeypatch.setattr(module, "structure_constants", flipped)
    assert module.main(["--types", "A2,G2,B3,F4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] != lines[-1]
