"""Pluriclosed verdicts do not depend on the overall scale z, and both scan
modes follow one finiteness rule.

Every dd^c residual is linear in u = (fiber values, torus metric), so
scaling the structure by z scales every residual by z. A verdict compares
the worst residual over the structure's scale with tol; the scale is a norm
of u that is 1 for the bi-invariant metric at z = 1. Scaling by a power of two is exact
in floating point, so there the whole report scales bit for bit and the
witness stays. At other z each row is rounded differently, and rows that tie
in exact arithmetic (a closed-form quad row and its conjugate's, for one)
may trade the witness, so there the checks are the verdicts and the
residual over the scale. A structure whose scale exceeds SCAN_RANGE is out
of the scans' range: both modes report inf. Below the smallest normal float
values round to a fixed step, so there a family point's residual is a few
such steps, and one that is exactly 0 stays accepted.
"""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from click.testing import CliRunner

from sktflow import (
    FactorSpec,
    GroupSpec,
    Normalization,
    SimpleType,
    family_bound,
    is_pluriclosed,
    kahler_flag_residual,
    pluriclosed_family,
    save_structure,
)
from sktflow.cli import main
from sktflow.hermitian import SCAN_RANGE

MODES = ("closed_form", "brute_force")
METAMORPHIC = ("A2", "G2", "F4", "E8", "A2xG2")
DECIMAL_Z = [10.0**k for k in range(-12, 13, 3)]
BINARY_Z = [2.0**k for k in range(-40, 41, 10)]


def _types(token):
    return [SimpleType(t[0], int(t[1:])) for t in token.split("x")]


@lru_cache(maxsize=None)
def _group(token, z=1.0, norm="long2"):
    return GroupSpec([FactorSpec(t, norm, z) for t in _types(token)])


@lru_cache(maxsize=None)
def _points(token, z):
    """A family point, it with the last fiber value of the last factor raised
    1%, and it with every fiber value moved by up to 1% at random, on the
    group scaled by z; the simple values and the moves do not depend on z."""
    g = _group(token, z)
    rng = np.random.default_rng(len(token))
    simple = [rng.uniform(family_bound(rs) + 0.05, 2.0, rs.rank).tolist() for rs in g.systems]
    on = pluriclosed_family(g, simple)
    rows = [list(row) for row in on.fiber.values]
    rows[-1][-1] *= 1.01
    moves = [rng.uniform(0.99, 1.01, rs.npositive) for rs in g.systems]
    moved = [(np.array(row) * m).tolist() for row, m in zip(on.fiber.values, moves)]
    return on, g.build(rows), g.build(moved)


@pytest.mark.parametrize("norm", list(Normalization))
@pytest.mark.parametrize("token", ["A1", "A4", "B3", "C4", "D5", "G2", "F4", "E6", "E8", "A2xG2"])
def test_the_bi_invariant_metric_at_z_has_scale_z(token, norm):
    assert _group(token, 1.0, norm.value).build().scale == 1.0
    for z in BINARY_Z:
        assert _group(token, z, norm.value).build().scale == z
    for z in DECIMAL_Z:
        assert _group(token, z, norm.value).build().scale == pytest.approx(z, rel=1e-15)


def test_the_scale_reads_the_larger_of_the_fiber_and_the_torus_parts():
    g = _group("A2")
    assert g.build([1.0, 3.0, 2.0]).scale == 3.0
    assert g.build([1.0, 1.0, 1.0], torus=5.0 * g.layout.gram_float).scale == 5.0
    coupled = np.array([[2.0, -7.0], [-7.0, 30.0]])
    assert g.build([1.0, 1.0, 1.0], torus=coupled).scale == 30.0 / 2.0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("token", METAMORPHIC)
def test_verdicts_do_not_depend_on_z(token, mode):
    base = [is_pluriclosed(h, mode) for h in _points(token, 1.0)]
    assert [rep.verdict for rep in base] == [True, False, False]
    for z in DECIMAL_Z:
        reps = [is_pluriclosed(h, mode) for h in _points(token, z)]
        assert [rep.verdict for rep in reps] == [True, False, False], z
        for rep, ref in zip(reps[1:], base[1:]):
            relative = rep.max_residual / rep.scale
            assert relative == pytest.approx(ref.max_residual / ref.scale, rel=1e-9), z
    for z in BINARY_Z:
        reps = [is_pluriclosed(h, mode) for h in _points(token, z)]
        for rep, ref in zip(reps, base):
            assert rep.verdict == ref.verdict
            assert rep.witness == ref.witness
            assert (rep.max_residual, rep.skt1_max, rep.skt2_max, rep.scale) == (
                ref.max_residual * z, ref.skt1_max * z, ref.skt2_max * z, ref.scale * z
            )


def test_the_brute_force_count_does_not_depend_on_z():
    # checked counts every dd^c component the differential sums, zero or not,
    # so rounding at another z cannot move it
    s = np.random.default_rng(0).uniform(0.9, 1.6, 4)
    on = [pluriclosed_family(_group("F4", z), [s]) for z in (1.0, 3.0, 0.1)]
    x = np.random.default_rng(1).uniform(1.0, 2.0, 6)
    off = [_group("G2", z).build(x=[x]) for z in (1.0, 7.0)]
    for points in (on, off):
        counts = [is_pluriclosed(h, "brute_force").checked for h in points]
        assert len(set(counts)) == 1 and counts[0] > 0, counts


@pytest.mark.parametrize("token", METAMORPHIC)
def test_the_kahler_flag_residual_scales_with_z(token):
    ref = [kahler_flag_residual(h) for h in _points(token, 1.0)]
    for z in BINARY_Z:
        assert [kahler_flag_residual(h) for h in _points(token, z)] == [r * z for r in ref]


@pytest.mark.parametrize("mode", MODES)
def test_a_small_bump_is_refused_at_a_tiny_z_and_a_family_point_accepted_at_a_large_z(mode):
    g = _group("A2", 1e-9)
    rows = [list(pluriclosed_family(g, [1.5, 1.2]).fiber.values[0])]
    rows[0][-1] *= 1.01
    bumped = is_pluriclosed(g.build(rows), mode)
    assert not bumped.verdict and bumped.max_residual > 1e-11
    on = is_pluriclosed(pluriclosed_family(_group("E8", 1e7), np.linspace(0.95, 1.6, 8)), mode)
    assert on.verdict and on.max_residual > on.tol


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("token", METAMORPHIC)
def test_verdicts_hold_down_to_the_smallest_normal_scale(token, mode):
    for z in (1e-300, 2.0**-1020):
        points = _points(token, z)
        assert min(h.scale for h in points) >= 2.0**-1022
        assert [is_pluriclosed(h, mode).verdict for h in points] == [True, False, False], z


@pytest.mark.parametrize("mode", MODES)
def test_a_subnormal_scale_keeps_a_zero_residual_accepted(mode):
    # at z = 1e-316 tol * scale rounds to 0, so the verdict reads the ratio
    for token in METAMORPHIC:
        on, bumped, moved = (is_pluriclosed(h, mode) for h in _points(token, 1e-316))
        assert on.scale < 2.0**-1022
        # the effective fiber values and every sum round to steps of 2^-1074
        assert on.max_residual <= 16 * 2.0**-1074
        assert not bumped.verdict and not moved.verdict
    on = is_pluriclosed(_points("A2", 1e-316)[0], mode)
    assert on.max_residual == 0.0 and on.verdict


# ---------------------------------------------------------------- finiteness

def _scan_all(h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [is_pluriclosed(h, mode) for mode in MODES]


@pytest.mark.parametrize("token", ["G2", "A2", "B3", "A2xG2"])
def test_both_modes_agree_on_finiteness_near_the_float_ceiling(token):
    g = _group(token)
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = g.build([rng.uniform(1e307, 7e307, rs.npositive) for rs in g.systems])
        reps = _scan_all(h)
        assert len({np.isfinite(rep.max_residual) for rep in reps}) == 1
        assert all(rep.max_residual == np.inf and not rep.verdict for rep in reps)


def test_the_g2_structure_the_modes_disagreed_on_is_inf_in_both():
    h = _group("G2").build([
        4.924839081328052e307, 3.0674299207850545e307, 5.549706221436033e307,
        5.440073349070172e307, 2.6228539319046314e307, 6.042868200482711e307,
    ])
    for rep in _scan_all(h):
        assert rep.max_residual == rep.skt1_max == rep.skt2_max == np.inf


@pytest.mark.parametrize("token", ["G2", "A2", "B3", "A2xG2", "E8"])
def test_finiteness_follows_the_scale_across_the_range_bound(token):
    g = _group(token)
    rng = np.random.default_rng(6)
    for _ in range(12):
        h = g.build([10 ** rng.uniform(290, 300, rs.npositive) for rs in g.systems])
        reps = _scan_all(h)
        inside = h.scale <= SCAN_RANGE
        assert all(bool(np.isfinite(rep.max_residual)) == inside for rep in reps)
        if inside:
            closed, brute = reps
            assert closed.max_residual == pytest.approx(brute.max_residual, rel=1e-9)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("token", ["G2", "F4", "E8", "A3xC3"])
def test_a_structure_at_the_range_bound_scans_without_overflow(token, mode):
    g = _group(token)
    rng = np.random.default_rng(7)
    r = g.layout.size
    a = rng.normal(size=(r, r))
    spd = a @ a.T + r * np.eye(r)
    torus = spd * (SCAN_RANGE / np.abs(spd).max()) * np.abs(g.layout.gram_float).max()
    x = [SCAN_RANGE * rng.uniform(0.5, 1.0, rs.npositive) for rs in g.systems]
    for h in (g.build(x), g.build(x, torus=torus)):
        assert h.scale <= SCAN_RANGE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = is_pluriclosed(h, mode)
        assert np.isfinite([rep.max_residual, rep.skt1_max, rep.skt2_max]).all()
        assert rep.witness is not None and not rep.witness.startswith("non-finite")


# ---------------------------------------------------------------- CLI

def test_check_prints_the_scale_and_reads_the_verdict_against_it(tmp_path):
    g = _group("A2", 1e-9)
    on = pluriclosed_family(g, [1.5, 1.2])
    rows = [list(on.fiber.values[0])]
    rows[0][-1] *= 1.01
    runner = CliRunner()
    for h, code, verdict in ((on, 0, "true"), (g.build(rows), 1, "false")):
        path = tmp_path / f"a2_{verdict}.json"
        save_structure(h, path)
        res = runner.invoke(main, ["check", str(path)])
        assert res.exit_code == code, res.output
        lines = res.output.splitlines()
        assert lines[0].startswith(f"pluriclosed: {verdict}   (mode closed_form, tol 1e-08")
        assert lines[0].endswith(f", scale {format(h.scale, '.17g')})")
        assert lines[1] == f"max residual: {format(is_pluriclosed(h).max_residual, '.17g')}"
