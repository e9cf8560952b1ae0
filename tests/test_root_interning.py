"""build_root_system hands out one shared, read-only RootSystem per (type,
normalization) while something holds it, and frees it once nothing does."""

import gc
import weakref
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from sktflow import (
    FactorSpec,
    GroupSpec,
    Normalization,
    SimpleType,
    build_root_system,
    is_pluriclosed,
    load_structure,
    pluriclosed_family,
    save_structure,
    structure_to_dict,
)

ARRAYS = ("coefficient_matrix", "gram_float", "gram_int", "inner_int", "sum_index",
          "diff_index", "neg_index", "_keys")


def test_builds_of_one_type_and_normalization_are_one_object():
    rs = build_root_system(SimpleType("F", 4))
    assert build_root_system(SimpleType("F", 4)) is rs
    assert build_root_system(SimpleType("F", 4), Normalization.LONG2) is rs


def test_types_share_by_value_and_normalizations_do_not():
    e7 = build_root_system(SimpleType.parse("e7"))
    assert build_root_system(SimpleType("E", 7)) is e7
    held = [build_root_system(SimpleType("E", 7), norm) for norm in Normalization]
    assert held[0] is e7
    assert len({id(rs) for rs in held}) == 3
    assert [rs.normalization for rs in held] == list(Normalization)


def test_a_dropped_system_is_freed_at_once():
    # a type and normalization no other test holds
    stype, norm = SimpleType("D", 9), Normalization.KILLING
    rs = build_root_system(stype, norm)
    arrays = {name: getattr(rs, name).copy() for name in ARRAYS}
    gc.disable()
    try:
        ref = weakref.ref(rs)
        del rs
        assert ref() is None
        again = build_root_system(stype, norm)
        assert ref() is None
    finally:
        gc.enable()
    for name, value in arrays.items():
        assert np.array_equal(getattr(again, name), value), name


def test_a_dropped_group_frees_its_systems_at_once():
    gc.disable()
    try:
        group = GroupSpec([FactorSpec(SimpleType("B", 7)), FactorSpec(SimpleType("C", 7))])
        h = pluriclosed_family(group, [(1.5,) * 7, (1.2,) * 7])
        is_pluriclosed(h)
        is_pluriclosed(h, mode="brute_force")
        refs = [weakref.ref(rs) for rs in group.systems]
        del group, h
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ARRAYS)
def test_every_array_is_read_only(name):
    value = getattr(build_root_system(SimpleType("G", 2)), name)
    assert isinstance(value, np.ndarray)
    with pytest.raises(ValueError, match="read-only"):
        value[(0,) * value.ndim] = 0


def test_the_array_list_is_complete():
    rs = build_root_system(SimpleType("A", 3))
    assert {k for k, v in vars(rs).items() if isinstance(v, np.ndarray)} == set(ARRAYS)


def test_a_normalization_name_builds_that_normalization():
    a2 = SimpleType("A", 2)
    rs = build_root_system(a2, "killing")
    assert rs is build_root_system(a2, Normalization.KILLING)
    assert rs.normalization is Normalization.KILLING
    assert rs.gram_scale == Fraction(1, 6)
    group = GroupSpec([FactorSpec(a2, "killing")])
    assert group.factors[0].normalization is Normalization.KILLING
    assert group.layout.gram_float[0, 0] == 1 / 3
    assert structure_to_dict(group.build())["factors"][0]["normalization"] == "killing"


def test_an_unknown_normalization_is_refused():
    with pytest.raises(ValueError, match="unknown normalization"):
        build_root_system(SimpleType("A", 2), "bogus")
    with pytest.raises(ValueError, match="unknown normalization"):
        FactorSpec(SimpleType("A", 2), "bogus")


def _fields(report):
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name != "elapsed_s"}


@pytest.mark.parametrize("on_family", [True, False])
def test_a_loaded_structure_shares_the_live_group_and_scans_alike(tmp_path, on_family):
    group = GroupSpec([FactorSpec(SimpleType("B", 3), Normalization.KILLING, z=1.5),
                       FactorSpec(SimpleType("G", 2))])
    if on_family:
        h = pluriclosed_family(group, [(1.4, 1.1, 1.7), (1.3, 1.9)])
    else:
        rng = np.random.default_rng(5)
        fiber = [rng.uniform(0.5, 2.5, rs.npositive) for rs in group.systems]
        torus = group.layout.blockdiag([np.diag(rng.uniform(0.5, 2.0, rs.rank))
                                        for rs in group.systems])
        h = group.build(fiber, torus=torus)
    path = tmp_path / "structure.json"
    save_structure(h, path)
    back = load_structure(path)
    assert all(a is b for a, b in zip(back.group.systems, group.systems, strict=True))
    for mode in ("closed_form", "brute_force"):
        assert _fields(is_pluriclosed(back, mode=mode)) == _fields(is_pluriclosed(h, mode=mode))
