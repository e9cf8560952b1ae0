"""Exact coefficient-times-square-root arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sktflow import ConsistencyError, Surd, squarefree_split


def test_squarefree_split_small():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(4) == (1, 2)
    assert squarefree_split(12) == (3, 2)
    assert squarefree_split(18) == (2, 3)
    assert squarefree_split(7) == (7, 1)


@given(st.integers(min_value=1, max_value=10**6))
def test_squarefree_split_reconstructs(n):
    s, k = squarefree_split(n)
    assert s * k * k == n
    # s has no square divisor
    d = 2
    while d * d <= s:
        assert s % (d * d) != 0
        d += 1


def test_normalization():
    assert Surd(Fraction(1), 4) == Surd(Fraction(2), 1)
    assert Surd(Fraction(2), 12) == Surd(Fraction(4), 3)
    assert Surd(Fraction(0), 7) == Surd(Fraction(0), 1)


def test_sqrt_exact():
    assert Surd.sqrt(Fraction(9, 4)) == Surd.of(Fraction(3, 2))
    s = Surd.sqrt(Fraction(3))
    assert s.core == 3 and s.coeff == 1
    assert Surd.sqrt(Fraction(1, 2)) == Surd(Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        Surd.sqrt(Fraction(-1))


def test_squared_and_float():
    s = Surd(Fraction(-3, 2), 3)
    assert s.squared() == Fraction(27, 4)
    assert abs(float(s) + 1.5 * 3**0.5) < 1e-15


def test_add_same_core():
    a = Surd(Fraction(1, 2), 3)
    b = Surd(Fraction(1, 3), 3)
    assert a + b == Surd(Fraction(5, 6), 3)
    assert a + Surd.of(0) == a
    with pytest.raises(ConsistencyError):
        a + Surd(Fraction(1), 2)


@pytest.mark.parametrize(
    "got,want",
    [
        (abs(Surd(Fraction(-3, 2), 3)), Surd(Fraction(3, 2), 3)),
        (Surd(Fraction(3), 2) / 2, Surd(Fraction(3, 2), 2)),
        (Surd(Fraction(3), 2) / Fraction(3, 4), Surd(Fraction(4), 2)),
        (Surd(Fraction(1, 2)) + 1, Surd.of(Fraction(3, 2))),
        (Surd(Fraction(1, 2)) - 1, Surd.of(Fraction(-1, 2))),
        (str(Surd.of(Fraction(-3, 4))), "-3/4"),
        (str(Surd(Fraction(2, 3), 5)), "2/3*sqrt(5)"),
    ],
    ids=["abs", "by_int", "by_fraction", "plus_int", "minus_int", "str_rational", "str_surd"],
)
def test_surd_operations_with_plain_numbers_and_printing(got, want):
    assert got == want


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
cores = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15])


@given(rationals, cores, rationals, cores)
def test_mul_matches_float(c1, k1, c2, k2):
    a, b = Surd(c1, k1), Surd(c2, k2)
    assert abs(float(a * b) - float(a) * float(b)) < 1e-9


@given(rationals, cores, rationals, cores)
def test_div_inverts_mul(c1, k1, c2, k2):
    a, b = Surd(c1, k1), Surd(c2, k2)
    if b.is_zero:
        return
    assert (a / b) * b == a
