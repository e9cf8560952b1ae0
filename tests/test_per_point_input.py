"""Public per-point functions refuse bad input with one error and nothing else.

A complex state or simple-value vector is refused with ValueError, not
truncated to its real part, and so is one holding bools or strings, which a
float conversion would read as numbers. A NaN, infinite or overflowing
value is refused with PositivityError and no numpy RuntimeWarning first, so
the same call under `-W error` still raises PositivityError.
"""

import warnings

import numpy as np
import pytest

from conftest import parse_token, system
from sktflow import (
    FactorSpec,
    GroupSpec,
    PositivityError,
    critical_point,
    family_values,
    functional_F,
    grad_F,
    gradient_flow_check,
    hessian_F,
    integrate,
    per_root_rhs,
    pluriclosed_family,
    rhs,
)

ENTRY_POINTS = {
    "integrate": integrate,
    "rhs": rhs,
    "per_root_rhs": lambda rs, x: per_root_rhs(rs, x, 0, rs.positives[-1]),
    "gradient_flow_check": gradient_flow_check,
    "functional_F": functional_F,
    "grad_F": grad_F,
    "hessian_F": hessian_F,
    "critical_point": critical_point,
    "pluriclosed_family": lambda rs, x: pluriclosed_family(
        GroupSpec([FactorSpec(parse_token(str(rs.stype)))]), [x]
    ),
}
ALL = {**ENTRY_POINTS, "family_values": family_values}


@pytest.fixture
def strict():
    """Every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize(
    "x",
    [np.array([1.5 + 1j, 1.2]), np.array([1.5 + 0j, 1.2]), [1.5 + 1j, 1.2]],
    ids=["array", "zero-imaginary", "list"],
)
def test_complex_input_is_refused(name, x, strict):
    with pytest.raises(ValueError, match="must be real, got complex"):
        ALL[name](system("A2"), x)


NOT_NUMBERS = {
    "strings": ["1.5", "1.2"],
    "string-array": np.array(["1.5", "1.2"]),
    "string-among-numbers": [1.5, "1.2"],
    "bools": [True, True],
    "bool-array": np.array([True, True]),
    "bool-among-numbers": [True, 1.2],
    "numpy-bool-among-numbers": [np.True_, 1.2],
}


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("x", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_bool_and_string_input_is_refused(name, x, strict):
    with pytest.raises(ValueError, match="must be numbers, not bools or strings"):
        ALL[name](system("A2"), x)


@pytest.mark.parametrize(
    "row", [["1.5", "1.2", "1.3"], [True, 1.2, 1.3], np.array([1, 0, 1], dtype=bool)]
)
def test_fiber_rows_of_bools_or_strings_are_refused(row, strict):
    group = GroupSpec([FactorSpec(parse_token("A2"))])
    with pytest.raises(ValueError, match="must be numbers, not bools or strings"):
        group.build([row])
    with pytest.raises(ValueError, match="must be numbers, not bools or strings"):
        group.build(row)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize(
    "token,x",
    [
        ("A2", [np.inf, 1.5]),  # inf meets a zero coefficient: invalid in the matmul
        ("A2", [1e308, 1e308]),  # a1 + a2 overflows to +inf
        ("A2", [np.nan, 1.5]),
        ("A2", [-np.inf, 1.5]),
        ("A1", [np.inf]),  # no zero coefficient: only the guard sees the inf
        ("G2", [1.5, 1e308]),
    ],
)
def test_non_finite_input_raises_only_positivity_error(name, token, x, strict):
    with pytest.raises(PositivityError):
        ENTRY_POINTS[name](system(token), np.array(x))


@pytest.mark.parametrize("x", [[np.inf, 1.5], [1e308, 1e308], [np.nan, 1.5]])
def test_family_values_returns_non_finite_values_without_warning(x, strict):
    values = family_values(system("A2"), x)
    assert not np.isfinite(values).all()
