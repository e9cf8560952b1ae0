"""exterior_derivative on forms whose merged keys need Python-int codes.

_build_plan codes a merged key in base dim; when dim ** (degree + 1) is at
least 2**62 the codes are Python ints in an object array. The d^c forms the
package builds never get there, so random high-degree forms do: the result
must be the reference loop's, keys, key order and value bits.
"""

import numpy as np
import pytest

import sktflow.forms as forms_module
from sktflow import FactorSpec, GroupSpec, InvariantForm, SimpleType, exterior_derivative
from test_scan_arrays import _bits, _reference_exterior_derivative


def _random_form(basis, degree, n, seed):
    """n components with keys drawn from a pool of 2 * degree elements, so
    that rows often merge into one key; a few values are zero."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(basis.dim, size=2 * degree, replace=False)
    keys = {tuple(sorted(rng.choice(pool, size=degree, replace=False).tolist())) for _ in range(n)}
    values = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    values[::7] = 0
    return InvariantForm(basis, degree, dict(zip(sorted(keys), values.tolist())))


@pytest.mark.parametrize("block_rows", [forms_module._BLOCK_ROWS, 7])
@pytest.mark.parametrize("token, degree", [("A3xC3", 11), ("E8", 7)])
def test_object_coded_keys_match_the_reference_loop(monkeypatch, token, degree, block_rows):
    basis = GroupSpec([FactorSpec(SimpleType.parse(t)) for t in token.split("x")]).basis
    assert basis.dim ** (degree + 1) >= 2**62  # the object-code branch
    monkeypatch.setattr(forms_module, "_BLOCK_ROWS", block_rows)
    for seed in range(3):
        form = _random_form(basis, degree, 30, seed)
        keys, values = form.arrays()
        plan = basis.derivative_plan(keys[values != 0])
        assert len(plan.keys) < len(plan.src)  # some slot sums more than one row
        got = exterior_derivative(form)
        assert got.degree == degree + 1 and len(got.components)
        assert _bits(got.components) == _bits(_reference_exterior_derivative(form))
