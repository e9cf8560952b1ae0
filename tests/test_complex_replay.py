"""exterior_derivative replays its plan on complex values.

Each row's product is the complex component times a real coefficient,
added with one complex np.add.at. For a finite component a + bi that gives
a c and b c, or a zero whose sign a sum from zero does not keep, so each
part sums as the scalar loop's. The forms below stress that: signed zeros
in either part, small integers that cancel to exact zeros, subnormals,
and values near the float ceiling whose products overflow.
"""

import numpy as np
import pytest

import sktflow.forms as forms_module
from sktflow import FactorSpec, GroupSpec, InvariantForm, SimpleType, exterior_derivative
from sktflow.errors import NonFiniteComponentError
from test_scan_arrays import _bits, _reference_exterior_derivative

PARTS = {
    "signed_zeros": lambda rng, n: (rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], n),
                                    rng.choice([0.0, -0.0, 2.0, -3.0], n)),
    "cancelling": lambda rng, n: (rng.integers(-2, 3, n).astype(float),
                                  rng.integers(-2, 3, n).astype(float)),
    "subnormal": lambda rng, n: (rng.normal(size=n) * 5e-320, rng.choice([0.0, -0.0], n)),
    "normal": lambda rng, n: (rng.normal(size=n), -rng.normal(size=n)),
}


def _form(basis, degree, parts, seed):
    rng = np.random.default_rng(seed)
    pool = rng.choice(basis.dim, size=degree + 3, replace=False)
    keys = sorted({tuple(sorted(rng.choice(pool, size=degree, replace=False).tolist()))
                   for _ in range(12)})
    re, im = parts(rng, len(keys))
    return InvariantForm(basis, degree, {k: complex(a, b) for k, a, b in zip(keys, re, im)})


@pytest.mark.parametrize("block_rows", [forms_module._BLOCK_ROWS, 5])
@pytest.mark.parametrize("kind", sorted(PARTS))
@pytest.mark.parametrize("token", ["A2", "G2", "B3", "A1xB2"])
def test_the_complex_replay_equals_the_reference_loop(token, kind, block_rows, monkeypatch):
    basis = GroupSpec([FactorSpec(SimpleType.parse(t)) for t in token.split("x")]).basis
    monkeypatch.setattr(forms_module, "_BLOCK_ROWS", block_rows)
    for degree in (1, 2, 3):
        for seed in range(8):
            form = _form(basis, degree, PARTS[kind], seed)
            want = _reference_exterior_derivative(form)
            assert _bits(exterior_derivative(form).components) == _bits(want)


def test_an_overflowing_row_is_refused_as_the_reference_loop_finds_it():
    basis = GroupSpec([FactorSpec(SimpleType.parse("G2"))]).basis
    seen = 0
    for seed in range(20):
        form = _form(basis, 2, lambda rng, n: (rng.uniform(-1, 1, n) * 1.7e308,
                                                rng.uniform(-1, 1, n) * 1.7e308), seed)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_exterior_derivative(form)
            bad = [k for k, v in want.items() if not np.isfinite(complex(v))]
            if not bad:
                assert _bits(exterior_derivative(form).components) == _bits(want)
                continue
            seen += 1
            with pytest.raises(NonFiniteComponentError) as exc:
                exterior_derivative(form)
        assert exc.value.key == bad[0]
    assert seen
