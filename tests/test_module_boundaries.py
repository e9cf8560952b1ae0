"""Module boundaries of the package, checked on its source.

No module of `sktflow` imports another module's underscore name: a name a
module keeps private can change without its importers noticing. And every
module attribute `perfbench/tracing.py` wraps for a traced benchmark run
exists, or every traced run stops with AttributeError.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import sktflow
import sktflow.curvature
import sktflow.flow
import sktflow.hermitian

PACKAGE = Path(sktflow.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _private_imports(source: str) -> list[str]:
    """The underscore names source imports from the package."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "sktflow")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


def _attributes(modules):
    return {(m.__name__, name): value for m in modules for name, value in vars(m).items()}


def test_every_attribute_the_benchmark_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = (sktflow.curvature, sktflow.flow, sktflow.hermitian)
    before = _attributes(modules)
    with tracing.Tracer().wrapped():
        during = _attributes(modules)
    assert {key for key, value in during.items() if before[key] is not value} == {
        ("sktflow.flow", "rhs"),
        ("sktflow.flow", "grad_F"),
        ("sktflow.flow", "family_values"),
        ("sktflow.curvature", "grad_F"),
        ("sktflow.hermitian", "exterior_derivative"),
        ("sktflow.hermitian", "dc_form"),
    }
    assert _attributes(modules) == before
