"""Module boundaries of the package, checked on its source.

No module of `sktflow` imports another module's underscore name: a name a
module keeps private can change without its importers noticing. The flow
sits on the family layer alone: `flow.py` imports nothing from the form,
residual, structure-constant or Hermitian layers. And every
module attribute `perfbench/tracing.py` wraps for a traced benchmark run
exists, or every traced run stops with AttributeError. The package exports
every public name its `__init__.py` imports, and each exported name resolves,
so that `from sktflow import *` runs.
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


def _package_modules(source: str) -> set[str]:
    """The modules of the package that source imports from, by name;
    "sktflow" for the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif not isinstance(node, ast.ImportFrom):
            continue
        elif node.level:
            modules = ([f"sktflow.{node.module}"] if node.module
                       else [f"sktflow.{alias.name}" for alias in node.names])
        else:
            modules = [node.module or ""]
        names.update(m.split(".")[1] if "." in m else m
                     for m in modules if m.split(".")[0] == "sktflow")
    return names


def test_flow_imports_nothing_above_the_family_layer():
    imported = _package_modules((PACKAGE / "flow.py").read_text(encoding="utf-8"))
    assert "family" in imported
    assert imported.isdisjoint({"sktflow", "hermitian", "forms", "residuals", "structure"})


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


def test_the_export_list_is_what_the_package_imports():
    exported = sktflow.__all__
    assert len(set(exported)) == len(exported)
    assert all(hasattr(sktflow, name) for name in exported)
    namespace: dict = {}
    exec("from sktflow import *", namespace)
    assert set(exported) <= set(namespace)
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} <= set(exported)
