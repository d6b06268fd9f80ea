"""Every vplab name the benchmark calls exists.

The benchmark under ``perfbench/`` reaches vplab through module attributes
(``closeness.wsp_pow_separable``) and through the method and counter names
of ``perfbench/spans.py``.  Renaming one of them breaks the benchmark run;
this test reads those files with ``ast`` (it imports none of them) and
fails first.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def _layer_refs(name):
    """(layer, attr) for every ``<layer>.<attr>`` of a module imported from vplab."""
    tree = _tree(name)
    layers = {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "vplab"
              for alias in node.names}
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in layers})


def _spans_constant(target):
    for node in _tree("spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == target for t in node.targets):
            return node.value
    raise LookupError(f"{target} not found in spans.py")


def _spans_paths():
    """'<layer>.<Class>.<method>' of METHODS and the '<layer>.<name>' keys of EXTRACT."""
    methods = ast.literal_eval(_spans_constant("METHODS"))
    paths = [f"{layer}.{path}" for layer, entries in methods.items() for path in entries]
    return paths + [ast.literal_eval(key) for key in _spans_constant("EXTRACT").keys]


@pytest.mark.parametrize("layer,attr", _layer_refs("workloads.py") + _layer_refs("worker.py"))
def test_layer_attribute_exists(layer, attr):
    assert hasattr(importlib.import_module("vplab." + layer), attr)


@pytest.mark.parametrize("path", _spans_paths())
def test_spans_entry_resolves(path):
    layer, *rest = path.split(".")
    obj = importlib.import_module("vplab." + layer)
    for part in rest:
        obj = getattr(obj, part)
    assert callable(obj)


def test_references_found():
    # an empty list would make the checks above vacuous
    refs = _layer_refs("workloads.py")
    assert ("closeness", "wsp_norm_coupled") in refs and ("norms", "fractional_wsp_norm") in refs
    assert "sim.SimState.moments" in _spans_paths()
