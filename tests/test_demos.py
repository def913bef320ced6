"""The demos use only what the package has: every name a demo imports from
`boltznet`, and every attribute it reads off an imported `boltznet` module,
exists. The demos are parsed, not run, so the check is fast."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def missing_names(source: str) -> list:
    """Each `module.name` the demo's source needs from `boltznet` that does
    not exist."""
    tree = ast.parse(source)
    bound, missing = {}, []  # local name -> the boltznet module it holds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "boltznet":
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = importlib.import_module(
                        alias.name if alias.asname else "boltznet")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "boltznet"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(getattr(module, alias.name), ModuleType):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and not hasattr(bound[node.value.id], node.attr)):
            missing.append(f"{bound[node.value.id].__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_exist(demo):
    assert missing_names(demo.read_text()) == []


def test_missing_names_sees_imports_and_attributes():
    source = ("import boltznet as bn\nfrom boltznet import dnn, nothing\n"
              "from boltznet.core import classify\n"
              "bn.classify(dnn.predict(x), y)\ndnn.gone(bn.absent)\n")
    assert sorted(missing_names(source)) == ["boltznet.absent", "boltznet.dnn.gone",
                                             "boltznet.nothing"]
    assert len(DEMOS) == 6  # the glob finds every demo, so none goes unchecked
