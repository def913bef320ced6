"""The demos use only what the package has: every name a demo imports from
`boltznet`, and every attribute it reads off an imported `boltznet` module,
exists, and every other attribute it reads is one that something it can
hold defines. The demos are parsed, not run, so the check is fast."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import boltznet

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def known_attributes() -> set:
    """Every attribute name that a `boltznet` class (its `dir` and its
    dataclass fields), numpy, `np.ndarray`, `np.random.Generator` or a
    builtin container defines."""
    owners = [np, np.ndarray, np.random.Generator, list, tuple, dict, set, str]
    for info in pkgutil.iter_modules(boltznet.__path__):
        module = importlib.import_module(f"boltznet.{info.name}")
        owners += [c for c in vars(module).values()
                   if isinstance(c, type) and c.__module__ == module.__name__]
    return {name for owner in owners for name in dir(owner)} | {
        f.name for c in owners if dataclasses.is_dataclass(c) for f in dataclasses.fields(c)}


KNOWN = known_attributes()


def missing_names(source: str) -> list:
    """Each `module.name` the demo's source needs from `boltznet` that does
    not exist, and each `value.attr` it reads off anything else whose
    attribute name `KNOWN` lacks."""
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
        if not isinstance(node, ast.Attribute):
            continue
        module = bound.get(node.value.id) if isinstance(node.value, ast.Name) else None
        if module is not None and not hasattr(module, node.attr):
            missing.append(f"{module.__name__}.{node.attr}")
        elif module is None and node.attr not in KNOWN:
            missing.append(f"{ast.unparse(node.value)}.{node.attr}")
    return missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_exist(demo):
    assert missing_names(demo.read_text()) == []


def test_missing_names_sees_imports_and_attributes():
    source = ("import boltznet as bn\nfrom boltznet import dbm, dnn, nothing\n"
              "from boltznet.core import classify\n"
              "bn.classify(dnn.predict(x), y)\ndnn.gone(bn.absent)\n"
              "model = dbm.pretrain_dbm(sizes, batches, cfg)\n"
              "print(model.chains[0].shape, model.chain_v.sum(), x.T, cfg.lr, y.items())\n")
    assert sorted(missing_names(source)) == ["boltznet.absent", "boltznet.dnn.gone",
                                             "boltznet.nothing", "model.chain_v"]
    assert len(DEMOS) == 6  # the glob finds every demo, so none goes unchecked
