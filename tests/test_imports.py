"""Every name a package or test module imports is used in that module, and
no package module imports a private name from another."""
import ast
from pathlib import Path

import pytest

import sccopt

PACKAGE = sorted(Path(sccopt.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = "import os\nimport scipy.sparse as sp\nfrom math import pi, tau\nprint(sp, tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_sibling_imports(source: str) -> list[str]:
    """Underscore-prefixed names, dunders aside, imported from sccopt."""
    tree = ast.parse(source)
    return sorted(f"{a.name} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").split(".")[0] == "sccopt")
                  for a in node.names
                  if a.name.startswith("_") and not a.name.endswith("__"))


def test_detects_a_private_sibling_import():
    source = ("from . import __version__, _cache\nfrom .lp import _rows, solve_lp\n"
              "from sccopt.obbt import _PAD\nfrom numpy import _private\n")
    assert private_sibling_imports(source) == ["_PAD (line 3)", "_cache (line 1)",
                                               "_rows (line 2)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_imports_no_private_sibling_name(path):
    assert private_sibling_imports(path.read_text()) == []
