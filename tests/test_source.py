"""Checks on the package's source that need no linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taoi_sim"
# __init__.py imports names only to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """The names a module imports and never reads. An attribute chain
    such as ``np.loadtxt`` reads its first name; ``import a.b`` binds
    ``a``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_the_check_finds_an_unused_import():
    assert _unused_imports("import io\nimport math\nimport numpy as np\n"
                           "from os import path, sep\n"
                           "np.zeros(math.floor(1.5), sep)\n") == \
        ["line 1: io", "line 4: path"]
