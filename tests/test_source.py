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


def _definitions(tree, methods=True):
    """(line, name) of each module-level function, class and assigned
    name, and of each method unless ``methods`` is false."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef) and methods:
            yield from ((m.lineno, m.name) for m in node.body
                        if isinstance(m, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((node.lineno, n.id) for t in targets
                        for n in ast.walk(t) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Store))


def _reads(tree) -> set:
    """The names a module reads: loaded names, loaded attributes such as
    ``self._m`` and the names of a ``from ... import``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _orphaned_private_names(sources: dict) -> list:
    """The private names (one leading underscore, not a dunder) that the
    modules in ``sources`` (file name -> source) define and none of them
    reads."""
    defined, read = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        defined += [(module, line, name) for line, name in _definitions(tree)
                    if name.startswith("_") and not name.startswith("__")]
        read |= _reads(tree)
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in read]


def _orphaned_public_names(sources: dict) -> list:
    """The public module-level functions, classes and assigned names that
    the modules in ``sources`` define and none of them reads (see
    ``_reads``); ``__init__.py`` only re-exports, so its reads do not
    count."""
    defined, read = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        defined += [(module, line, name)
                    for line, name in _definitions(tree, methods=False)
                    if not name.startswith("_")]
        if module != "__init__.py":
            read |= _reads(tree)
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in read]


def test_no_private_name_goes_unread():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _orphaned_private_names(sources) == []


def test_the_check_finds_an_orphaned_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_spare: int = 4\n_x, _y = 1, 2\n\n"
                "def _helper():\n    return _LIMIT + _x\n\n\n"
                "class _Box:\n    def __init__(self):\n        self._n = 0\n\n"
                "    def _grow(self):\n        self._n += 1\n\n"
                "    def _unused(self):\n        return self._grow()\n",
        "b.py": "from .a import _helper\n\n\ndef _lonely():\n"
                "    return _helper()\n",
    }
    assert _orphaned_private_names(sources) == [
        "a.py line 2: _spare", "a.py line 3: _y", "a.py line 9: _Box",
        "a.py line 16: _unused", "b.py line 4: _lonely"]


def test_no_public_name_goes_unread():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _orphaned_public_names(sources) == []


def test_the_check_finds_an_orphaned_public_name():
    sources = {
        "__init__.py": "from .a import LIMIT, Box, spare\n",
        "a.py": "LIMIT = 3\nspare: int = 4\n\n\n"
                "def helper():\n    return LIMIT\n\n\n"
                "class Box:\n    def grow(self):\n        return 1\n",
        "b.py": "from .a import helper\n\n\ndef lonely():\n"
                "    return helper()\n",
    }
    assert _orphaned_public_names(sources) == [
        "a.py line 2: spare", "a.py line 9: Box", "b.py line 4: lonely"]
