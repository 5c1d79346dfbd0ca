"""Source hygiene: every module of the package uses what it imports, and
every private module-level name is read somewhere in the package.

No linter ships with the package's toolchain, so these are the checks. The
package's __init__ is exempt from the first: its imports are the public
surface.
"""
import ast
from pathlib import Path

import pytest

import spinpointer

_SOURCES = sorted(Path(spinpointer.__file__).parent.glob("*.py"))
_MODULES = [p for p in _SOURCES if p.name != "__init__.py"]

# cli's _HANDLERS looks its _cmd_<command> functions up through globals().
_READ_BY_NAME = "_cmd_"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "import json\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_imports(source) == ["field (line 2)", "json (line 1)"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions, classes and constants (single leading
    underscore), with the line of their first definition."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of the modules in sources (name -> text)
    that no module reads, as a plain name or as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}:{name} (line {line})"
        for module, tree in sorted(trees.items())
        for name, line in sorted(_private_definitions(tree).items())
        if name not in read and not name.startswith(_READ_BY_NAME)
    ]


def test_package_reads_every_private_name_it_defines():
    assert _unread_private_names({p.name: p.read_text(encoding="utf-8") for p in _SOURCES}) == []


def test_an_unread_private_name_is_reported():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_UNUSED, PUBLIC = 1, 2\n_table: dict = {}\n\n"
            "def _helper():\n    return _LIMIT\n\n"
            "def _dead():\n    _table[0] = 1\n\n"
            "class _Gone:\n    pass\n\n"
            "def _cmd_run():\n    pass\n\n"
            "def __getattr__(name):\n    pass\n"
        ),
        "b.py": "from . import a\n\nVALUE = a._helper()\n",
    }
    assert _unread_private_names(sources) == [
        "a.py:_Gone (line 11)", "a.py:_UNUSED (line 2)", "a.py:_dead (line 8)"]
