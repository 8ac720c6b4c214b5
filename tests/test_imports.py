"""No module of the package imports a name it never uses, and every
module-level name the package defines is read in it or, if public,
re-exported as its API from ``__init__.py``, which the import check
leaves out."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cclab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")
SOURCES = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
# The names __init__.py re-exports.
EXPORTED = {a.asname or a.name
            for node in ast.parse((PACKAGE / "__init__.py").read_text(
                encoding="utf-8")).body
            if isinstance(node, ast.ImportFrom) for a in node.names}


def _unused_imports(source: str) -> list:
    """The names bound by the module's imports that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).partition(".")[0]
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    assert _unused_imports("import os\nimport a.b as c\nfrom x import (y,\n"
                           "    z)\nfrom __future__ import annotations\n"
                           "print(z)\n") == ["os", "c", "y"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _unused_imports(source) == []


def _unread_names(sources, exported) -> list:
    """The module-level names (functions, classes and constants, but no
    ``__dunder__`` names) defined in ``sources`` that none of them reads,
    as a name or an attribute, outside the name's own definition, and
    that are private or not in ``exported``: a helper that only calls
    itself is unread."""
    defined, read = set(), set()
    for source in sources:
        for top in ast.parse(source).body:
            names = set()
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = {top.name}
            elif isinstance(top, ast.Assign):
                names = {n.id for t in top.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)}
            elif isinstance(top, ast.AnnAssign):
                names = {top.target.id}
            defined |= {n for n in names if not n.startswith("__")
                        and (n.startswith("_") or n not in exported)}
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in names:
                    read.add(name)
    return sorted(defined - read)


def test_unread_private_names_are_found():
    sources = ["_A = 1\n_B: int = 2\n__all__ = []\n"
               "def _f(n):\n    return _f(n - 1) + _A\n"
               "class _C:\n    pass\n",
               "import m\ndef _g():\n    return m._C\n"]
    assert _unread_names(sources, set()) == ["_B", "_f", "_g"]


def test_unread_public_names_are_found():
    # A public name counts as read when __init__.py re-exports it, as
    # f here, or a module reads it, as f reads g.
    sources = ["K = 1\ndef f():\n    return g()\ndef g():\n    pass\n"
               "class C:\n    pass\n"]
    assert _unread_names(sources, {"f"}) == ["C", "K"]


def test_every_name_is_read_or_exported():
    assert _unread_names(SOURCES, EXPORTED) == []
