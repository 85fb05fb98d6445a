"""The public surface: every exported name resolves."""

import ast
import importlib
import inspect
import pkgutil

import stableshot


def test_every_module_all_entry_exists():
    for info in pkgutil.iter_modules(stableshot.__path__):
        module = importlib.import_module(f"stableshot.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"stableshot.{info.name}.__all__ names missing {missing}"


def test_every_package_import_exists():
    tree = ast.parse(inspect.getsource(stableshot))
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(stableshot, n)] == []
