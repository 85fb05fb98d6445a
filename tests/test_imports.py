"""Every top-level import of the package and of the tests is read, and
every parameter of the package's functions; and no module of the package
touches another object's private attributes."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ only re-exports the public API, so it is not scanned
SOURCES = [
    p for p in sorted(ROOT.glob("src/stableshot/*.py")) + sorted(ROOT.glob("tests/*.py"))
    if p.name != "__init__.py"
]

# names imported only to stay importable from the module: the benchmark's
# tracer wraps these two through cycles
EXEMPT = {"src/stableshot/cycles.py": {"build_path", "simulate_sessions"}}


def unread_imports(source: str) -> list:
    """The names bound by the module-level imports of ``source`` that no
    expression of it reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_an_unread_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(e)\n"
    assert unread_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    rel = str(path.relative_to(ROOT))
    unread = set(unread_imports(path.read_text())) - EXEMPT.get(rel, set())
    assert not unread, f"{rel} imports {sorted(unread)} and never reads them"


PACKAGE = [p for p in SOURCES if p.parent.name == "stableshot"]


def unread_parameters(source: str) -> list:
    """(function, parameter) for each parameter of a function or lambda of
    ``source`` that its body never reads, nested functions included;
    ``self``, ``cls`` and ``_``-prefixed names are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [
            (name, p) for p in params
            if p not in read and p not in ("self", "cls") and not p.startswith("_")
        ]
    return unread


def test_the_scan_finds_an_unread_parameter():
    source = (
        "def f(a, b, *c, d=1, _e=2, **g):\n"
        "    b = 3\n"
        "    def inner(h):\n"
        "        return a + d\n"
        "    return lambda i, j: i + inner\n"
        "class C:\n"
        "    def m(self, k):\n"
        "        return 0\n"
    )
    # b is only written, and a is read only by the nested function
    assert sorted(unread_parameters(source)) == [
        ("<lambda>", "j"), ("f", "b"), ("f", "c"), ("f", "g"), ("inner", "h"), ("m", "k")
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_parameter_is_read(path):
    unread = unread_parameters(path.read_text())
    assert not unread, f"{path.relative_to(ROOT)} never reads the parameters {unread}"


def private_reads(source: str) -> list:
    """(line, expression), in line order, for each access to an attribute
    named ``_x`` (one leading underscore, not a dunder) of anything but
    ``self`` or ``cls``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_scan_finds_a_private_read():
    source = (
        "class C:\n"
        "    def m(self, other):\n"
        "        return self._a + other._b + type(self).__name__\n"
        "    @classmethod\n"
        "    def k(cls):\n"
        "        return cls._c\n"
        "x = C()._d + C.__doc__\n"
    )
    assert private_reads(source) == [(3, "other._b"), (7, "C()._d")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_state_of_another_object_is_read(path):
    found = private_reads(path.read_text())
    assert not found, f"{path.relative_to(ROOT)} reads another object's private state: {found}"
