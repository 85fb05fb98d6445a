"""Every top-level import of the package and of the tests is read."""

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
