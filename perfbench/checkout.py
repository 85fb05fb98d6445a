"""Locate the checkout under test and import stableshot from its source tree.

The benchmark never uses an installed copy of the package: it puts the
checkout's ``src`` first on ``sys.path`` and verifies that the imported
module really lives there.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def import_stableshot():
    """Import stableshot from ROOT/src; exit with status 2 when it is absent."""
    if not (SRC / "stableshot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stableshot source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stableshot

    if Path(stableshot.__file__).resolve().parent != SRC / "stableshot":
        sys.exit(f"perfbench: imported stableshot from {stableshot.__file__}, not {SRC}")
    return stableshot
