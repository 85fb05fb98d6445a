"""The suite's warning filters: a failing property test reports as a failure."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5
"""

OTHER_DEPRECATION = """
import warnings


def test_warns():
    warnings.warn("an API this test still uses is deprecated", DeprecationWarning)
"""


@pytest.mark.parametrize("source", [FAILING_PROPERTY, OTHER_DEPRECATION], ids=["given", "deprecation"])
def test_a_failing_test_fails_alone_under_the_suite_filters(tmp_path, source):
    # reporting a failing example imports libcst, which warns through
    # mypy_extensions; any other deprecation still fails its own test
    (tmp_path / "test_one.py").write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "1 failed" in proc.stdout and "INTERNALERROR" not in proc.stdout + proc.stderr
