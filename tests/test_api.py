"""The public surface: every exported name resolves, and none pulls in scipy."""

import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import stableshot
from stableshot import Scenario, cli


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


def test_readme_cli_usage_names_the_parser_commands_and_flags():
    # a flag dropped from the parser must not stay documented, nor the reverse
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    usage = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        flag
        for command in sub.choices.values()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert set(re.findall(r"^stableshot (\w+)", usage, re.M)) == set(sub.choices)
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == flags


_NO_SCIPY_SCRIPT = """
import sys
from stableshot.cli import main

cfg, out = sys.argv[1:]
assert main(["validate", "--scenario", cfg]) == 0
code = main(["run", "--scenario", cfg, "--out", out, "--workers", "1"])
print("run exit", code)
print("scipy modules", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_validate_and_run_load_no_scipy(tmp_path):
    # scipy's import was most of a fresh process's set-up time; this run
    # reaches the KS statistic (stable_limit), the exact Poisson curve
    # (identity on unit rates) and the rate regression (cdf_rate)
    cfg = tmp_path / "s.yaml"
    Scenario(
        name="no-scipy", analyses=("stable_limit", "cdf_rate"), functionals=("identity",),
        T_ladder=(50.0, 100.0, 200.0), replicates=5, x_grid=(1.0,), seed=3,
    ).to_yaml(cfg)
    src = os.path.dirname(os.path.dirname(stableshot.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ERROR" not in proc.stderr  # every analysis ran to its verdict
    out = proc.stdout.splitlines()
    assert any("/stable_limit/identity/" in ln for ln in out)
    assert any("/cdf_rate/x=1:" in ln for ln in out)
    assert out[-2] in ("run exit 0", "run exit 1")
    assert out[-1] == "scipy modules []"
