"""The runtime package imports nothing outside the standard library, and
loading its command line does not load the standard library's introspection
modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "birkhoff"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_absolute_import_is_stdlib_or_the_package(path):
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots - sys.stdlib_module_names - {"birkhoff"} == set()


def test_project_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_cli_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect (and with it ast, dis and tokenize), about
    # half the start-up time of a command-line call; the records are tuples
    script = ("import sys; before = set(sys.modules); import birkhoff.cli; "
              "print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(ast.literal_eval(out))
    assert "birkhoff.cli" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()
