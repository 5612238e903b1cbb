"""The runtime package imports nothing outside the standard library, and
running its command line loads neither the standard library's introspection
modules nor argparse."""

import ast
import json
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


def test_cli_import_loads_no_introspection_modules(tmp_path):
    # dataclasses pulls in inspect (and with it ast, dis and tokenize), about
    # half the start-up time of a command-line call; the records are tuples.
    # argparse loads gettext on import and locale when it builds a parser,
    # so the modules are read after a scan and a normalize, not the import
    terms = [{"exponents": e, "re": re} for e, re in (
        ([2, 0, 0, 0], 0.535), ([0, 2, 0, 0], 0.535), ([0, 0, 2, 0], 0.205),
        ([0, 0, 0, 2], 0.205), ([4, 0, 0, 0], 0.1))]
    hamiltonian = tmp_path / "h.json"
    hamiltonian.write_text(json.dumps({"dof": 2, "chart": "real",
                                       "frequencies": [1.07, 0.41], "terms": terms}))
    scan = ["rtbp-scan", "--mu", "0.00025", "--q", "0.025", "--Q", "0.00025",
            "--A", "0.00025", "--grid", "0.1:0.9:2", "--output", os.devnull]
    normalize = ["normalize", "--input", str(hamiltonian), "--output", os.devnull]
    script = ("import sys; before = set(sys.modules); import birkhoff.cli; "
              f"codes = [birkhoff.cli.main({scan!r}), birkhoff.cli.main({normalize!r})]; "
              "print(codes); print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    codes, loaded = map(ast.literal_eval, out.splitlines())
    assert codes == [0, 0]
    assert "birkhoff.cli" in loaded
    assert {"dataclasses", "inspect", "argparse", "gettext", "locale"} & set(loaded) == set()
