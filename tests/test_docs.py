"""The README's library overview and birkhoff.__all__ name only what exists,
and the README's library example and command-line invocations run."""

import importlib
import math
import re
import shlex
from pathlib import Path

import pytest

import birkhoff
from birkhoff.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def overview_names(module):
    """Backticked names in the contents cell of the module's overview row."""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith(f"| `birkhoff.{module}`"):
            contents = line.split("|", 2)[2]
            return [name.split("(")[0] for name in re.findall(r"`([^`]+)`", contents)]
    raise AssertionError(f"README has no library-overview row for birkhoff.{module}")


@pytest.mark.parametrize("module", ["polyalg", "normalform", "closedform", "rtbpmodel"])
def test_overview_names_are_module_attributes(module):
    mod = importlib.import_module(f"birkhoff.{module}")
    names = overview_names(module)
    assert names, f"README's birkhoff.{module} row names no identifier"
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []


def test_every_exported_name_resolves():
    assert [name for name in birkhoff.__all__ if not hasattr(birkhoff, name)] == []


def fenced_block(heading, language):
    """The first fenced block of the language under the README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    start = section.index(f"```{language}\n") + len(f"```{language}\n")
    return section[start:section.index("```", start)]


def command_lines():
    """The birkhoff invocations of the "Command line" block, continuations joined."""
    joined = fenced_block("## Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("birkhoff ")]


def test_library_overview_example_runs(capsys):
    namespace = {}
    exec(fenced_block("## Library overview", "python"), namespace)
    k2200, d2 = map(float, capsys.readouterr().out.split())
    assert math.isfinite(k2200) and math.isfinite(d2)
    assert namespace["stable_side"]


@pytest.mark.parametrize("argv", command_lines(), ids=lambda argv: argv[0])
def test_command_line_invocations_exit_0(argv, capsys, monkeypatch, tmp_path):
    # h.json is the README's Hamiltonian file example; outputs land in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.json").write_text(fenced_block("### Hamiltonian file format", "json"))
    code = main(argv)
    assert (code, capsys.readouterr().err) == (0, "")


def test_command_line_block_has_every_command():
    assert sorted(argv[0] for argv in command_lines()) == [
        "closed-form", "normalize", "rtbp-eval", "rtbp-scan"]
