"""The README's library overview and birkhoff.__all__ name only what exists,
and the README's library example and command-line invocations run."""

import importlib
import math
import re
import shlex
import types
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


def sentence_names(opening):
    """Backticked names of the README sentence that starts with opening."""
    text = README.read_text(encoding="utf-8")
    start = text.index(opening)
    return re.findall(r"`([^`]+)`", text[start:text.index(".\n", start)])


def test_exports_are_the_documented_api():
    # the four library rows, the records sentence and the errors sentence
    documented = set(sentence_names("The records are immutable named tuples:"))
    documented.update(sentence_names("Errors:"))
    for module in ("polyalg", "normalform", "closedform", "rtbpmodel"):
        documented.update(overview_names(module))
    assert set(birkhoff.__all__) - {"__version__"} == documented


def test_package_binds_no_other_public_name():
    extra = [name for name, value in vars(birkhoff).items()
             if not name.startswith("_") and name not in birkhoff.__all__
             and not isinstance(value, types.ModuleType)]
    assert extra == []


def test_every_exported_name_has_its_own_docstring():
    undocumented = []
    for name in birkhoff.__all__:
        if name == "__version__":
            continue
        value = getattr(birkhoff, name)
        # a class's own docstring; namedtuple writes "Name(field, ...)" when there is none
        doc = vars(value).get("__doc__") if isinstance(value, type) else value.__doc__
        generated = f"{name}({', '.join(getattr(value, '_fields', ()))})"
        if not (doc and doc.strip()) or doc == generated:
            undocumented.append(name)
    assert undocumented == []


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
