"""The README's library overview and birkhoff.__all__ name only what exists."""

import importlib
import re
from pathlib import Path

import pytest

import birkhoff

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
