"""tests/run_pins.py recomputes the bit pins without pytest."""

import subprocess
import sys
from pathlib import Path

import run_pins

SCRIPT = Path(__file__).with_name("run_pins.py")


def test_pins_match_without_pytest():
    # pytest made unimportable in the child, as on a CPython without it
    code = ("import runpy, sys; sys.modules['pytest'] = None; "
            f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in run_pins.PIN_MODULES:
        assert f"{name}: ok" in proc.stdout


def test_a_digest_that_differs_exits_1(monkeypatch, capsys):
    import test_verdict_bits

    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends to it
    monkeypatch.setattr(test_verdict_bits, "DIGEST", "0" * 64)
    assert run_pins.main() == 1
    out = capsys.readouterr().out
    assert "test_verdict_bits: digest " in out
    assert f"!= pinned {'0' * 64}" in out
    assert "test_series_bits: ok" in out
    assert f"1 of {len(run_pins.PIN_MODULES)} pins differ" in out
