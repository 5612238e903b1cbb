"""Digest check shared by the bit pins; needs only the standard library,
so tests/run_pins.py can run the pins where pytest is not installed."""

import hashlib


def digest(lines) -> str:
    """SHA-256 of the lines joined by newlines, as hex."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def assert_digest(lines, expected, tmp_path):
    """Assert that the SHA-256 of the joined lines is expected.

    On a mismatch the lines are written to a file under tmp_path (a
    pathlib.Path), which the failure names, so a re-pin can be diffed
    against the old outcomes.
    """
    got = digest(lines)
    if got != expected:
        path = tmp_path / "outcomes.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        raise AssertionError(f"digest {got} != pinned {expected}; outcome lines in {path}")
