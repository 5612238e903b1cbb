"""Recompute the bit pins of the model series, the tabulated D2, the
stability verdict, the engine (normalize, in two orders of the input terms),
the Hamiltonian file reader and a scan's median and rows, and compare each
with its recorded digest.

Needs only the standard library, so the pins run on any CPython the package
supports, pytest or not:

    python3 tests/run_pins.py

One line is printed per pin; the exit status is 1 if any digest differs.
"""

import importlib
import sys
from pathlib import Path

#: the pin modules; each has outcomes() and the DIGEST of their lines
PIN_MODULES = ("test_series_bits", "test_d2_bits", "test_verdict_bits",
               "test_normalize_bits", "test_normalize_order_bits", "test_reader_bits",
               "test_scan_bits")


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from pins import digest

    mismatches = 0
    for name in PIN_MODULES:
        module = importlib.import_module(name)
        got = digest(module.outcomes())
        if got == module.DIGEST:
            print(f"{name}: ok")
        else:
            mismatches += 1
            print(f"{name}: digest {got} != pinned {module.DIGEST}")
    print(f"python {sys.version.split()[0]}: {mismatches} of {len(PIN_MODULES)} pins differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
