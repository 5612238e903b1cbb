"""The argparse parser the command line used before its flag table, as a
test reference.

The differential test in tests/test_cli_parser.py checks the table parser of
birkhoff.cli against it: where this parser accepts an argv the two give
equal namespaces, and where it rejects one the command line exits 2.  It
keeps its own copy of the grid converter, so the reference does not share
code with the parser it checks.  Needs only the standard library.
"""

import argparse

from birkhoff.closedform import CubicQuarticCoefficients


def parse_grid(text: str) -> tuple[float, float, int]:
    pieces = text.split(":")
    if len(pieces) != 3:
        raise argparse.ArgumentTypeError("grid must look like lo:hi:steps")
    try:
        lo, hi, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {err}") from err
    return lo, hi, steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birkhoff",
        description="Degree-4 Birkhoff normal forms and the stability "
                    "determinant for the radiating oblate three-body model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="normalize a Hamiltonian JSON file")
    p_norm.add_argument("--input", required=True, help="Hamiltonian JSON path")
    p_norm.add_argument("--output", default=None)

    p_cf = sub.add_parser("closed-form", help="tabulated K coefficients and D2")
    for name in CubicQuarticCoefficients._fields:
        p_cf.add_argument(f"--{name}", type=float, default=0.0)
    p_cf.add_argument("--omega1", type=float, required=True)
    p_cf.add_argument("--omega3", type=float, required=True)
    p_cf.add_argument("--format", choices=("json", "csv"), default="json")
    p_cf.add_argument("--output", default=None)

    # the flags rtbp-eval and rtbp-scan share
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--mu", type=float, required=True)
    model.add_argument("--q", type=float, required=True)
    model.add_argument("--Q", type=float, required=True)
    model.add_argument("--A", type=float, required=True)
    model.add_argument("--omega3", type=float, default=1.0)
    model.add_argument("--d2-tolerance", type=float, default=None)
    model.add_argument("--max-half-order", type=int, default=None,
                       help="truncate the expansions after A**(h/2)")
    model.add_argument("--output", default=None)

    p_eval = sub.add_parser("rtbp-eval", parents=[model],
                            help="model coefficients and stability verdict")
    p_eval.add_argument("--omega1", type=float, required=True)

    p_scan = sub.add_parser("rtbp-scan", parents=[model],
                            help="determinant over an omega1 grid")
    p_scan.add_argument("--grid", type=parse_grid, required=True,
                        metavar="LO:HI:STEPS")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser
