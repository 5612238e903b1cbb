"""Command-line front end.

Subcommands: normalize (Hamiltonian JSON in, normal-form report JSON out),
closed-form (tabulated coefficients from a/b/omega flags), rtbp-eval (model
coefficients plus stability verdict), rtbp-scan (determinant-vs-omega1 grid as
CSV or JSON).  Exit codes: 0 success, 2 usage error, 3 domain error,
4 resonance/pole error (machine-readable JSON on stderr).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .closedform import CubicQuarticCoefficients, PoleError, d2_closed, k0022, k1111, k2200
from .normalform import ResonanceError, normalize
from .polyalg import Frequencies, GradedHamiltonian
from .rtbpmodel import ModelParams, d2_eval, scan_blocks, verdict_from_d2

USAGE_ERROR = 2
DOMAIN_ERROR = 3
RESONANCE_ERROR = 4


#: CSV float format: 17 significant digits, which round-trip any double
_CSV_FLOAT = "%.16e"


def _write(chunks, path: str | None):
    """Write an iterable of strings to stdout ("-" or None) or to a file.

    A reader of stdout that closes its end early, as `| head -1` does, ends
    the write as a success: the rest of the text is dropped and nothing is
    written to stderr.
    """
    if path is None or path == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the text still buffered goes to os.devnull, so the interpreter's
            # final flush of stdout does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _emit(text: str, path: str | None):
    """Write one document and its final newline."""
    _write((text, "\n"), path)


def _json_text(value) -> str:
    """The one layout of every JSON document the CLI writes."""
    return json.dumps(value, indent=2, sort_keys=True)


def _parse_grid(text: str) -> tuple[float, float, int]:
    pieces = text.split(":")
    if len(pieces) != 3:
        raise argparse.ArgumentTypeError("grid must look like lo:hi:steps")
    try:
        lo, hi, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {err}") from err
    return lo, hi, steps


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
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
    p_scan.add_argument("--grid", type=_parse_grid, required=True,
                        metavar="LO:HI:STEPS")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


#: _json_text of one generator term inside a normalize report, keys sorted;
#: its floats are plain, so %r writes them as float.__repr__ does
_JSON_TERM = ('{\n        "exponents": [\n          %d,\n          %d,\n          %d,\n'
              '          %d\n        ],\n        "im": %r,\n        "re": %r\n      }')


def _report_text(report: dict) -> str:
    """The text of _json_text(report) for a NormalFormReport.to_json_dict().

    The generator terms are nearly all of a report.  A polynomial holds only
    finite coefficients and their exponents are ints, so each term is the
    fixed template _JSON_TERM.  The rest goes through _json_text with the
    terms left empty; its '"terms": []' is then replaced by the rows.  That
    text is unique: a report's keys are fixed and its one string is "complex".
    """
    generating = report["generating"]
    terms = generating["terms"]
    text = _json_text(dict(report, generating=dict(generating, terms=[])))
    if not terms:
        return text
    rows = ",\n      ".join([
        _JSON_TERM % (*t["exponents"], t["im"], t["re"]) for t in terms])
    return text.replace('"terms": []', '"terms": [\n      ' + rows + "\n    ]", 1)


def _run_normalize(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError as err:  # the C decoder recurses once per bracket
            raise ValueError(f"the input nests too deeply to read: {err}") from err
    report = normalize(GradedHamiltonian.from_json_dict(payload))
    _emit(_report_text(report.to_json_dict()), args.output)
    return 0


def _run_closed_form(args) -> int:
    coeffs = CubicQuarticCoefficients._make(
        getattr(args, name) for name in CubicQuarticCoefficients._fields)
    # Frequencies checks omega1, then omega3, before any form is evaluated
    freqs = Frequencies(args.omega1, args.omega3)
    # D2 first: it names an overflow of the forms, which the K functions
    # alone would raise as a bare OverflowError
    values = {"D2": d2_closed(coeffs, freqs), "K2200": k2200(coeffs, freqs),
              "K1111": k1111(coeffs, freqs), "K0022": k0022(coeffs, freqs)}
    if args.format == "csv":
        text = ("K2200,K1111,K0022,D2\n"
                + ",".join(_CSV_FLOAT % values[k] for k in ("K2200", "K1111", "K0022", "D2")))
    else:
        text = _json_text(values)
    _emit(text, args.output)
    return 0


def _run_rtbp_eval(args) -> int:
    params = ModelParams(mu=args.mu, q=args.q, Q=args.Q, A=args.A)
    # one evaluation of the series serves both the verdict and the report
    result = d2_eval(params, args.omega1, args.omega3, args.max_half_order)
    verdict = verdict_from_d2(result.value, args.omega1, args.omega3, args.d2_tolerance)
    payload = {
        "params": params._asdict(),
        "coefficients": result.coefficients._asdict(),
        "verdict": verdict.to_json_dict(),
    }
    _emit(_json_text(payload), args.output)
    return 0


def _run_rtbp_scan(args) -> int:
    params = ModelParams(mu=args.mu, q=args.q, Q=args.Q, A=args.A)
    lo, hi, steps = args.grid
    # every grid point is evaluated here, so an error leaves no output behind
    blocks = scan_blocks(params, args.omega3, lo, hi, steps,
                         d2_tolerance=args.d2_tolerance,
                         max_half_order=args.max_half_order)
    # block by block, so neither the rows nor the text of a long scan are held
    if args.format == "csv":
        row = f"{_CSV_FLOAT},{_CSV_FLOAT},%s\n"
        texts = (_block_text(row, *block) for block in blocks)
        _write(itertools.chain(("omega1,D2,flag\n",), texts), args.output)
    else:
        _write(_json_rows(blocks), args.output)
    return 0


def _block_text(row_format: str, *columns) -> str:
    """row_format % the fields of each row of the columns, joined: one % over
    the fields, row by row in column order."""
    return row_format * len(columns[0]) % tuple(itertools.chain.from_iterable(zip(*columns)))


#: _json_text of one scan row's object inside the list, keys sorted
_JSON_ROW = '{\n    "D2": %r,\n    "flag": "%s",\n    "omega1": %r\n  }'


def _json_rows(blocks):
    """The text of _json_text(list of row objects) and its final newline,
    one string per (omega1s, d2s, flags) block of scan_blocks.

    A row's floats are finite (%r writes them as float.__repr__ does) and its
    flag needs no escaping, so each object is the fixed template _JSON_ROW.
    """
    row = ",\n  " + _JSON_ROW
    texts = (_block_text(row, d2s, flags, omega1s) for omega1s, d2s, flags in blocks)
    yield "[" + next(texts)[1:]  # a scan has at least two rows; the first takes no comma
    yield from texts
    yield "\n]\n"


_HANDLERS = {
    "normalize": _run_normalize,
    "closed-form": _run_closed_form,
    "rtbp-eval": _run_rtbp_eval,
    "rtbp-scan": _run_rtbp_scan,
}


def _fail(code: int, document: dict) -> int:
    """Write an error document to stderr and return its exit code."""
    sys.stderr.write(_json_text(document) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ResonanceError as err:
        return _fail(RESONANCE_ERROR, {"error": "resonance", "message": str(err),
                                       "exponents": list(err.exponents),
                                       "divisor": err.divisor})
    except PoleError as err:
        return _fail(RESONANCE_ERROR, {"error": "resonance", "message": str(err),
                                       "relation": err.relation})
    except (ValueError, OverflowError, OSError) as err:
        return _fail(DOMAIN_ERROR, {"error": "domain", "message": str(err)})


if __name__ == "__main__":
    sys.exit(main())
