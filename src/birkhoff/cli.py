"""Command-line front end.

Subcommands: normalize (Hamiltonian JSON in, normal-form report JSON out),
closed-form (tabulated coefficients from a/b/omega flags), rtbp-eval (model
coefficients plus stability verdict), rtbp-scan (determinant-vs-omega1 grid as
CSV or JSON).  Exit codes: 0 success, 2 usage error, 3 domain error,
4 resonance/pole error (machine-readable JSON on stderr).
"""

from __future__ import annotations

import itertools
import json
import os
import stat
import sys
from types import SimpleNamespace

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

    A file is rewritten in place: it is opened without O_TRUNC, written from
    its start and then, if it is a regular file that was not empty, cut at
    the bytes the system took, also when a chunk or a write raises.  So it
    keeps its inode, and after a return or an exception it holds only new
    bytes, as with open(path, "w").  What this saves depends on the file
    system: on ext4 mounted with `discard`, which discards every block it
    frees, a whole open, write and close of an existing ~9 KB report took
    about 120 us with open(path, "w") against about 22 us in place, a tenth
    of a `normalize` run into the same file; on tmpfs (about 21 against
    20 us), or for a new file (28 against 29 us), the two cost about the
    same.  Unlike open(path, "w"), the file holds the new head followed by
    the old tail while it is written, and keeps both if the process is
    killed before the cut.  A device or FIFO, such as os.devnull, is not
    cut: that fails with EINVAL.
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
        # the mode and the umask apply as they do for open(path, "w"), and
        # O_BINARY keeps Windows from turning each "\r\n" into "\r\r\n"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            held = os.fstat(fd)
            # only a regular file that held bytes can be left an old tail
            cut = stat.S_ISREG(held.st_mode) and held.st_size > 0
            try:
                fh.writelines(chunks)
                fh.flush()
            finally:
                if cut:
                    # the offset counts the bytes written, flushing or not;
                    # text still buffered goes on from there at the close
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _emit(text: str, path: str | None):
    """Write one document and its final newline."""
    _write((text, "\n"), path)


def _json_text(value) -> str:
    """The one layout of every JSON document the CLI writes."""
    return json.dumps(value, indent=2, sort_keys=True)


def _parse_grid(text: str) -> tuple[float, float, int]:
    pieces = text.split(":")
    if len(pieces) != 3:
        raise ValueError("grid must look like lo:hi:steps")
    try:
        lo, hi, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
    except ValueError as err:
        raise ValueError(f"bad grid {text!r}: {err}") from err
    return lo, hi, steps


#: _json_text of one generator term inside a normalize report, keys sorted;
#: its floats are plain, so %r writes them as float.__repr__ does
_JSON_TERM = ('{\n        "exponents": [\n          %d,\n          %d,\n          %d,\n'
              '          %d\n        ],\n        "im": %r,\n        "re": %r\n      }')
#: _json_text of one resonance flag inside a normalize report, keys sorted
_JSON_FLAG = ('{\n      "divisor": %r,\n      "exponents": [\n        %d,\n        %d,\n'
              '        %d,\n        %d\n      ]\n    }')
#: _json_text of a normalize report around its term rows and flags, keys sorted
_JSON_REPORT = ('{\n  "D2": %r,\n  "K0022": %r,\n  "K1111": %r,\n  "K2200": %r,\n'
                '  "generating": {\n    "chart": "%s",\n    "dof": %d,\n'
                '    "frequencies": [\n      %r,\n      %r\n    ],\n    "terms": %s\n'
                '  },\n  "resonances": %s\n}')


def _json_list(rows: list[str], indent: str) -> str:
    """_json_text's list of the rows, each already laid out, whose closing
    bracket stands at indent: "[]" when there is none."""
    if not rows:
        return "[]"
    return f"[\n{indent}  " + f",\n{indent}  ".join(rows) + f"\n{indent}]"


def _report_text(report: dict) -> str:
    """The text of _json_text(report) for a NormalFormReport.to_json_dict().

    The whole report is written through the fixed templates _JSON_REPORT,
    _JSON_TERM and _JSON_FLAG, with no json.dumps.  That holds because a
    report's keys are fixed, its one string is a chart name, which needs no
    escaping, its numbers are ints or finite floats (the frequencies are
    floats as the file reader returns them), which %d and %r write as
    json.dumps does, and its only lists are the exponents, the two
    frequencies, the generator terms and the resonance flags.
    """
    generating = report["generating"]
    terms = _json_list([_JSON_TERM % (*t["exponents"], t["im"], t["re"])
                        for t in generating["terms"]], "    ")
    flags = _json_list([_JSON_FLAG % (f["divisor"], *f["exponents"])
                        for f in report["resonances"]], "  ")
    return _JSON_REPORT % (report["D2"], report["K0022"], report["K1111"], report["K2200"],
                           generating["chart"], generating["dof"],
                           *generating["frequencies"], terms, flags)


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


#: the default of a flag that must be given
_REQUIRED = object()

#: the flags rtbp-eval and rtbp-scan share
_MODEL_FLAGS = {"mu": (float, _REQUIRED), "q": (float, _REQUIRED), "Q": (float, _REQUIRED),
                "A": (float, _REQUIRED), "omega3": (float, 1.0), "d2-tolerance": (float, None),
                "max-half-order": (int, None), "output": (str, None)}

#: command -> (handler, summary, {flag: (converter, default)}), the one
#: source of the parser and of the --help text.  A converter is a callable
#: that raises ValueError on a bad value, or the tuple of the values allowed.
_COMMANDS = {
    "normalize": (_run_normalize, "normalize a Hamiltonian JSON file",
                  {"input": (str, _REQUIRED), "output": (str, None)}),
    "closed-form": (_run_closed_form, "tabulated K coefficients and D2",
                    {**dict.fromkeys(CubicQuarticCoefficients._fields, (float, 0.0)),
                     "omega1": (float, _REQUIRED), "omega3": (float, _REQUIRED),
                     "format": (("json", "csv"), "json"), "output": (str, None)}),
    "rtbp-eval": (_run_rtbp_eval, "model coefficients and stability verdict",
                  {**_MODEL_FLAGS, "omega1": (float, _REQUIRED)}),
    "rtbp-scan": (_run_rtbp_scan, "determinant over an omega1 grid",
                  {**_MODEL_FLAGS, "grid": (_parse_grid, _REQUIRED),
                   "format": (("csv", "json"), "csv")}),
}

_HELP = ("-h", "--help")
#: how --help names the value of each converter that is not a tuple
_METAVARS = {float: "X", int: "N", str: "PATH", _parse_grid: "LO:HI:STEPS"}


class _UsageError(Exception):
    """An argv that _COMMANDS does not accept; main exits 2 with its message."""


def _parse(argv) -> SimpleNamespace | None:
    """The command and its flag values, one field per flag with "-" written
    "_", or None when argv asks for help.

    argv is a command, then flags as `--name value` or `--name=value` with
    the name in full; a value is taken as given, even if it starts with "-".
    Each value is converted as it is read, and the last of a repeated flag
    wins.  Raises _UsageError.
    """
    tokens = iter(argv)
    command = next(tokens, None)
    if command in _HELP:
        return None
    if command not in _COMMANDS:
        got = "" if command is None else f", got {command!r}"
        raise _UsageError(f"expected a command, one of {', '.join(_COMMANDS)}{got}")
    flags = _COMMANDS[command][2]
    given = {}
    for token in tokens:
        if token in _HELP:
            return None
        name, eq, value = token.partition("=")
        if name[:2] != "--" or name[2:] not in flags:
            raise _UsageError(f"{command} has no flag {name!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise _UsageError(f"{name} needs a value")
        convert = flags[name[2:]][0]
        try:
            if type(convert) is not tuple:
                value = convert(value)
            elif value not in convert:
                raise ValueError(f"choose from {', '.join(convert)}, got {value!r}")
        except ValueError as err:
            raise _UsageError(f"{name}: {err}") from None
        given[name[2:]] = value
    missing = [f"--{name}" for name, (_, default) in flags.items()
               if default is _REQUIRED and name not in given]
    if missing:
        raise _UsageError(f"{command} needs {', '.join(missing)}")
    return SimpleNamespace(command=command, **{name.replace("-", "_"): given.get(name, default)
                                               for name, (_, default) in flags.items()})


def _usage_text() -> str:
    """The --help text, built from _COMMANDS."""
    lines = ["usage: birkhoff COMMAND [--FLAG VALUE | --FLAG=VALUE] ...",
             "",
             "Degree-4 Birkhoff normal forms and the stability determinant for the",
             "radiating oblate three-body model.  Flags are spelled in full; the last",
             "of a repeated flag wins.  Exit codes: 0 success, 2 usage error, 3 domain",
             "error, 4 resonance or pole error, with a JSON document on stderr."]
    for command, (_, summary, flags) in _COMMANDS.items():
        lines += ["", f"{command}: {summary}"]
        for name, (convert, default) in flags.items():
            value = ("{" + ",".join(convert) + "}" if type(convert) is tuple
                     else _METAVARS[convert])
            note = ("required" if default is _REQUIRED else "optional" if default is None
                    else f"default {default}")
            lines.append(f"  --{name} {value} ({note})")
    return "\n".join(lines)


def _fail(code: int, document: dict) -> int:
    """Write an error document to stderr and return its exit code."""
    sys.stderr.write(_json_text(document) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            _emit(_usage_text(), None)
            return 0
        return _COMMANDS[args.command][0](args)
    except _UsageError as err:
        return _fail(USAGE_ERROR, {"error": "usage", "message": str(err)})
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
