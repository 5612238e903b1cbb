"""Differential test of the command line's flag-table parser against the
argparse parser it replaced (tests/reference_parser.py).

Argv are drawn from the table's own commands and flag names, in both the
`--name value` and `--name=value` forms, with repeats, unknown and missing
flags, stray tokens, bad numbers, bad choices and bad grids.  Where the
reference accepts an argv, the table parser gives an equal namespace; where
it rejects one, the command line exits 2 with a JSON usage document.

The two parsers differ on purpose in two ways that the draws leave out: a
flag must be spelled in full (argparse took any unique prefix), and a value
given as its own token may start with "-" (argparse read most such tokens
as flags).  tests/test_cli.py::TestParser pins both.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from birkhoff import cli  # noqa: E402
from reference_parser import build_parser  # noqa: E402

REFERENCE = build_parser()
PARSER = settings(derandomize=True, deadline=None, max_examples=600)

#: good and bad values of each converter's flags; the text strategy adds any
GOOD = {
    float: ["0.3", "1", "1e-3", "-1e-3", "nan", "inf", "-inf", "1e999", " 2.5 ", "1_000.5"],
    int: ["3", "0", "-1", " 7 ", "1_0"],
    str: ["h.json", "out.csv", "", "a=b", "x y", "-", "-o", "--mu"],
    cli._parse_grid: ["0.1:0.9:5", "0.05:4:100", "-0.1:0.9:5", " 1:2:3 "],
    ("csv", "json"): ["csv", "json"],
}
BAD = {
    float: ["abc", "", "0x10", "1,5", "--", "-x"],
    int: ["2.5", "x", "", "9" * 5000],
    str: [],
    cli._parse_grid: ["nonsense", "0.1:0.9", "a:b:c", "0.1:0.9:5.5", "0.1:0.9:5:6", "",
                      "0.1::5"],
    ("csv", "json"): ["xml", "CSV", ""],
}
#: no unknown name here is a prefix of a real flag, which argparse would take
UNKNOWN = ["--bogus", "--bogus=1", "--omega2", "--Mu=1", "--inputs", "-x", "foo", "--", "="]


def flag_values(convert, clean):
    kind = tuple(sorted(convert)) if type(convert) is tuple else convert
    good = st.sampled_from(GOOD[kind])
    if clean:
        return good
    return st.one_of(good, st.sampled_from(BAD[kind] or GOOD[kind]), st.text(max_size=6))


@st.composite
def argvs(draw):
    """A command, bogus or missing, then flags; a clean argv gives every
    required flag a good value and has no stray token."""
    command = draw(st.sampled_from([*cli._COMMANDS] * 3 + ["bogus", "", None]))
    if command is None:
        return []
    clean = draw(st.booleans())
    flags = cli._COMMANDS.get(command, (None, None, {"mu": (float, None)}))[2]
    required = [name for name, (_, default) in flags.items() if default is cli._REQUIRED]
    names = (required if clean or draw(st.booleans()) else []) + draw(
        st.lists(st.sampled_from(list(flags)), max_size=6))
    argv = [command]
    for name in draw(st.permutations(names)):
        value = draw(flag_values(flags[name][0], clean))
        if value.startswith("-") or draw(st.booleans()):
            argv.append(f"--{name}={value}")
        else:
            argv += [f"--{name}", value]
    if not clean and draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(UNKNOWN)))
    if not clean and draw(st.integers(0, 3)) == 0:
        argv.append(f"--{draw(st.sampled_from(list(flags)))}")  # its value missing
    return argv


def reference_fields(argv):
    """repr of each field of the reference namespace, or None on a usage error."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return {k: repr(v) for k, v in vars(REFERENCE.parse_args(argv)).items()}
        except SystemExit:
            return None


@PARSER
@given(argvs())
@example(["rtbp-scan", "--mu", "1", "--q=2", "--Q", "3", "--A", "4", "--grid", "0.1:0.9:5"])
@example(["rtbp-eval", "--mu=1", "--q=2", "--Q=3", "--A=4", "--omega1=-1e-3", "--mu=5"])
@example(["closed-form", "--omega1", "1", "--omega3", "3", "--format", "xml"])
@example(["normalize", "--input", "h.json", "--output"])
@example(["rtbp-scan", "--mu", "1", "--q", "2", "--Q", "3", "--A", "4", "--grid", "0.1:0.9:5",
          "--max-half-order", "2.5"])
@example(["closed-form", "--omega1", "abc", "--omega1", "1", "--omega3", "3"])
def test_table_parser_matches_the_reference(argv):
    want = reference_fields(argv)
    if want is not None:
        assert {k: repr(v) for k, v in vars(cli._parse(argv)).items()} == want, argv
    else:
        with pytest.raises(cli._UsageError):
            cli._parse(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert (code, out.getvalue()) == (2, ""), argv
        assert json.loads(err.getvalue())["error"] == "usage", argv

