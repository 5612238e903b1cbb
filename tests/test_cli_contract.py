"""Property tests of the CLI's exit-code contract over extreme numeric flags.

Every run ends with exit 0, 2, 3 or 4.  Exit 0 writes no NaN or Infinity
token; exits 3 and 4 write a JSON error document whose kind matches the code,
and no domain message is a bare errno tuple.
"""

import contextlib
import io
import json
import math
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from birkhoff.cli import main  # noqa: E402

MODEL = ["--mu=0.00025", "--q=0.025", "--Q=0.00025", "--A=0.00025"]
ERROR_KINDS = {3: "domain", 4: "resonance"}
ERRNO_TUPLE = re.compile(r"\(\d+, '[^']*'\)")

# nan, infinities, zeros, subnormals and the largest doubles, next to any float
EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                            -5e-324, 2.2e-308, 1e308, -1e308, 1.7976931348623157e308])
NUMBERS = EXTREMES | st.floats() | st.floats(min_value=0.05, max_value=3.0)
FORMATS = st.sampled_from(["json", "csv"])

CONTRACT = settings(derandomize=True, deadline=None, max_examples=150)


def flag(name, value):
    # --name=value, so a negative value is not read as an option
    return f"--{name}={value!r}"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def refuse_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def check_contract(argv, fmt="json"):
    code, out, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        if fmt == "json":
            json.loads(out, parse_constant=refuse_constant)
        else:
            assert "nan" not in out.lower() and "inf" not in out.lower(), argv
    elif code in ERROR_KINDS:
        assert out == ""
        payload = json.loads(err)
        assert isinstance(payload, dict)
        assert payload["error"] == ERROR_KINDS[code], (argv, payload)
        assert not ERRNO_TUPLE.fullmatch(payload["message"]), (argv, payload)


@CONTRACT
@given(st.dictionaries(st.sampled_from(["a1", "a2", "a3", "a4", "b1", "b3", "b5"]),
                       NUMBERS, max_size=7),
       NUMBERS, NUMBERS, FORMATS)
def test_closed_form(coefficients, omega1, omega3, fmt):
    argv = ["closed-form", *(flag(k, v) for k, v in coefficients.items()),
            flag("omega1", omega1), flag("omega3", omega3), f"--format={fmt}"]
    check_contract(argv, fmt)


@CONTRACT
@given(NUMBERS, NUMBERS, st.none() | NUMBERS)
def test_rtbp_eval(omega1, omega3, d2_tolerance):
    argv = ["rtbp-eval", *MODEL, flag("omega1", omega1), flag("omega3", omega3)]
    if d2_tolerance is not None:
        argv.append(flag("d2-tolerance", d2_tolerance))
    check_contract(argv)


@CONTRACT
@given(NUMBERS, NUMBERS, st.integers(min_value=-3, max_value=40), NUMBERS, FORMATS)
def test_rtbp_scan(lo, hi, steps, omega3, fmt):
    argv = ["rtbp-scan", *MODEL, f"--grid={lo!r}:{hi!r}:{steps}",
            flag("omega3", omega3), f"--format={fmt}"]
    check_contract(argv, fmt)


def test_errno_text_is_recognised():
    # the pattern the contract refuses is str() of an OverflowError from **
    try:
        1e200 ** 2
    except OverflowError as err:
        assert ERRNO_TUPLE.fullmatch(str(err))
