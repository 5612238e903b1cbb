"""Property tests of the CLI's exit-code contract over extreme numeric flags
and over arbitrary Hamiltonian files.

Every run ends with exit 0, 2, 3 or 4.  Exit 0 writes no NaN or Infinity
token; exits 3 and 4 write a JSON error document whose kind matches the code,
and no domain message is a bare errno tuple.
"""

import contextlib
import io
import itertools
import json
import math
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from birkhoff.cli import main  # noqa: E402

MODEL = ["--mu=0.00025", "--q=0.025", "--Q=0.00025", "--A=0.00025"]
ERROR_KINDS = {3: "domain", 4: "resonance"}
ERRNO_TUPLE = re.compile(r"\(\d+, '[^']*'\)")
SCAN_FLAGS = {"ok", "pole", "degenerate", "resonant"}
NON_FINITE_TOKENS = {"nan", "inf", "-inf"}

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


def check_csv(out, argv):
    """Every numeric field a finite float, no non-finite token, every flag known.

    Token by token: a substring test would reject the flag resonant, which
    contains "nan".
    """
    header, *rows = out.splitlines()
    columns = header.split(",")
    assert rows, argv
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(columns), (argv, row)
        for column, field in zip(columns, fields):
            assert field.lower() not in NON_FINITE_TOKENS, (argv, row)
            if column == "flag":
                assert field in SCAN_FLAGS, (argv, row)
            else:
                assert math.isfinite(float(field)), (argv, row)


def check_contract(argv, fmt="json"):
    code, out, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        if fmt == "json":
            json.loads(out, parse_constant=refuse_constant)
        else:
            check_csv(out, argv)
    elif code in ERROR_KINDS:
        assert out == ""
        payload = json.loads(err)
        assert isinstance(payload, dict)
        assert payload["error"] == ERROR_KINDS[code], (argv, payload)
        assert not ERRNO_TUPLE.fullmatch(payload["message"]), (argv, payload)
    return code, err


@CONTRACT
@given(st.dictionaries(st.sampled_from(["a1", "a2", "a3", "a4", "b1", "b3", "b5"]),
                       NUMBERS, max_size=7),
       NUMBERS, NUMBERS, FORMATS)
@example({"a1": 1.0}, 1e-100, 1e-100, "json")  # both denominator terms underflow
@example({}, 5e-324, 1e308, "json")  # omega3**2 overflows
def test_closed_form(coefficients, omega1, omega3, fmt):
    argv = ["closed-form", *(flag(k, v) for k, v in coefficients.items()),
            flag("omega1", omega1), flag("omega3", omega3), f"--format={fmt}"]
    code, err = check_contract(argv, fmt)
    if code == 4:
        # the named relation holds for the given floats, up to the few ulps
        # within which the K2200 denominator can cancel
        lhs, rhs = {"omega3 = 2*omega1": (omega3, 2.0 * omega1),
                    "omega1 = 2*omega3": (omega1, 2.0 * omega3)}[json.loads(err)["relation"]]
        assert math.isclose(lhs, rhs, rel_tol=1e-15), (argv, err)


@CONTRACT
@given(NUMBERS, NUMBERS, st.none() | NUMBERS)
@example(0.3, 1e308, None)  # omega3**2 overflows
def test_rtbp_eval(omega1, omega3, d2_tolerance):
    argv = ["rtbp-eval", *MODEL, flag("omega1", omega1), flag("omega3", omega3)]
    if d2_tolerance is not None:
        argv.append(flag("d2-tolerance", d2_tolerance))
    check_contract(argv)


@CONTRACT
@given(NUMBERS, NUMBERS, st.integers(min_value=-3, max_value=40), NUMBERS, FORMATS)
@example(0.5, 1.5, 3, 1.0, "csv")  # rows flagged pole, resonant and ok
@example(0.05, 4.0, 5, 1e308, "csv")  # omega3**2 overflows
def test_rtbp_scan(lo, hi, steps, omega3, fmt):
    argv = ["rtbp-scan", *MODEL, f"--grid={lo!r}:{hi!r}:{steps}",
            flag("omega3", omega3), f"--format={fmt}"]
    check_contract(argv, fmt)


@pytest.mark.parametrize("argv", [
    ["closed-form", "--omega1=5e-324", "--omega3=1e308"],
    ["rtbp-eval", *MODEL, "--omega1=0.3", "--omega3=1e308"],
    ["rtbp-scan", *MODEL, "--grid=0.05:4.0:5", "--omega3=1e308"],
], ids=["closed-form", "rtbp-eval", "rtbp-scan"])
def test_an_overflowing_omega3_is_named(argv):
    # the examples above, pinned: the power of omega3 that overflows is
    # reported as the determinant's overflow at the pair, not as errno text
    code, err = check_contract(argv)
    assert code == 3
    assert json.loads(err)["message"].startswith("determinant overflows at omega1="), err


# -- Hamiltonian files through `birkhoff normalize` ---------------------------

NICE_FREQUENCY = st.floats(min_value=0.05, max_value=3.0)
FREQUENCY_PAIRS = (st.tuples(NICE_FREQUENCY, NICE_FREQUENCY)
                   # exact low-order resonances: some divisor vanishes
                   | st.sampled_from([(1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (3.0, 1.0)])
                   | st.tuples(EXTREMES | NICE_FREQUENCY, EXTREMES | NICE_FREQUENCY))
COEFFICIENTS = EXTREMES | st.floats() | st.floats(min_value=-2.0, max_value=2.0)
WRONG_TYPES = st.sampled_from([None, True, "2.0", [1.0], {"re": 1.0}])
CUBIC_AND_QUARTIC = [list(e) for e in itertools.product(range(5), repeat=4)
                     if sum(e) in (3, 4)]
WELL_FORMED_TERMS = st.fixed_dictionaries(
    {"exponents": st.sampled_from(CUBIC_AND_QUARTIC),
     "re": st.floats(min_value=-2.0, max_value=2.0)},
    optional={"im": st.floats(min_value=-2.0, max_value=2.0)})
ANY_TERMS = st.fixed_dictionaries({}, optional={
    "exponents": st.lists(st.integers(min_value=-1, max_value=5) | WRONG_TYPES
                          | st.just(3.9), max_size=5),
    "re": COEFFICIENTS | WRONG_TYPES,
    "im": COEFFICIENTS | WRONG_TYPES,
})


def harmonic_terms(chart, w1, w3):
    """The quadratic part normalize requires, in the file's chart."""
    if chart == "complex":
        return [{"exponents": [1, 1, 0, 0], "im": w1},
                {"exponents": [0, 0, 1, 1], "im": w3}]
    return [{"exponents": [2, 0, 0, 0], "re": w1 / 2},
            {"exponents": [0, 2, 0, 0], "re": w1 / 2},
            {"exponents": [0, 0, 2, 0], "re": w3 / 2},
            {"exponents": [0, 0, 0, 2], "re": w3 / 2}]


@st.composite
def hamiltonian_files(draw):
    """Mostly valid files of either chart, some with one bad term or field."""
    chart = draw(st.sampled_from(["real", "complex"]))
    w1, w3 = draw(FREQUENCY_PAIRS)
    terms = harmonic_terms(chart, w1, w3) if draw(st.integers(0, 3)) else []
    terms += draw(st.lists(WELL_FORMED_TERMS, max_size=8))
    if draw(st.integers(0, 3)) == 0:
        terms.insert(draw(st.integers(0, len(terms))), draw(ANY_TERMS))
    payload = {"dof": 2, "chart": chart, "frequencies": [w1, w3], "terms": terms}
    field = draw(st.sampled_from([None] * 8 + ["dof", "chart", "frequencies", "terms"]))
    if field is not None:
        if draw(st.booleans()):
            del payload[field]
        else:
            payload[field] = draw(WRONG_TYPES | st.just([w1]) | st.just([]))
    if draw(st.integers(0, 19)) == 0:
        payload = draw(WRONG_TYPES)
    return payload


def model_file(w1, w3, *terms):
    return {"dof": 2, "chart": "real", "frequencies": [w1, w3],
            "terms": [*harmonic_terms("real", w1, w3),
                      *({"exponents": e, "re": re} for e, re in terms)]}


@pytest.fixture(scope="module")
def hamiltonian_path(tmp_path_factory):
    return tmp_path_factory.mktemp("normalize") / "h.json"


@CONTRACT
@given(hamiltonian_files(), st.just(True))
# the degree-4 source overflows a double: this used to exit 0, with the b1
# term alone in K2200
@example(model_file(1.07, 0.41, ([3, 0, 0, 0], 1e200), ([1, 0, 2, 0], 1e200),
                    ([4, 0, 0, 0], 1.0)), False)
# omega3**2 overflows in D2: this used to exit 3 with a bare errno tuple
@example(model_file(1e308, 1e308), True)
@example({"dof": 2, "chart": "complex", "frequencies": [1.0, 3.0], "terms": []}, True)
def test_normalize(hamiltonian_path, payload, may_succeed):
    # json.dumps writes nan and infinities as NaN and Infinity, which json.load reads
    hamiltonian_path.write_text(json.dumps(payload))
    code, _ = check_contract(["normalize", "--input", str(hamiltonian_path)])
    assert code != 2
    assert may_succeed or code != 0, payload


def test_errno_text_is_recognised():
    # the pattern the contract refuses is str() of an OverflowError from **
    try:
        1e200 ** 2
    except OverflowError as err:
        assert ERRNO_TUPLE.fullmatch(str(err))
