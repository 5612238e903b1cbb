"""Bit pin of the Hamiltonian file reader.

Every outcome of GradedHamiltonian.from_json_dict over a seeded set of
payloads -- the chart, float.hex of both frequencies and, per degree, the
exponents and float.hex of the real and imaginary part of each term the
polynomial holds, in its order, or else the type and message of the
exception -- is hashed and compared with a digest recorded from the reader
that checked one term at a time.

The set holds the benchmark pool's shapes (fully populated in both charts,
the sparse model form, an exact resonance), repeated exponents, parts of
0.0 and -0.0, int coefficients, missing parts, degrees above 4 and tuple
exponents as library callers pass them.  The malformed payloads carry one
or two defects at random positions: a term that is not an object;
exponents that are missing, null, a float, a bool, a string, negative or of
the wrong length; a degree below 2; re, im, omega1 or omega3 that is null,
a bool, a string, a list, an object, nan, inf or 10**400.  Needs only the
standard library besides the package, so tests/run_pins.py runs it too.
"""

import itertools
import math
import random

from birkhoff import GradedHamiltonian
from pins import assert_digest

#: SHA-256 of the lines of outcomes(); recorded from the per-term reader
DIGEST = "7d89ca97d11225205afecaadad1a0ef4f49b06d58e1fcde3207754d93eae0ee1"

CUBIC_QUARTIC = [e for e in itertools.product(range(5), repeat=4) if sum(e) in (3, 4)]
HIGHER = [e for e in itertools.product(range(7), repeat=4) if sum(e) in (5, 6)]
_RARE = (0.0, -0.0, 1e-17, -3e-16, 1e-30, 5e-324, 1e12, -7.5e9, 1e308, 3, -2, 0,
         10**20)

#: values no coefficient or frequency may take
BAD_NUMBERS = (None, True, False, "1.0", [1.0], {"re": 1.0}, math.nan, math.inf,
               -math.inf, 10**400)
#: exponent fields that are not four non-negative ints of degree >= 2
BAD_EXPONENTS = (None, 2.0, True, "1100", "ab", [1.0, 1, 1, 0], [1, True, 1, 0],
                 [1, 1, "1", 0], [-1, 3, 0, 0], (2, -1, 1, 0), [1, 1, 1], [1, 1, 1, 0, 0],
                 [], [0, 0, 0, 0], [1, 0, 0, 0], (0, 0, 0, 1))
#: what a term that is not an object may be
NOT_OBJECTS = (None, 3, 1.5, "term", [1, 1, 0, 0], True)
#: frequencies the file form refuses at the Frequencies check alone
NON_POSITIVE = (0, 0.0, -1.0, -0.0)
DEFECTS = ("not-object", "missing-exponents", "exponents", "re", "im", "omega1",
           "omega3", "frequency-sign")


def _value(rng):
    return rng.choice(_RARE) if rng.random() < 0.1 else rng.uniform(-1.0, 1.0)


def _frequencies(rng):
    return [rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)]


def _harmonic(chart, w1, w3):
    if chart == "real":
        return [{"exponents": list(e), "re": w / 2, "im": 0.0}
                for e, w in (((2, 0, 0, 0), w1), ((0, 2, 0, 0), w1),
                             ((0, 0, 2, 0), w3), ((0, 0, 0, 2), w3))]
    return [{"exponents": [1, 1, 0, 0], "re": 0.0, "im": w1},
            {"exponents": [0, 0, 1, 1], "re": 0.0, "im": w3}]


def populated(rng, chart, freqs=None):
    """Every cubic and quartic monomial, as the benchmark pool writes them."""
    w1, w3 = freqs or _frequencies(rng)
    terms = _harmonic(chart, w1, w3)
    for e in CUBIC_QUARTIC:
        terms.append({"exponents": list(e), "re": rng.uniform(-1.0, 1.0),
                      "im": 0.0 if chart == "real" else rng.uniform(-1.0, 1.0)})
    return {"dof": 2, "chart": chart, "frequencies": [w1, w3], "terms": terms}


def model(rng):
    """The sparse real model form: seven cubic and quartic monomials."""
    w1, w3 = _frequencies(rng)
    terms = _harmonic("real", w1, w3)
    for e in ((3, 0, 0, 0), (2, 0, 1, 0), (1, 0, 2, 0), (0, 0, 3, 0), (4, 0, 0, 0),
              (2, 0, 2, 0), (0, 0, 4, 0)):
        terms.append({"exponents": list(e), "re": rng.uniform(-2.0, 2.0), "im": 0.0})
    return {"dof": 2, "chart": "real", "frequencies": [w1, w3], "terms": terms}


def mixed(rng):
    """Random terms with rare values, repeats, missing parts, higher degrees
    and tuple exponents."""
    chart = rng.choice(("real", "complex"))
    w1, w3 = _frequencies(rng)
    terms = _harmonic(chart, w1, w3) if rng.random() < 0.8 else []
    for _ in range(rng.randrange(0, 40)):
        e = list(rng.choice(HIGHER if rng.random() < 0.1 else CUBIC_QUARTIC))
        term = {"exponents": tuple(e) if rng.random() < 0.2 else e,
                "re": _value(rng), "im": _value(rng)}
        if rng.random() < 0.05:
            del term[rng.choice(("re", "im"))]
        terms.append(term)
    # repeated exponents, added in file order
    for _ in range(rng.randrange(0, 6) if terms else 0):
        twin = dict(rng.choice(terms))
        twin["re"], twin["im"] = _value(rng), _value(rng)
        terms.insert(rng.randrange(len(terms) + 1), twin)
    if rng.random() < 0.2:
        terms = tuple(terms)
    return {"dof": 2, "chart": chart, "frequencies": [w1, w3], "terms": terms}


def valid(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return populated(rng, "real")
    if kind == 1:
        return populated(rng, "complex")
    if kind == 2:
        return model(rng)
    if kind == 3:
        # omega1 = 2*omega3 exactly, as the pool's resonant entries
        w3 = rng.uniform(0.2, 1.5)
        return populated(rng, rng.choice(("real", "complex")), (2.0 * w3, w3))
    return mixed(rng)


def _defective(rng, payload, defect):
    """payload with one defect of the kind named, at a random position."""
    payload = dict(payload, terms=list(payload["terms"]),
                   frequencies=list(payload["frequencies"]))
    terms = payload["terms"]
    if defect in ("omega1", "omega3"):
        payload["frequencies"][defect == "omega3"] = rng.choice(BAD_NUMBERS)
        return payload
    if defect == "frequency-sign":
        payload["frequencies"][rng.randrange(2)] = rng.choice(NON_POSITIVE)
        return payload
    if not terms:
        terms.append({"exponents": [1, 1, 0, 0], "re": 0.0, "im": 1.0})
    at = rng.randrange(len(terms))
    if defect == "not-object":
        terms[at] = rng.choice(NOT_OBJECTS)
        return payload
    if not isinstance(terms[at], dict):
        terms[at] = {"exponents": [0, 0, 1, 1], "re": 0.0, "im": 1.0}
    term = terms[at] = dict(terms[at])
    if defect == "missing-exponents":
        term.pop("exponents", None)
    elif defect == "exponents":
        term["exponents"] = rng.choice(BAD_EXPONENTS)
    else:
        term[defect] = rng.choice(BAD_NUMBERS)
    return payload


def _summed_past_the_double_range(rng):
    """A repeated monomial whose parts add up to inf: the reader takes each
    part, and the sum is refused where the polynomial is built."""
    payload = populated(rng, rng.choice(("real", "complex")))
    e = list(rng.choice(CUBIC_QUARTIC))
    part = rng.choice(("re", "im"))
    for _ in range(2):
        payload["terms"].insert(rng.randrange(len(payload["terms"]) + 1),
                                {"exponents": e, "re": 0.0, "im": 0.0, part: 1.5e308})
    if rng.random() < 0.5:
        payload["frequencies"][rng.randrange(2)] = rng.choice(NON_POSITIVE)
    return payload


#: the fields around the terms, refused before any term is read, and two
#: files that hold no term
WHOLE_FILE_DEFECTS = (
    [], None, "h.json",
    {"chart": "real", "frequencies": [1.0, 2.0], "terms": []},
    {"dof": 3, "chart": "real", "frequencies": [1.0, 2.0], "terms": []},
    {"dof": 2, "chart": "polar", "frequencies": [1.0, 2.0], "terms": []},
    {"dof": 2, "chart": "real", "frequencies": [1.0], "terms": []},
    {"dof": 2, "chart": "real", "frequencies": 1.0, "terms": []},
    {"dof": 2, "chart": "real", "frequencies": [1.0, 2.0], "terms": {"exponents": []}},
    {"dof": 2, "chart": "real", "frequencies": [1.0, 2.0], "terms": None},
    {"dof": 2, "chart": "real", "frequencies": [1.0, 2.0]},
    {"dof": 2, "chart": "complex", "frequencies": (1.0, 2.0), "terms": ()},
)


def payloads():
    """About 2000 payloads in a fixed order: valid ones, ones with one defect
    and ones with two, in either order."""
    rng = random.Random(20261021)
    out = list(WHOLE_FILE_DEFECTS)
    out += [valid(rng) for _ in range(560)]
    for defect in DEFECTS:
        out += [_defective(rng, valid(rng), defect) for _ in range(120)]
    for first, second in itertools.permutations(DEFECTS, 2):
        out += [_defective(rng, _defective(rng, valid(rng), first), second)
                for _ in range(8)]
    out += [_summed_past_the_double_range(rng) for _ in range(20)]
    return out


def _outcome(payload):
    try:
        ham = GradedHamiltonian.from_json_dict(payload)
    except Exception as err:  # every exception is an outcome to pin
        return f"{type(err).__name__}: {err}"
    w1, w3 = ham.frequencies
    parts = (f"{d}: " + " ".join(f"{e} {c.real.hex()} {c.imag.hex()}"
                                 for e, c in ham.part(d).terms.items())
             for d in ham.degrees())
    return " | ".join((ham.chart, w1.hex(), w3.hex(), *parts))


def outcomes():
    """One line per payload."""
    return [_outcome(payload) for payload in payloads()]


def test_payloads_reach_every_outcome():
    lines = outcomes()
    assert len(lines) >= 2000
    assert sum(line.startswith(("real |", "complex |")) for line in lines) >= 500
    for start in ("ValueError: a Hamiltonian must be", "ValueError: only dof",
                  "ValueError: chart must", "ValueError: frequencies must",
                  "ValueError: terms must be a list", "ValueError: term ",
                  "ValueError: term without", "ValueError: exponents must",
                  "ValueError: terms must have degree", "ValueError: re must",
                  "ValueError: im must", "ValueError: omega1 must be a finite",
                  "ValueError: omega3 must be a finite",
                  "ValueError: omega1 must be a positive",
                  "ValueError: omega3 must be a positive",
                  "NonFiniteCoefficientError: "):
        assert any(line.startswith(start) for line in lines), start
    # a -0.0 part is read as 0.0, and degrees above 4 are kept
    assert "-0x0.0p+0" not in "".join(lines)
    assert any(" | 5: " in line or " | 6: " in line for line in lines)


def test_outcomes_match_the_recorded_digest(tmp_path):
    assert_digest(outcomes(), DIGEST, tmp_path)
