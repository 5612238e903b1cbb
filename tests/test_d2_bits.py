"""Bit pin of the tabulated determinant and its three coefficients.

Every outcome over a seeded set of (coefficients, omega1, omega3) points --
the repr of the value, or the type and message of the exception -- is hashed
and compared with a digest recorded from the per-call forms that evaluated
every product at every point.  The set covers exact poles, the pair whose
K2200 denominator is 0 two ulps running, coefficients whose squares
overflow, powers of omega3 that overflow, subnormal denominators and omega1
near 1e308 and 1e-320.
"""

import math
import random

from birkhoff import (
    CubicQuarticCoefficients,
    Frequencies,
    ModelParams,
    d2_closed,
    d2_eval,
    d2_from_k,
    k0022,
    k1111,
    k2200,
)
from birkhoff.closedform import _overflow, tabulated_kernel
from conftest import assert_digest

#: SHA-256 of the lines of outcomes(); recorded before the kernel was hoisted
DIGEST = "ff9779098006e44b3c2a87b75fd87ab856d4dd046d1324788ecdfc514500c259"

REFERENCE = ModelParams(mu=0.00025, q=0.025, Q=0.00025, A=0.00025)
#: a1..b5 whose squares leave the double range
SQUARE_OVERFLOW = ModelParams(mu=1e-32, q=0.5, Q=0.5, A=0.001)
#: omega3 = 2*omega1; the K2200 denominator is 0 there and one ulp up
TWO_ULP_POLE = (0.0007807924243102605, 0.001561584848620521)
#: omega3/omega1 = 1.945; both terms of the K2200 denominator round to the
#: same subnormal
SUBNORMAL_PAIR = (5.412331930599114e-82, 1.0528646526423265e-81)

_RARE_COEFFICIENTS = (0.0, 1e160, -1e200, 1e-170, 5e-324, 3e153, -1.0)
_RARE_OMEGA3 = (1.0, 1e-100, 1e-160, 6e102, 1e200, 1e-320, TWO_ULP_POLE[1])


def _coefficient(rng):
    return (rng.choice(_RARE_COEFFICIENTS) if rng.random() < 0.06
            else rng.uniform(-2.0, 2.0))


def _omega1s(rng, w3):
    """Planar frequencies for one (coefficients, omega3) group."""
    up, down = math.inf, 0.0
    special = [w3 / 2.0, 2.0 * w3, w3, 3.0 * w3, w3 / 3.0,
               math.nextafter(w3 / 2.0, up), math.nextafter(w3 / 2.0, down),
               math.nextafter(2.0 * w3, up), 1e308, 1.7976931348623157e308,
               1e-320, 5e-324, 1e-100]
    picks = rng.sample(special, 4)
    return picks + [rng.uniform(0.05, 4.0) * w3 for _ in range(6)]


def groups():
    """[(coefficients, omega3, [omega1, ...]), ...], about 2000 points in all."""
    rng = random.Random(20261018)
    out = []
    for _ in range(190):
        c = CubicQuarticCoefficients(*[_coefficient(rng) for _ in range(7)])
        w3 = (rng.choice(_RARE_OMEGA3) if rng.random() < 0.2
              else rng.uniform(0.1, 4.0))
        out.append((c, w3, _omega1s(rng, w3)))
    poles = [0.5, 2.0, 1.0, 1.0 / 3.0, 3.0, 0.3, 1e308, 1e-320]
    for field in ("a1", "a2", "a3", "a4"):
        out.append((CubicQuarticCoefficients(**{field: 1e200, "b3": 1.0}), 1.0, poles))
    out.append((CubicQuarticCoefficients(a2=1.0, a3=1.0), SUBNORMAL_PAIR[1],
                [SUBNORMAL_PAIR[0], 2.0 * SUBNORMAL_PAIR[1]]))
    out.append((CubicQuarticCoefficients(a1=1.0, b5=1.0), 1e-100, [1e-100, 1e-200]))
    out.append((CubicQuarticCoefficients(b5=1.0), 1e-200, [1e-200]))
    out.append((CubicQuarticCoefficients(a1=1.0, a3=0.5, b1=2.0), TWO_ULP_POLE[1],
                [TWO_ULP_POLE[0], math.nextafter(TWO_ULP_POLE[0], math.inf)]))
    return out


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as err:  # every exception is an outcome to pin
        return f"{type(err).__name__}: {err}"


def outcomes():
    """One line per point: D2 and K2200, K1111, K0022 from the tabulated forms,
    then D2 of d2_eval, which steps off exact poles, at model points."""
    lines = []
    for c, w3, omega1s in groups():
        for w1 in omega1s:
            freqs = Frequencies(w1, w3)
            lines.append(" ".join(_outcome(f, c, freqs)
                                  for f in (d2_closed, k2200, k1111, k0022)))
    for params in (REFERENCE, SQUARE_OVERFLOW):
        for w1, w3 in ((0.5, 1.0), (2.0, 1.0), (0.3, 1.0), TWO_ULP_POLE,
                       SUBNORMAL_PAIR, (1e308, 1.0), (1e-320, 1.0), (1.0, 6e102)):
            lines.append(_outcome(lambda: d2_eval(params, w1, w3).value))
    return lines


def test_outcomes_match_the_recorded_digest(tmp_path):
    lines = outcomes()
    assert len(lines) > 1900
    assert_digest(lines, DIGEST, tmp_path)


def test_one_kernel_per_group_gives_the_per_point_outcomes():
    # a scan builds one kernel and calls it at every omega1 of its grid
    for c, w3, omega1s in groups():
        d2_at = tabulated_kernel(c, w3)
        for w1 in omega1s:
            assert _outcome(d2_at, w1) == _outcome(d2_closed, c, Frequencies(w1, w3))


def _composed(c, w1, w3):
    """D2 from the three K functions, composed as d2_from_k does; a K's
    OverflowError is the kernel's overflow error at (w1, w3).  The pair is
    built without Frequencies' checks, since some omega1 here are 0.0 or inf."""
    freqs = tuple.__new__(Frequencies, (w1, w3))
    try:
        ks = k2200(c, freqs), k1111(c, freqs), k0022(c, freqs)
    except OverflowError as err:
        raise _overflow(w1, w3) from err
    return d2_from_k(*ks, w1, w3)


def _hex_outcome(f, *args):
    try:
        return f(*args).hex()
    except Exception as err:  # every exception is an outcome to compare
        return f"{type(err).__name__}: {err}"


def spelling_points():
    """[(coefficients, omega3, [omega1, ...]), ...]: seeded draws around the
    poles and the ends of the double range, then the pinned hard pairs."""
    rng = random.Random(20261020)
    rare_omega3 = _RARE_OMEGA3 + (1e308, 5e-324, 1e154, 1e-154, 2.2e-308)
    out = []
    for _ in range(400):
        c = CubicQuarticCoefficients(*[_coefficient(rng) for _ in range(7)])
        w3 = (rng.choice(rare_omega3) if rng.random() < 0.3
              else rng.uniform(0.1, 4.0))
        out.append((c, w3, _omega1s(rng, w3)))
    hard = [(1e308, 1.0), (1.0, 6e102), (5e-324, 1e308), SUBNORMAL_PAIR, TWO_ULP_POLE,
            (math.nextafter(TWO_ULP_POLE[0], math.inf), TWO_ULP_POLE[1]),
            (0.5, 1.0), (2.0, 1.0), (1.0, 1.0), (1e-320, 1.0), (1e154, 1.0)]
    squares = [CubicQuarticCoefficients(**{field: 1e200, "b3": 1.0})
               for field in ("a1", "a2", "a3", "a4")]
    for c in [CubicQuarticCoefficients(a1=1.0, a2=-0.5, a3=0.7, a4=0.3, b1=2.0, b3=-1.0,
                                       b5=0.5), *squares]:
        for w1, w3 in hard:
            out.append((c, w3, [w1]))
    return out


def test_kernel_d2_equals_the_composition_of_its_ks():
    # the kernel's d2 spells the three Ks a second time; it must give the
    # outcome of composing k2200, k1111 and k0022, bit for bit or error for
    # error, also at the omega1 = 0.0 and inf that Frequencies refuses
    checked = outside = 0
    for c, w3, omega1s in spelling_points():
        d2_at = tabulated_kernel(c, w3)
        for w1 in omega1s:
            fused = _hex_outcome(d2_at, w1)
            assert fused == _hex_outcome(_composed, c, w1, w3), (c, w1, w3)
            assert not fused.startswith("OverflowError"), (c, w1, w3)
            checked += 1
            outside += w1 in (0.0, math.inf)
    assert checked > 4000 and outside == 75
