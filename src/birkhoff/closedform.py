"""The cubic/quartic model: its coefficients, its Hamiltonian and the
tabulated degree-4 normal-form coefficients.

The model Hamiltonian has the cubic part a1*u^3 + a2*u^2*v + a3*u*v^2 + a4*v^3
and the quartic part b1*u^4 + b3*u^2*v^2 + b5*v^4 on top of two harmonic
modes; :func:`build_model_hamiltonian` writes it out for the engine.  The
closed forms tabulated for it are kept verbatim as the fast path for
parameter scans and as the compatibility target for reproducing historical
stability curves.

The quadratic-in-cubic sectors of these forms disagree with the Lie-transform
engine in :mod:`birkhoff.normalform`; see DISCREPANCIES.md for the term-by-term
comparison.  The linear-in-quartic sectors agree exactly.

The tabulated K2200, K1111 and K0022 are transcribed as :func:`k2200`,
:func:`k1111` and :func:`k0022`, each at one frequency pair.
:func:`tabulated_kernel` takes the coefficients and omega3 and returns D2 as a
function of omega1; scans build one kernel per grid, and :func:`d2_closed`
applies it at one point.  Its d2 spells the three coefficients a second time,
in one body with the determinant and with their operation order, checks and
errors, since a scan calls it once per row; a test holds it to the
composition of the three K functions, bit for bit, on poles, subnormals and
overflows.  :func:`d2_from_k` composes the determinant from three given
coefficients; the engine's :func:`birkhoff.normalform.normalize` calls it.
:func:`d2_expanded` writes the same determinant out as one rational
expression; it is the reference that the tests and the benchmark check
:func:`d2_closed` against, and the program never calls it at run time.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Callable

from .polyalg import (CanonicalPolynomial, Frequencies, GradedHamiltonian, check_frequency,
                      checked_record, is_finite_real)


class DeterminantOverflowError(ValueError):
    """The determinant is not representable as a finite double at this point."""


class PoleError(ZeroDivisionError):
    """A frequency pair sits exactly on a pole of the closed forms."""

    def __init__(self, relation: str):
        self.relation = relation
        super().__init__(f"closed form has a pole on the resonance {relation}")


class CubicQuarticCoefficients(checked_record(
        "CubicQuarticCoefficients", "a1 a2 a3 a4 b1 b3 b5", defaults=(0.0,) * 7)):
    """Cubic (a1..a4) and quartic (b1, b3, b5) model coefficients."""

    __slots__ = ()

    def __new__(cls, a1: float = 0.0, a2: float = 0.0, a3: float = 0.0, a4: float = 0.0,
                b1: float = 0.0, b3: float = 0.0, b5: float = 0.0):
        return cls._finite((a1, a2, a3, a4, b1, b3, b5))

    @classmethod
    def _finite(cls, values: tuple):
        """The record of values, one per field; the first value in field order
        that is not a finite real raises ValueError naming its field."""
        for name, v in zip(cls._fields, values):
            if not is_finite_real(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        return tuple.__new__(cls, values)


def build_model_hamiltonian(coeffs: CubicQuarticCoefficients,
                            freqs: Frequencies) -> GradedHamiltonian:
    """Real-chart Hamiltonian for the cubic/quartic model.

    H2 = (w1/2)(u^2 + pu^2) + (w3/2)(v^2 + pv^2), H3 = a1 u^3 + a2 u^2 v
    + a3 u v^2 + a4 v^3, H4 = b1 u^4 + b3 u^2 v^2 + b5 v^4, with u, v the
    position-like variables of the planar and vertical modes.  Accepts any
    object carrying a1..a4, b1, b3, b5 attributes.
    """
    w1, w3 = freqs.omega1, freqs.omega3
    h2 = CanonicalPolynomial({
        (2, 0, 0, 0): 0.5 * w1, (0, 2, 0, 0): 0.5 * w1,
        (0, 0, 2, 0): 0.5 * w3, (0, 0, 0, 2): 0.5 * w3,
    })
    h3 = CanonicalPolynomial({
        (3, 0, 0, 0): float(coeffs.a1),
        (2, 0, 1, 0): float(coeffs.a2),
        (1, 0, 2, 0): float(coeffs.a3),
        (0, 0, 3, 0): float(coeffs.a4),
    })
    h4 = CanonicalPolynomial({
        (4, 0, 0, 0): float(coeffs.b1),
        (2, 0, 2, 0): float(coeffs.b3),
        (0, 0, 4, 0): float(coeffs.b5),
    })
    return GradedHamiltonian({2: h2, 3: h3, 4: h4}, freqs)


def _raise_pole(name: str, lead: float, relation: str, omega1: float, omega3: float):
    """A zero denominator whose two terms cancel is a pole on relation; one
    whose leading term is 0 or subnormal is a DeterminantOverflowError, since
    two terms that underflowed that far can round to the same value off the
    relation."""
    if abs(lead) < sys.float_info.min:
        raise DeterminantOverflowError(
            f"the denominator of {name} underflows at omega1={omega1!r}, "
            f"omega3={omega3!r}")
    raise PoleError(relation)


def tabulated_kernel(c: CubicQuarticCoefficients, omega3: float) -> Callable[[float], float]:
    """D2 of the tabulated forms as a function of omega1.

    Every product that does not depend on omega1 is taken here, once; the
    returned d2 does the rest of the arithmetic in the order of the tabulated
    expressions, so a value is the same double whether one kernel serves one
    point or a whole scan.  omega3 must be a positive finite real (ValueError
    otherwise).  d2 is called with omega1 alone, which is taken to be a
    positive finite real and not checked; its other parameters hold the
    hoisted products.

    d2 spells K2200, K1111 and K0022 as :func:`k2200`, :func:`k1111` and
    :func:`k0022` do and checks them in that order.  It raises PoleError on an
    exact pole, and DeterminantOverflowError when a denominator is 0 because
    both its terms underflowed, when a power overflows, or when the value is
    not a finite double.  When an omega1-free power overflows, no omega1 has
    a value, and the kernel is the composition of the three K functions,
    which raises the same errors in the same order.
    """
    check_frequency("omega3", omega3)
    w3 = omega3
    w3x2, b1x6, b3x8 = 2.0 * w3, 6.0 * c.b1, -8.0 * c.b3
    a1a3x12, a2a4x6 = 12.0 * c.a1 * c.a3, 6.0 * c.a2 * c.a4 / w3
    # only a power can overflow
    try:
        w3_2 = w3 ** 2
        w3_2x4 = 4.0 * w3_2
        w3_3 = w3 ** 3
        a1_2x5 = 5.0 * c.a1 ** 2
        a2_2 = c.a2 ** 2
        a2_2x2 = 2.0 * a2_2
        a3_2 = c.a3 ** 2
        b5_a4 = -12.0 * c.b5 + 10.0 * c.a4 ** 2 / w3
    except OverflowError:
        return partial(_composed, c, w3)

    # the products are bound as defaults, which are locals: cheaper per row
    # than the cells of a closure
    def d2(w1, w3=w3, w3_3=w3_3, w3_2=w3_2, a1_2x5=a1_2x5, b1x6=b1x6, a2_2x2=a2_2x2,
           w3x2=w3x2, b3x8=b3x8, a1a3x12=a1a3x12, a3_2=a3_2, a2_2=a2_2, a2a4x6=a2a4x6,
           w3_2x4=w3_2x4, b5_a4=b5_a4):
        """-(K2200*w3^2 + K1111*w1*w3 + K0022*w1^2) with the three Ks in this
        one body: one frame and one w1**2 per scan row, not a call per K."""
        try:
            lead = 16.0 * w1 ** 3 * w3
            den = lead - 4.0 * w1 * w3_3
            if den == 0.0:
                _raise_pole("K2200", lead, "omega3 = 2*omega1", w1, w3)
            w1_2 = w1 ** 2
            w1_2x4 = 4.0 * w1_2
            k2200 = ((a1_2x5 - b1x6 * w1) * w3 * (w1_2x4 - w3_2)
                     + a2_2x2 * w1 * (w1_2x4 + w1 * w3 - w3_2)) / den

            double = w1 - w3x2
            if double == 0.0:
                raise PoleError("omega1 = 2*omega3")
            w1x2 = 2.0 * w1
            half = w1x2 - w3
            if half == 0.0:
                raise PoleError("omega3 = 2*omega1")
            k1111 = 0.125 * (b3x8
                             + a1a3x12 / w1
                             + a3_2 / double
                             + a2_2 / half
                             + a2a4x6
                             + a2_2 / (w1x2 + w3)
                             + a3_2 / (w1 + w3x2))

            den = w1_2 - w3_2x4
            if den == 0.0:
                _raise_pole("K0022", w1_2, "omega1 = 2*omega3", w1, w3)
            k0022 = 0.125 * (b5_a4 + a3_2 * (4.0 / w1 + 2.0 * w1 / den))

            value = -(k2200 * w3_2 + k1111 * w1 * w3 + k0022 * w1_2)
        except OverflowError as err:
            raise _overflow(w1, w3) from err
        if not math.isfinite(value):
            raise _overflow(w1, w3, f"got {value!r}")
        return value

    return d2


def k2200(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """Coefficient of (X1 Y1)^2; pole on omega3 = 2*omega1.

    Raises PoleError on that pole, DeterminantOverflowError when the
    denominator is 0 because both its terms underflowed, and a bare
    OverflowError when a power overflows.
    """
    w1, w3 = freqs.omega1, freqs.omega3
    lead = 16.0 * w1 ** 3 * w3
    den = lead - 4.0 * w1 * w3 ** 3
    if den == 0.0:
        _raise_pole("K2200", lead, "omega3 = 2*omega1", w1, w3)
    w1_2x4 = 4.0 * w1 ** 2
    return ((5.0 * c.a1 ** 2 - 6.0 * c.b1 * w1) * w3 * (w1_2x4 - w3 ** 2)
            + 2.0 * c.a2 ** 2 * w1 * (w1_2x4 + w1 * w3 - w3 ** 2)) / den


def k1111(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """Coefficient of X1 Y1 X2 Y2; poles on omega1 = 2*omega3 and omega3 = 2*omega1.

    Raises PoleError on either pole and a bare OverflowError when a power
    overflows; its denominators are differences, so none underflows to 0.
    """
    w1, w3 = freqs.omega1, freqs.omega3
    w3x2 = 2.0 * w3
    double = w1 - w3x2
    if double == 0.0:
        raise PoleError("omega1 = 2*omega3")
    w1x2 = 2.0 * w1
    half = w1x2 - w3
    if half == 0.0:
        raise PoleError("omega3 = 2*omega1")
    return 0.125 * (-8.0 * c.b3
                    + 12.0 * c.a1 * c.a3 / w1
                    + c.a3 ** 2 / double
                    + c.a2 ** 2 / half
                    + 6.0 * c.a2 * c.a4 / w3
                    + c.a2 ** 2 / (w1x2 + w3)
                    + c.a3 ** 2 / (w1 + w3x2))


def k0022(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """Coefficient of (X2 Y2)^2; pole on omega1 = 2*omega3.

    Raises PoleError on that pole, DeterminantOverflowError when the
    denominator is 0 because both its terms underflowed, and a bare
    OverflowError when a power overflows.
    """
    w1, w3 = freqs.omega1, freqs.omega3
    lead = w1 ** 2
    den = lead - 4.0 * w3 ** 2
    if den == 0.0:
        _raise_pole("K0022", lead, "omega1 = 2*omega3", w1, w3)
    return 0.125 * (-12.0 * c.b5 + 10.0 * c.a4 ** 2 / w3
                    + c.a3 ** 2 * (4.0 / w1 + 2.0 * w1 / den))


def _composed(c: CubicQuarticCoefficients, w3: float, w1: float) -> float:
    """D2 as d2_from_k composes k2200, k1111 and k0022, a K's OverflowError
    being the overflow error at (w1, w3); the pair skips Frequencies' checks,
    as the kernel's d2 does for omega1."""
    freqs = tuple.__new__(Frequencies, (w1, w3))
    try:
        ks = k2200(c, freqs), k1111(c, freqs), k0022(c, freqs)
    except OverflowError as err:
        raise _overflow(w1, w3) from err
    return d2_from_k(*ks, w1, w3)


def d2_expanded(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """The determinant written out as a single rational expression.

    Algebraically identical to composing k2200/k1111/k0022.  It is an
    independent transcription kept as the reference for the tests and the
    benchmark; nothing in the program calls it.
    """
    w1, w3 = freqs.omega1, freqs.omega3
    den = w1 ** 2 - 4.0 * w3 ** 2
    if den == 0.0:
        raise PoleError("omega1 = 2*omega3")
    if w3 ** 2 - 4.0 * w1 ** 2 == 0.0:
        raise PoleError("omega3 = 2*omega1")
    return 0.25 * (-3.0 * c.a2 * c.a4 * w1
                   + 6.0 * c.b5 * w1 ** 2
                   - 5.0 * c.a4 ** 2 * w1 ** 2 / w3
                   - 6.0 * c.a1 * c.a3 * w3
                   + 4.0 * c.b3 * w1 * w3
                   + 6.0 * c.b1 * w3 ** 2
                   - 5.0 * c.a1 ** 2 * w3 ** 2 / w1
                   - c.a3 ** 2 * w1 * (3.0 * w1 ** 2 + w1 * w3 - 8.0 * w3 ** 2) / den
                   + 2.0 * c.a2 ** 2 * w3 * (5.0 * w1 ** 2 + w1 * w3 - w3 ** 2)
                   / (-4.0 * w1 ** 2 + w3 ** 2))


def _overflow(omega1: float, omega3: float, why: str = "an intermediate power is "
              "not a finite double") -> DeterminantOverflowError:
    return DeterminantOverflowError(
        f"determinant overflows at omega1={omega1!r}, omega3={omega3!r} ({why})")


def d2_from_k(k2200: float, k1111: float, k0022: float,
              omega1: float, omega3: float) -> float:
    """Arnold determinant from the three resonant degree-4 coefficients.

    Each frequency must be a positive finite real (ValueError naming it
    otherwise, omega1 first).  Raises DeterminantOverflowError (a ValueError)
    when the value, or a power of a frequency on the way to it, is not
    finite, so no nan or inf reaches a caller.
    """
    check_frequency("omega1", omega1)
    check_frequency("omega3", omega3)
    try:
        value = -(k2200 * omega3 ** 2 + k1111 * omega1 * omega3 + k0022 * omega1 ** 2)
    except OverflowError as err:
        raise _overflow(omega1, omega3) from err
    if not math.isfinite(value):
        raise _overflow(omega1, omega3, f"got {value!r}")
    return value


def d2_closed(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """-(k2200*w3^2 + k1111*w1*w3 + k0022*w1^2): tabulated_kernel at one point.

    Raises PoleError on an exact pole, and DeterminantOverflowError as
    d2_from_k does and also when a power inside the tabulated forms overflows.
    """
    return tabulated_kernel(c, freqs.omega3)(freqs.omega1)
