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

The determinant is composed from the three coefficients by :func:`d2_from_k`,
the one spelling of that formula, which the engine uses as well.
:func:`d2_expanded` writes the same determinant out as one rational
expression; it is the reference that the tests and the benchmark check
:func:`d2_closed` against, and the program never calls it at run time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .polyalg import CanonicalPolynomial, Frequencies, GradedHamiltonian


class DeterminantOverflowError(ValueError):
    """The determinant is not representable as a finite double at this point."""


class PoleError(ZeroDivisionError):
    """A frequency pair sits exactly on a pole of the closed forms."""

    def __init__(self, relation: str):
        self.relation = relation
        super().__init__(f"closed form has a pole on the resonance {relation}")


@dataclass(frozen=True)
class CubicQuarticCoefficients:
    """Cubic (a1..a4) and quartic (b1, b3, b5) model coefficients."""

    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0
    b1: float = 0.0
    b3: float = 0.0
    b5: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")

    def scaled(self, lam: float) -> "CubicQuarticCoefficients":
        """Cubic terms scaled by lam and quartic terms by lam**2."""
        return CubicQuarticCoefficients(
            a1=lam * self.a1, a2=lam * self.a2, a3=lam * self.a3, a4=lam * self.a4,
            b1=lam * lam * self.b1, b3=lam * lam * self.b3, b5=lam * lam * self.b5)


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


def _raise_pole(name: str, lead: float, relation: str, freqs: Frequencies):
    """A zero denominator whose two terms cancel is a pole on relation; one
    whose leading term is 0 or subnormal is a DeterminantOverflowError, since
    two terms that underflowed that far can round to the same value off the
    relation."""
    if abs(lead) < sys.float_info.min:
        raise DeterminantOverflowError(
            f"the denominator of {name} underflows at omega1={freqs.omega1!r}, "
            f"omega3={freqs.omega3!r}")
    raise PoleError(relation)


def k2200(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """Coefficient of (X1 Y1)^2; pole on omega3 = 2*omega1."""
    w1, w3 = freqs.omega1, freqs.omega3
    lead = 16.0 * w1 ** 3 * w3
    den = lead - 4.0 * w1 * w3 ** 3
    if den == 0.0:
        _raise_pole("K2200", lead, "omega3 = 2*omega1", freqs)
    num = ((5.0 * c.a1 ** 2 - 6.0 * c.b1 * w1) * w3 * (4.0 * w1 ** 2 - w3 ** 2)
           + 2.0 * c.a2 ** 2 * w1 * (4.0 * w1 ** 2 + w1 * w3 - w3 ** 2))
    return num / den


def k1111(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """Coefficient of X1 Y1 X2 Y2; poles on omega1 = 2*omega3 and omega3 = 2*omega1."""
    w1, w3 = freqs.omega1, freqs.omega3
    if w1 - 2.0 * w3 == 0.0:
        raise PoleError("omega1 = 2*omega3")
    if 2.0 * w1 - w3 == 0.0:
        raise PoleError("omega3 = 2*omega1")
    return 0.125 * (-8.0 * c.b3
                    + 12.0 * c.a1 * c.a3 / w1
                    + c.a3 ** 2 / (w1 - 2.0 * w3)
                    + c.a2 ** 2 / (2.0 * w1 - w3)
                    + 6.0 * c.a2 * c.a4 / w3
                    + c.a2 ** 2 / (2.0 * w1 + w3)
                    + c.a3 ** 2 / (w1 + 2.0 * w3))


def k0022(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """Coefficient of (X2 Y2)^2; pole on omega1 = 2*omega3."""
    w1, w3 = freqs.omega1, freqs.omega3
    lead = w1 ** 2
    den = lead - 4.0 * w3 ** 2
    if den == 0.0:
        _raise_pole("K0022", lead, "omega1 = 2*omega3", freqs)
    return 0.125 * (-12.0 * c.b5
                    + 10.0 * c.a4 ** 2 / w3
                    + c.a3 ** 2 * (4.0 / w1 + 2.0 * w1 / den))


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


def _overflow(freqs: Frequencies, why: str = "an intermediate power is not a "
              "finite double") -> DeterminantOverflowError:
    return DeterminantOverflowError(
        f"determinant overflows at omega1={freqs.omega1!r}, "
        f"omega3={freqs.omega3!r} ({why})")


def d2_from_k(k2200: float, k1111: float, k0022: float, freqs: Frequencies) -> float:
    """Arnold determinant from the three resonant degree-4 coefficients.

    Raises DeterminantOverflowError (a ValueError) when the value, or a power
    of a frequency on the way to it, is not finite, so no nan or inf reaches
    a caller.
    """
    try:
        value = -(k2200 * freqs.omega3 ** 2
                  + k1111 * freqs.omega1 * freqs.omega3
                  + k0022 * freqs.omega1 ** 2)
    except OverflowError as err:
        raise _overflow(freqs) from err
    if not math.isfinite(value):
        raise _overflow(freqs, f"got {value!r}")
    return value


def d2_closed(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """-(k2200*w3^2 + k1111*w1*w3 + k0022*w1^2) from the tabulated coefficients.

    Raises DeterminantOverflowError as d2_from_k does, and also when a power
    of a coefficient inside the tabulated forms overflows.
    """
    try:
        return d2_from_k(k2200(c, freqs), k1111(c, freqs), k0022(c, freqs), freqs)
    except OverflowError as err:
        raise _overflow(freqs) from err
