"""Tabulated degree-4 normal-form coefficients for the cubic/quartic model.

These are the closed forms tabulated for a Hamiltonian whose cubic part is
a1*u^3 + a2*u^2*v + a3*u*v^2 + a4*v^3 and whose quartic part is
b1*u^4 + b3*u^2*v^2 + b5*v^4 on top of two harmonic modes.  They are kept
verbatim as the fast path for parameter scans and as the compatibility target
for reproducing historical stability curves.

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
from dataclasses import dataclass, fields

from .polyalg import Frequencies

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


def k2200(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """Coefficient of (X1 Y1)^2; pole on omega3 = 2*omega1."""
    w1, w3 = freqs.omega1, freqs.omega3
    den = 16.0 * w1 ** 3 * w3 - 4.0 * w1 * w3 ** 3
    if den == 0.0:
        raise PoleError("omega3 = 2*omega1")
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
    den = w1 ** 2 - 4.0 * w3 ** 2
    if den == 0.0:
        raise PoleError("omega1 = 2*omega3")
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


def d2_from_k(k2200: float, k1111: float, k0022: float, freqs: Frequencies) -> float:
    """Arnold determinant from the three resonant degree-4 coefficients."""
    return -(k2200 * freqs.omega3 ** 2
             + k1111 * freqs.omega1 * freqs.omega3
             + k0022 * freqs.omega1 ** 2)


def d2_closed(c: CubicQuarticCoefficients, freqs: Frequencies) -> float:
    """-(k2200*w3^2 + k1111*w1*w3 + k0022*w1^2) from the tabulated coefficients.

    Raises DeterminantOverflowError (a ValueError) when the composed value is
    not finite, so no nan or inf reaches a caller.
    """
    value = d2_from_k(k2200(c, freqs), k1111(c, freqs), k0022(c, freqs), freqs)
    if not math.isfinite(value):
        raise DeterminantOverflowError(
            f"determinant overflows at omega1={freqs.omega1!r}, "
            f"omega3={freqs.omega3!r} (got {value!r})")
    return value
