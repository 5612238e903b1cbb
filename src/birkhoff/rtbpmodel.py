"""Radiating oblate restricted three-body model around the out-of-plane point.

Evaluates the truncated expansions of the model constants (a, c) and of the
cubic/quartic Hamiltonian coefficients (a1..a4, b1, b3, b5) in powers of
sqrt(A), builds the model Hamiltonian for the normal-form engine, evaluates
the stability determinant over frequency grids, and issues the stability
verdict.

The expansions are transcribed literally, term by term, from their tabulated
form; square roots of squares are simplified with sqrt(x^2) = |x| while the
sign structure of odd powers of (mu - 1) is kept as printed.  Each expansion
stops after the A^2 term.  a2 and a4 vanish at A = 0 (their expansions begin
at sqrt(A)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import median

from .closedform import CubicQuarticCoefficients, PoleError, d2_closed
from .polyalg import CanonicalPolynomial, Frequencies, GradedHamiltonian

_SQRT3 = math.sqrt(3.0)

#: expansions carry powers A^(h/2) for half-orders h in this range
HALF_ORDERS = (0, 1, 2, 3, 4)

#: largest oblateness for which the truncated expansions are considered
#: meaningful; larger values are accepted but evaluate the same arithmetic
SUPPORTED_A_MAX = 0.01

#: relative half-width of the guard bands drawn around the determinant's poles
#: in scans and verdicts (distinct from the engine's hard divisor tolerance)
RESONANCE_GUARD = 0.01

#: |D2| at or below this fraction of the scan's median |D2| flags a row as
#: degenerate when no explicit tolerance is given
DEGENERACY_FRACTION = 1e-6


class ModelDomainError(ValueError):
    """Model parameters outside the domain of the coefficient expansions."""


@dataclass(frozen=True)
class ModelParams:
    """Mass ratio, radiation factors of both primaries, and oblateness."""

    mu: float
    q: float
    Q: float
    A: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 < self.mu < 1.0):
            raise ModelDomainError(f"mu must lie strictly inside (0, 1), got {self.mu!r}")
        if not (math.isfinite(self.q) and 0.0 < self.q <= 1.0):
            raise ModelDomainError(f"q must lie in (0, 1], got {self.q!r}")
        if not (math.isfinite(self.Q) and 0.0 < self.Q <= 1.0):
            raise ModelDomainError(f"Q must lie in (0, 1], got {self.Q!r}")
        if not (math.isfinite(self.A) and self.A >= 0.0):
            raise ModelDomainError(f"A must be a finite non-negative real, got {self.A!r}")


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluated model constants and Hamiltonian coefficients."""

    a: float
    c: float
    a1: float
    a2: float
    a3: float
    a4: float
    b1: float
    b3: float
    b5: float

    def cubic_quartic(self) -> CubicQuarticCoefficients:
        return CubicQuarticCoefficients(
            a1=self.a1, a2=self.a2, a3=self.a3, a4=self.a4,
            b1=self.b1, b3=self.b3, b5=self.b5)


# -- expansion term tables ----------------------------------------------------
# Each _series_* returns {half_order: coefficient of A**(half_order/2)}.
# s1m stands for sqrt((1-mu)^2) == sqrt((-1+mu)^2) == |1-mu| and am for
# sqrt(mu^2) == |mu|; odd powers of (mu - 1) stay negative as printed.


def _series_a(mu, q, Q):
    return {
        0: 1.0 - mu,
        3: 6.0 * _SQRT3 * (1.0 - mu) * (1.0 - q) / (mu * Q),
    }


def _series_c(mu, q, Q):
    return {
        1: _SQRT3,
        4: -9.0 * (1.0 - mu) * q / (mu * Q),
    }


def _series_a1(mu, q, Q):
    s1m = abs(1.0 - mu)
    am = abs(mu)
    m1 = mu - 1.0
    h0 = ((-q * mu ** 4 + Q * s1m * am - 2.0 * Q * s1m * mu * am
           + Q * s1m * am ** 3)
          / (m1 ** 2 * s1m * mu ** 4))
    h2 = -(5.0 * (-3.0 * q * mu ** 6 + 2.0 * Q * s1m * am - 8.0 * Q * s1m * mu * am
                  - 8.0 * Q * s1m * mu ** 3 * am + 2.0 * Q * s1m * mu ** 4 * am
                  + 12.0 * Q * s1m * am ** 3)
           / (m1 ** 4 * s1m * mu ** 6))
    h3 = (24.0 * (_SQRT3 * q * mu ** 5 - _SQRT3 * q ** 2 * mu ** 5
                  + _SQRT3 * Q * s1m * am - _SQRT3 * q * Q * s1m * am
                  - 3.0 * _SQRT3 * Q * s1m * mu * am
                  + 3.0 * _SQRT3 * q * Q * s1m * mu * am
                  - _SQRT3 * Q * s1m * mu ** 3 * am
                  + _SQRT3 * q * Q * s1m * mu ** 3 * am
                  + 3.0 * _SQRT3 * Q * s1m * am ** 3
                  - 3.0 * _SQRT3 * q * Q * s1m * am ** 3)
          / (Q * m1 ** 2 * s1m * mu ** 6))
    h4 = -(945.0 * (q * mu ** 8 + Q * s1m * am - 6.0 * Q * s1m * mu * am
                    - 20.0 * Q * s1m * mu ** 3 * am + 15.0 * Q * s1m * mu ** 4 * am
                    - 6.0 * Q * s1m * mu ** 5 * am + Q * s1m * mu ** 6 * am
                    + 15.0 * Q * s1m * am ** 3)
           / (8.0 * m1 ** 6 * s1m * mu ** 8))
    return {0: h0, 2: h2, 3: h3, 4: h4}


def _series_a2(mu, q, Q):
    s1m = abs(1.0 - mu)
    am = abs(mu)
    m1 = mu - 1.0
    h1 = (-6.0 * _SQRT3 * q / s1m ** 5
          + 15.0 * _SQRT3 * q * mu / (2.0 * s1m ** 5)
          - 3.0 * _SQRT3 * q * s1m * mu / (2.0 * (1.0 - mu) ** 6)
          - 6.0 * _SQRT3 * Q * am / mu ** 5)
    h3 = -135.0 * _SQRT3 * q / (2.0 * m1 ** 5 * s1m)
    h4 = (54.0 * (-10.0 * q * mu ** 6 + 9.0 * q ** 2 * mu ** 6 + q ** 2 * mu ** 7
                  + 10.0 * Q * s1m * am - 10.0 * q * Q * s1m * am
                  - 40.0 * Q * s1m * mu * am + 39.0 * q * Q * s1m * mu * am
                  - 40.0 * Q * s1m * mu ** 3 * am + 34.0 * q * Q * s1m * mu ** 3 * am
                  + 10.0 * Q * s1m * mu ** 4 * am - 6.0 * q * Q * s1m * mu ** 4 * am
                  - q * Q * s1m * mu ** 5 * am
                  + 60.0 * Q * s1m * am ** 3 - 56.0 * q * Q * s1m * am ** 3)
          / (Q * m1 ** 3 * s1m * mu ** 7))
    return {1: h1, 3: h3, 4: h4}


def _series_a3(mu, q, Q):
    s1m = abs(1.0 - mu)
    am = abs(mu)
    h0 = (3.0 * q * (1.0 - mu) / (2.0 * s1m ** 5)
          - 3.0 * q * (1.0 - mu) * mu / (2.0 * s1m ** 5)
          - 3.0 * Q * am / (2.0 * mu ** 4))
    h2 = (-45.0 * q * (1.0 - mu) / (2.0 * s1m ** 7)
          - 45.0 * q / (4.0 * (1.0 - mu) * s1m ** 5)
          + 45.0 * q * (1.0 - mu) * mu / (2.0 * s1m ** 7)
          + 45.0 * q * mu / (4.0 * (1.0 - mu) * s1m ** 5)
          + 45.0 * Q * am / (2.0 * mu ** 6))
    h3 = (36.0 * _SQRT3 * (1.0 - q) * q * (1.0 - mu) / (Q * s1m ** 5)
          - 36.0 * _SQRT3 * (1.0 - q) * q * (1.0 - mu) / (Q * s1m ** 5 * mu)
          - 36.0 * _SQRT3 * am / mu ** 6
          + 36.0 * _SQRT3 * q * am / mu ** 6
          + 36.0 * _SQRT3 * am / mu ** 5
          - 36.0 * _SQRT3 * q * am / mu ** 5)
    h4 = (945.0 * q / (4.0 * (1.0 - mu) * s1m ** 7)
          + 945.0 * q / (16.0 * (1.0 - mu) ** 3 * s1m ** 5)
          - 945.0 * q * mu / (4.0 * (1.0 - mu) * s1m ** 7)
          - 945.0 * q * mu / (16.0 * (1.0 - mu) ** 3 * s1m ** 5)
          + 4725.0 * Q * am / (16.0 * mu ** 8))
    return {0: h0, 2: h2, 3: h3, 4: h4}


def _series_a4(mu, q, Q):
    s1m = abs(1.0 - mu)
    am = abs(mu)
    m1 = mu - 1.0
    h1 = (3.0 * _SQRT3 * q / (2.0 * s1m ** 5)
          - 3.0 * _SQRT3 * q * s1m * mu / (2.0 * (1.0 - mu) ** 6)
          + 3.0 * _SQRT3 * Q * am / (2.0 * mu ** 5))
    h3 = 75.0 * _SQRT3 * q / (4.0 * m1 ** 5 * s1m)
    h4 = (1.5 * q * ((9.0 * q / Q - 9.0 * q / (Q * mu)) / s1m ** 5
                     - 90.0 * (1.0 - q) / (Q * s1m ** 5 * mu))
          + 135.0 * q * s1m / (Q * (1.0 - mu) ** 6)
          - 243.0 * q ** 2 * s1m / (2.0 * Q * (1.0 - mu) ** 6)
          - 27.0 * q ** 2 * s1m * mu / (2.0 * Q * (1.0 - mu) ** 6)
          + 135.0 * am / mu ** 7
          - 135.0 * q * am / mu ** 7
          - 135.0 * am / mu ** 6
          + 243.0 * q * am / (2.0 * mu ** 6)
          + 27.0 * q * am / (2.0 * mu ** 5))
    return {1: h1, 3: h3, 4: h4}


def _mixed_inner_cubic(mu, q, Q, s1m, am):
    # shared numerator of the sqrt(A)^3 corrections of b1 and b3
    return (_SQRT3 * q * mu ** 6 - _SQRT3 * q ** 2 * mu ** 6
            - _SQRT3 * Q * s1m * am + _SQRT3 * q * Q * s1m * am
            + 4.0 * _SQRT3 * Q * s1m * mu * am - 4.0 * _SQRT3 * q * Q * s1m * mu * am
            + 4.0 * _SQRT3 * Q * s1m * mu ** 3 * am
            - 4.0 * _SQRT3 * q * Q * s1m * mu ** 3 * am
            - _SQRT3 * Q * s1m * mu ** 4 * am + _SQRT3 * q * Q * s1m * mu ** 4 * am
            - 6.0 * _SQRT3 * Q * s1m * am ** 3 + 6.0 * _SQRT3 * q * Q * s1m * am ** 3)


def _mixed_inner_quartic(mu, q, Q, s1m, am):
    # shared numerator of the A^2 corrections of b1 and b3
    return (q * mu ** 9 - Q * s1m * am + 7.0 * Q * s1m * mu * am
            + 35.0 * Q * s1m * mu ** 3 * am - 35.0 * Q * s1m * mu ** 4 * am
            + 21.0 * Q * s1m * mu ** 5 * am - 7.0 * Q * s1m * mu ** 6 * am
            + Q * s1m * mu ** 7 * am - 21.0 * Q * s1m * am ** 3)


def _series_b1(mu, q, Q):
    s1m = abs(1.0 - mu)
    am = abs(mu)
    m1 = mu - 1.0
    h0 = ((-q * mu ** 5 - Q * s1m * am + 3.0 * Q * s1m * mu * am
           + Q * s1m * mu ** 3 * am - 3.0 * Q * s1m * am ** 3)
          / (m1 ** 3 * s1m * mu ** 5))
    h2 = -(15.0 * (-3.0 * q * mu ** 7 - 2.0 * Q * s1m * am + 10.0 * Q * s1m * mu * am
                   + 20.0 * Q * s1m * mu ** 3 * am - 10.0 * Q * s1m * mu ** 4 * am
                   + 2.0 * Q * s1m * mu ** 5 * am - 20.0 * Q * s1m * am ** 3)
           / (2.0 * m1 ** 5 * s1m * mu ** 7))
    h3 = 30.0 * _mixed_inner_cubic(mu, q, Q, s1m, am) / (Q * m1 ** 3 * s1m * mu ** 7)
    h4 = -(945.0 * _mixed_inner_quartic(mu, q, Q, s1m, am)
           / (4.0 * m1 ** 7 * s1m * mu ** 9))
    return {0: h0, 2: h2, 3: h3, 4: h4}


def _series_b3(mu, q, Q):
    s1m = abs(1.0 - mu)
    am = abs(mu)
    m1 = mu - 1.0
    h0 = (-3.0 * q / s1m ** 5
          + 3.0 * q * mu / s1m ** 5
          + 15.0 * Q * am / (4.0 * mu ** 7)
          - 15.0 * Q * (1.0 - mu) ** 2 * am / (4.0 * mu ** 7)
          - 15.0 * Q * am / (2.0 * mu ** 6)
          + 3.0 * Q * am / (4.0 * mu ** 5))
    h2 = (945.0 * q / (8.0 * s1m ** 7)
          - 45.0 * q / (8.0 * (1.0 - mu) ** 2 * s1m ** 5)
          - 45.0 * q * s1m / (4.0 * (1.0 - mu) ** 8)
          - 945.0 * q * mu / (8.0 * s1m ** 7)
          + 45.0 * q * mu / (8.0 * (1.0 - mu) ** 2 * s1m ** 5)
          + 45.0 * q * s1m * mu / (4.0 * (1.0 - mu) ** 8)
          + 135.0 * Q * am / (2.0 * mu ** 7))
    h3 = -90.0 * _mixed_inner_cubic(mu, q, Q, s1m, am) / (Q * m1 ** 3 * s1m * mu ** 7)
    h4 = (4725.0 * _mixed_inner_quartic(mu, q, Q, s1m, am)
          / (4.0 * m1 ** 7 * s1m * mu ** 9))
    return {0: h0, 2: h2, 3: h3, 4: h4}


def _series_b5(mu, q, Q):
    s1m = abs(1.0 - mu)
    am = abs(mu)
    h0 = (3.0 * q / (8.0 * s1m ** 5)
          - 3.0 * q * mu / (8.0 * s1m ** 5)
          + 3.0 * Q * am / (8.0 * mu ** 5))
    h2 = (-45.0 * q / (16.0 * (1.0 - mu) ** 2 * s1m ** 5)
          - 45.0 * q * s1m / (4.0 * (1.0 - mu) ** 8)
          + 45.0 * q * mu / (16.0 * (1.0 - mu) ** 2 * s1m ** 5)
          + 45.0 * q * s1m * mu / (4.0 * (1.0 - mu) ** 8)
          - 75.0 * Q * am / (8.0 * mu ** 7))
    h3 = (45.0 * _SQRT3 * (1.0 - q) * q / (4.0 * Q * s1m ** 5)
          - 45.0 * _SQRT3 * (1.0 - q) * q / (4.0 * Q * s1m ** 5 * mu)
          + 45.0 * _SQRT3 * am / (4.0 * mu ** 7)
          - 45.0 * _SQRT3 * q * am / (4.0 * mu ** 7)
          - 45.0 * _SQRT3 * am / (4.0 * mu ** 6)
          + 45.0 * _SQRT3 * q * am / (4.0 * mu ** 6))
    h4 = (945.0 * q / (64.0 * (1.0 - mu) ** 4 * s1m ** 5)
          + 315.0 * q * s1m / (2.0 * (1.0 - mu) ** 10)
          - 945.0 * q * mu / (64.0 * (1.0 - mu) ** 4 * s1m ** 5)
          - 315.0 * q * s1m * mu / (2.0 * (1.0 - mu) ** 10)
          - 11025.0 * Q * am / (64.0 * mu ** 9))
    return {0: h0, 2: h2, 3: h3, 4: h4}


_SERIES = {
    "a": _series_a,
    "c": _series_c,
    "a1": _series_a1,
    "a2": _series_a2,
    "a3": _series_a3,
    "a4": _series_a4,
    "b1": _series_b1,
    "b3": _series_b3,
    "b5": _series_b5,
}


def coefficient_series(params: ModelParams) -> dict[str, dict[int, float]]:
    """Per-half-order expansion coefficients for every model quantity.

    The returned inner mappings give the coefficient of A**(h/2) for each
    half-order h present in the corresponding expansion.
    """
    return {name: fn(params.mu, params.q, params.Q) for name, fn in _SERIES.items()}


def coefficients(params: ModelParams,
                 max_half_order: int | None = None) -> CoefficientSet:
    """Evaluate every expansion at the model's oblateness.

    max_half_order keeps only terms A**(h/2) with h up to the given bound
    (0 keeps the oblateness-independent sector, 2 truncates after the A term,
    None keeps everything tabulated).
    """
    if max_half_order is None:
        max_half_order = HALF_ORDERS[-1]
    table = coefficient_series(params)
    values = {}
    for name, orders in table.items():
        values[name] = sum(
            coeff * params.A ** (h / 2.0)
            for h, coeff in sorted(orders.items()) if h <= max_half_order)
    return CoefficientSet(**values)


def build_model_hamiltonian(coeffs, freqs: Frequencies) -> GradedHamiltonian:
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
    parts = {2: h2}
    if not h3.is_zero:
        parts[3] = h3
    if not h4.is_zero:
        parts[4] = h4
    return GradedHamiltonian(parts, freqs)


# -- determinant evaluation and verdicts --------------------------------------

_POLE_RELATIONS = (
    ("omega3 = 2*omega1", lambda w1, w3: 2.0 * w1 - w3),
    ("omega1 = 2*omega3", lambda w1, w3: w1 - 2.0 * w3),
)

# low-order resonances that do not produce determinant poles but void the
# stability criterion's hypotheses when hit essentially exactly
_NONPOLE_RESONANCES = (
    ("omega1 = omega3", lambda w1, w3: w1 - w3),
    ("omega3 = 3*omega1", lambda w1, w3: 3.0 * w1 - w3),
    ("omega1 = 3*omega3", lambda w1, w3: w1 - 3.0 * w3),
)


@dataclass(frozen=True)
class D2Result:
    """Determinant value with pole-proximity metadata."""

    value: float
    flags: tuple[str, ...]
    coefficients: CoefficientSet

    @property
    def near_pole(self) -> bool:
        return any(f.startswith("pole:") for f in self.flags)


def _pole_flags(omega1: float, omega3: float) -> tuple[str, ...]:
    guard = RESONANCE_GUARD * omega3
    flags = []
    for name, gap in _POLE_RELATIONS:
        if abs(gap(omega1, omega3)) < guard:
            flags.append(f"pole:{name}")
    if omega1 < guard:
        flags.append("pole:omega1 = 0")
    return tuple(flags)


def _d2_point(cq: CubicQuarticCoefficients, omega1: float,
              omega3: float) -> tuple[float, tuple[str, ...]]:
    """Determinant and pole flags at one frequency pair from evaluated coefficients.

    An exactly-on-pole pair does not raise: the value is computed at the
    adjacent representable omega1 instead and the pair carries the pole flag.
    """
    freqs = Frequencies(omega1, omega3)
    flags = _pole_flags(omega1, omega3)
    try:
        value = d2_closed(cq, freqs)
    except PoleError as err:
        nudged = Frequencies(math.nextafter(omega1, math.inf), omega3)
        value = d2_closed(cq, nudged)
        if not flags:
            flags = (f"pole:{err.relation}",)
    return value, flags


def d2_eval(params: ModelParams, omega1: float, omega3: float,
            max_half_order: int | None = None) -> D2Result:
    """Evaluate the determinant at one frequency pair, flagging pole proximity.

    An exactly-on-pole pair does not raise: the value is computed at the
    adjacent representable omega1 instead and the row carries the pole flag.
    """
    coeffs = coefficients(params, max_half_order)
    value, flags = _d2_point(coeffs.cubic_quartic(), omega1, omega3)
    return D2Result(value=value, flags=flags, coefficients=coeffs)


def _degeneracy_cut(d2_tolerance: float | None, magnitudes) -> float:
    """The |D2| at or below which a value is degenerate.

    None takes DEGENERACY_FRACTION of the median of magnitudes (a tiny floor
    when that median is 0); an explicit tolerance that is not a positive
    finite real raises ValueError.
    """
    if d2_tolerance is None:
        scale = median(magnitudes)
        return DEGENERACY_FRACTION * scale if scale > 0 else 1e-300
    if not (math.isfinite(d2_tolerance) and d2_tolerance > 0):
        raise ValueError(
            f"d2_tolerance must be a positive finite real, got {d2_tolerance!r}")
    return d2_tolerance


class StabilityStatus(str, Enum):
    STABLE = "stable"
    RESONANT = "resonant"
    DEGENERATE = "degenerate"
    POLE = "pole"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the determinant-based stability test at one frequency pair."""

    status: StabilityStatus
    d2: float
    omega1: float
    omega3: float
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "D2": self.d2,
            "omega1": self.omega1,
            "omega3": self.omega3,
            "notes": list(self.notes),
        }


def verdict_from_d2(d2: float, omega1: float, omega3: float,
                    d2_tolerance: float | None,
                    pole_flags: tuple[str, ...] = (),
                    divisor_tolerance: float | None = None) -> StabilityVerdict:
    """Classify one evaluated determinant value.

    stable requires |D2| above tolerance, frequencies outside the pole guard
    bands, and no essentially exact low-order resonance.  A tolerance of None
    is DEGENERACY_FRACTION of |D2| itself (a single point has no grid to take
    a median over), so only an exact zero is then reported degenerate; an
    explicit tolerance must be a positive finite real.
    """
    d2_tolerance = _degeneracy_cut(d2_tolerance, (abs(d2),))
    if divisor_tolerance is None:
        divisor_tolerance = 1e-9 * max(omega1, omega3)
    notes = list(pole_flags)
    if pole_flags:
        status = StabilityStatus.POLE
    else:
        exact = [name for name, gap in _NONPOLE_RESONANCES + _POLE_RELATIONS
                 if abs(gap(omega1, omega3)) < divisor_tolerance]
        if exact:
            status = StabilityStatus.RESONANT
            notes.extend(f"resonance:{name}" for name in exact)
        elif abs(d2) <= d2_tolerance:
            status = StabilityStatus.DEGENERATE
            notes.append(f"abs(D2)={abs(d2):.6g} <= tolerance={d2_tolerance:.6g}")
        else:
            status = StabilityStatus.STABLE
            notes.append(f"abs(D2)={abs(d2):.6g} > tolerance={d2_tolerance:.6g}")
    return StabilityVerdict(status=status, d2=d2, omega1=omega1, omega3=omega3,
                            notes=tuple(notes))


def stability_verdict(params: ModelParams, omega1: float, omega3: float,
                      d2_tolerance: float | None = None,
                      max_half_order: int | None = None) -> StabilityVerdict:
    """Evaluate the model at one frequency pair and classify the outcome.

    Without an explicit tolerance the degeneracy cut is the single-point rule
    of verdict_from_d2.
    """
    result = d2_eval(params, omega1, omega3, max_half_order)
    return verdict_from_d2(result.value, omega1, omega3, d2_tolerance,
                           pole_flags=result.flags)


@dataclass(frozen=True)
class ScanRow:
    omega1: float
    d2: float
    flag: str  # "ok" | "pole" | "degenerate"


def scan_omega1(params: ModelParams, omega3: float, lo: float, hi: float,
                steps: int, d2_tolerance: float | None = None,
                max_half_order: int | None = None) -> list[ScanRow]:
    """Uniform scan of the determinant over omega1 in [lo, hi], endpoints included.

    Rows inside the pole guard bands are flagged rather than dropped; rows with
    |D2| at or below the degeneracy tolerance (default: DEGENERACY_FRACTION of
    the scan's median |D2|; an explicit one must be a positive finite real)
    are flagged degenerate.  The model coefficients do
    not depend on omega1, so they are evaluated once for the whole grid; each
    row then matches d2_eval at the same omega1.
    """
    if not (0.0 < lo < hi):
        raise ValueError("grid needs 0 < lo < hi")
    if steps < 2:
        raise ValueError("grid needs at least 2 steps")
    step = (hi - lo) / (steps - 1)
    grid = [lo + k * step for k in range(steps - 1)] + [hi]

    cq = coefficients(params, max_half_order).cubic_quartic()
    results = [_d2_point(cq, w, omega3) for w in grid]

    # d2_closed never returns a non-finite value, and the grid is not empty
    d2_tolerance = _degeneracy_cut(d2_tolerance, (abs(value) for value, _ in results))

    rows = []
    for w, (value, flags) in zip(grid, results):
        # _d2_point returns pole flags only
        if flags:
            flag = "pole"
        elif abs(value) <= d2_tolerance:
            flag = "degenerate"
        else:
            flag = "ok"
        rows.append(ScanRow(omega1=w, d2=value, flag=flag))
    return rows
