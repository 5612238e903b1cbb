"""Radiating oblate restricted three-body model around the out-of-plane point.

Evaluates the truncated expansions of the model constants (a, c) and of the
cubic/quartic Hamiltonian coefficients (a1..a4, b1, b3, b5) in powers of
sqrt(A), evaluates the stability determinant over frequency grids, and issues
the stability verdict.  A verdict and a scan row are classified by one
rule, in _status: pole guard band, exact low-order resonance, then |D2|
against the degeneracy cut.  The model Hamiltonian itself is built by
:func:`birkhoff.closedform.build_model_hamiltonian`.

The expansions are transcribed literally, term by term, from their tabulated
form; square roots of squares are simplified with sqrt(x^2) = |x| while the
sign structure of odd powers of (mu - 1) is kept as printed.  Each expansion
stops after the A^2 term.  a2 and a4 vanish at A = 0 (their expansions begin
at sqrt(A)).  All nine are written in the one body of coefficient_series,
which takes each distinct power once and the two numerators that b1 and b3
share once; nothing else is regrouped, so every term keeps the value it has
as printed, bit for bit.  coefficients takes each power of sqrt(A) it needs
once.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from enum import Enum
from typing import Callable, Iterator, NamedTuple

from .closedform import (CubicQuarticCoefficients, DeterminantOverflowError,
                         PoleError, tabulated_kernel)
from .normalform import DIVISOR_REL_TOL
from .polyalg import check_frequency, checked_record, is_finite_real

_SQRT3 = math.sqrt(3.0)

#: expansions carry powers A^(h/2) for half-orders h in this range
HALF_ORDERS = (0, 1, 2, 3, 4)

#: relative half-width of the guard bands drawn around the determinant's poles
#: in scans and verdicts (distinct from the engine's hard divisor tolerance)
RESONANCE_GUARD = 0.01

#: |D2| at or below this fraction of the scan's median |D2| flags a row as
#: degenerate when no explicit tolerance is given
DEGENERACY_FRACTION = 1e-6

#: |D2| values sorted at a time when a scan takes its median; bounds the
#: transient list of float objects that sorting builds
MEDIAN_CHUNK = 1 << 16


class ModelDomainError(ValueError):
    """Model parameters outside the domain of the coefficient expansions."""


class ModelParams(checked_record("ModelParams", "mu q Q A")):
    """Mass ratio, radiation factors of both primaries, and oblateness."""

    __slots__ = ()

    def __new__(cls, mu: float, q: float, Q: float, A: float):
        if not (is_finite_real(mu) and 0.0 < mu < 1.0):
            raise ModelDomainError(f"mu must lie strictly inside (0, 1), got {mu!r}")
        if not (is_finite_real(q) and 0.0 < q <= 1.0):
            raise ModelDomainError(f"q must lie in (0, 1], got {q!r}")
        if not (is_finite_real(Q) and 0.0 < Q <= 1.0):
            raise ModelDomainError(f"Q must lie in (0, 1], got {Q!r}")
        if not (is_finite_real(A) and A >= 0.0):
            raise ModelDomainError(f"A must be a finite non-negative real, got {A!r}")
        return tuple.__new__(cls, (mu, q, Q, A))


class CoefficientSet(checked_record(
        "CoefficientSet", CubicQuarticCoefficients._fields + ("a", "c"), defaults=(0.0,) * 9),
        CubicQuarticCoefficients):
    """Evaluated Hamiltonian coefficients and the model constants a and c.

    The fields are a1..b5, in CubicQuarticCoefficients' order, then a and c;
    every one of them must be finite.
    """

    __slots__ = ()

    def __new__(cls, a1: float = 0.0, a2: float = 0.0, a3: float = 0.0, a4: float = 0.0,
                b1: float = 0.0, b3: float = 0.0, b5: float = 0.0,
                a: float = 0.0, c: float = 0.0):
        return cls._finite((a1, a2, a3, a4, b1, b3, b5, a, c))

    def cubic_quartic(self) -> CubicQuarticCoefficients:
        return self


# -- expansion term tables ----------------------------------------------------

def coefficient_series(params: ModelParams) -> dict[str, dict[int, float]]:
    """Per-half-order expansion coefficients for every model quantity.

    The returned inner mappings give the coefficient of A**(h/2) for each
    half-order h present in the corresponding expansion, in ascending h.  A
    mass ratio or radiation factor so small that a denominator underflows to
    0 raises ModelDomainError; a quotient that overflows is left infinite,
    and coefficients rejects any sum it enters.
    """
    mu, q, Q = params.mu, params.q, params.Q
    # s1m stands for sqrt((1-mu)^2) == sqrt((-1+mu)^2) == |1-mu|, am for
    # sqrt(mu^2) == |mu| and m1 for mu - 1, whose odd powers stay negative as
    # printed.  Each power the tables use is taken once, here, and named by
    # base and exponent (one_mu6 is (1 - mu)**6, kept apart from s1m as
    # printed); every base lies in (-1, 1], so none of them can overflow.
    s1m, am, m1 = abs(1.0 - mu), abs(mu), mu - 1.0
    mu3, mu4, mu5, mu6, mu7, mu8, mu9 = (
        mu ** 3, mu ** 4, mu ** 5, mu ** 6, mu ** 7, mu ** 8, mu ** 9)
    s1m5, s1m7, am3, q2 = s1m ** 5, s1m ** 7, am ** 3, q ** 2
    m1_2, m1_3, m1_4, m1_5, m1_6, m1_7 = (
        m1 ** 2, m1 ** 3, m1 ** 4, m1 ** 5, m1 ** 6, m1 ** 7)
    one_mu2, one_mu3, one_mu4, one_mu6, one_mu8, one_mu10 = (
        (1.0 - mu) ** 2, (1.0 - mu) ** 3, (1.0 - mu) ** 4,
        (1.0 - mu) ** 6, (1.0 - mu) ** 8, (1.0 - mu) ** 10)
    # shared numerator of the sqrt(A)^3 corrections of b1 and b3
    mixed_cubic = (_SQRT3 * q * mu6 - _SQRT3 * q2 * mu6
                   - _SQRT3 * Q * s1m * am + _SQRT3 * q * Q * s1m * am
                   + 4.0 * _SQRT3 * Q * s1m * mu * am
                   - 4.0 * _SQRT3 * q * Q * s1m * mu * am
                   + 4.0 * _SQRT3 * Q * s1m * mu3 * am
                   - 4.0 * _SQRT3 * q * Q * s1m * mu3 * am
                   - _SQRT3 * Q * s1m * mu4 * am + _SQRT3 * q * Q * s1m * mu4 * am
                   - 6.0 * _SQRT3 * Q * s1m * am3 + 6.0 * _SQRT3 * q * Q * s1m * am3)
    # shared numerator of the A^2 corrections of b1 and b3
    mixed_quartic = (q * mu9 - Q * s1m * am + 7.0 * Q * s1m * mu * am
                     + 35.0 * Q * s1m * mu3 * am - 35.0 * Q * s1m * mu4 * am
                     + 21.0 * Q * s1m * mu5 * am - 7.0 * Q * s1m * mu6 * am
                     + Q * s1m * mu7 * am - 21.0 * Q * s1m * am3)
    try:
        return {
            "a": {
                0: 1.0 - mu,
                3: 6.0 * _SQRT3 * (1.0 - mu) * (1.0 - q) / (mu * Q),
            },
            "c": {
                1: _SQRT3,
                4: -9.0 * (1.0 - mu) * q / (mu * Q),
            },
            "a1": {
                0: ((-q * mu4 + Q * s1m * am - 2.0 * Q * s1m * mu * am
                     + Q * s1m * am3)
                    / (m1_2 * s1m * mu4)),
                2: -(5.0 * (-3.0 * q * mu6 + 2.0 * Q * s1m * am - 8.0 * Q * s1m * mu * am
                            - 8.0 * Q * s1m * mu3 * am + 2.0 * Q * s1m * mu4 * am
                            + 12.0 * Q * s1m * am3)
                     / (m1_4 * s1m * mu6)),
                3: (24.0 * (_SQRT3 * q * mu5 - _SQRT3 * q2 * mu5
                            + _SQRT3 * Q * s1m * am - _SQRT3 * q * Q * s1m * am
                            - 3.0 * _SQRT3 * Q * s1m * mu * am
                            + 3.0 * _SQRT3 * q * Q * s1m * mu * am
                            - _SQRT3 * Q * s1m * mu3 * am
                            + _SQRT3 * q * Q * s1m * mu3 * am
                            + 3.0 * _SQRT3 * Q * s1m * am3
                            - 3.0 * _SQRT3 * q * Q * s1m * am3)
                    / (Q * m1_2 * s1m * mu6)),
                4: -(945.0 * (q * mu8 + Q * s1m * am - 6.0 * Q * s1m * mu * am
                              - 20.0 * Q * s1m * mu3 * am + 15.0 * Q * s1m * mu4 * am
                              - 6.0 * Q * s1m * mu5 * am + Q * s1m * mu6 * am
                              + 15.0 * Q * s1m * am3)
                     / (8.0 * m1_6 * s1m * mu8)),
            },
            "a2": {
                1: (-6.0 * _SQRT3 * q / s1m5
                    + 15.0 * _SQRT3 * q * mu / (2.0 * s1m5)
                    - 3.0 * _SQRT3 * q * s1m * mu / (2.0 * one_mu6)
                    - 6.0 * _SQRT3 * Q * am / mu5),
                3: -135.0 * _SQRT3 * q / (2.0 * m1_5 * s1m),
                4: (54.0 * (-10.0 * q * mu6 + 9.0 * q2 * mu6 + q2 * mu7
                            + 10.0 * Q * s1m * am - 10.0 * q * Q * s1m * am
                            - 40.0 * Q * s1m * mu * am + 39.0 * q * Q * s1m * mu * am
                            - 40.0 * Q * s1m * mu3 * am + 34.0 * q * Q * s1m * mu3 * am
                            + 10.0 * Q * s1m * mu4 * am - 6.0 * q * Q * s1m * mu4 * am
                            - q * Q * s1m * mu5 * am
                            + 60.0 * Q * s1m * am3 - 56.0 * q * Q * s1m * am3)
                    / (Q * m1_3 * s1m * mu7)),
            },
            "a3": {
                0: (3.0 * q * (1.0 - mu) / (2.0 * s1m5)
                    - 3.0 * q * (1.0 - mu) * mu / (2.0 * s1m5)
                    - 3.0 * Q * am / (2.0 * mu4)),
                2: (-45.0 * q * (1.0 - mu) / (2.0 * s1m7)
                    - 45.0 * q / (4.0 * (1.0 - mu) * s1m5)
                    + 45.0 * q * (1.0 - mu) * mu / (2.0 * s1m7)
                    + 45.0 * q * mu / (4.0 * (1.0 - mu) * s1m5)
                    + 45.0 * Q * am / (2.0 * mu6)),
                3: (36.0 * _SQRT3 * (1.0 - q) * q * (1.0 - mu) / (Q * s1m5)
                    - 36.0 * _SQRT3 * (1.0 - q) * q * (1.0 - mu) / (Q * s1m5 * mu)
                    - 36.0 * _SQRT3 * am / mu6
                    + 36.0 * _SQRT3 * q * am / mu6
                    + 36.0 * _SQRT3 * am / mu5
                    - 36.0 * _SQRT3 * q * am / mu5),
                4: (945.0 * q / (4.0 * (1.0 - mu) * s1m7)
                    + 945.0 * q / (16.0 * one_mu3 * s1m5)
                    - 945.0 * q * mu / (4.0 * (1.0 - mu) * s1m7)
                    - 945.0 * q * mu / (16.0 * one_mu3 * s1m5)
                    + 4725.0 * Q * am / (16.0 * mu8)),
            },
            "a4": {
                1: (3.0 * _SQRT3 * q / (2.0 * s1m5)
                    - 3.0 * _SQRT3 * q * s1m * mu / (2.0 * one_mu6)
                    + 3.0 * _SQRT3 * Q * am / (2.0 * mu5)),
                3: 75.0 * _SQRT3 * q / (4.0 * m1_5 * s1m),
                4: (1.5 * q * ((9.0 * q / Q - 9.0 * q / (Q * mu)) / s1m5
                               - 90.0 * (1.0 - q) / (Q * s1m5 * mu))
                    + 135.0 * q * s1m / (Q * one_mu6)
                    - 243.0 * q2 * s1m / (2.0 * Q * one_mu6)
                    - 27.0 * q2 * s1m * mu / (2.0 * Q * one_mu6)
                    + 135.0 * am / mu7
                    - 135.0 * q * am / mu7
                    - 135.0 * am / mu6
                    + 243.0 * q * am / (2.0 * mu6)
                    + 27.0 * q * am / (2.0 * mu5)),
            },
            "b1": {
                0: ((-q * mu5 - Q * s1m * am + 3.0 * Q * s1m * mu * am
                     + Q * s1m * mu3 * am - 3.0 * Q * s1m * am3)
                    / (m1_3 * s1m * mu5)),
                2: -(15.0 * (-3.0 * q * mu7 - 2.0 * Q * s1m * am + 10.0 * Q * s1m * mu * am
                             + 20.0 * Q * s1m * mu3 * am - 10.0 * Q * s1m * mu4 * am
                             + 2.0 * Q * s1m * mu5 * am - 20.0 * Q * s1m * am3)
                     / (2.0 * m1_5 * s1m * mu7)),
                3: 30.0 * mixed_cubic / (Q * m1_3 * s1m * mu7),
                4: -(945.0 * mixed_quartic / (4.0 * m1_7 * s1m * mu9)),
            },
            "b3": {
                0: (-3.0 * q / s1m5
                    + 3.0 * q * mu / s1m5
                    + 15.0 * Q * am / (4.0 * mu7)
                    - 15.0 * Q * one_mu2 * am / (4.0 * mu7)
                    - 15.0 * Q * am / (2.0 * mu6)
                    + 3.0 * Q * am / (4.0 * mu5)),
                2: (945.0 * q / (8.0 * s1m7)
                    - 45.0 * q / (8.0 * one_mu2 * s1m5)
                    - 45.0 * q * s1m / (4.0 * one_mu8)
                    - 945.0 * q * mu / (8.0 * s1m7)
                    + 45.0 * q * mu / (8.0 * one_mu2 * s1m5)
                    + 45.0 * q * s1m * mu / (4.0 * one_mu8)
                    + 135.0 * Q * am / (2.0 * mu7)),
                3: -90.0 * mixed_cubic / (Q * m1_3 * s1m * mu7),
                4: 4725.0 * mixed_quartic / (4.0 * m1_7 * s1m * mu9),
            },
            "b5": {
                0: (3.0 * q / (8.0 * s1m5)
                    - 3.0 * q * mu / (8.0 * s1m5)
                    + 3.0 * Q * am / (8.0 * mu5)),
                2: (-45.0 * q / (16.0 * one_mu2 * s1m5)
                    - 45.0 * q * s1m / (4.0 * one_mu8)
                    + 45.0 * q * mu / (16.0 * one_mu2 * s1m5)
                    + 45.0 * q * s1m * mu / (4.0 * one_mu8)
                    - 75.0 * Q * am / (8.0 * mu7)),
                3: (45.0 * _SQRT3 * (1.0 - q) * q / (4.0 * Q * s1m5)
                    - 45.0 * _SQRT3 * (1.0 - q) * q / (4.0 * Q * s1m5 * mu)
                    + 45.0 * _SQRT3 * am / (4.0 * mu7)
                    - 45.0 * _SQRT3 * q * am / (4.0 * mu7)
                    - 45.0 * _SQRT3 * am / (4.0 * mu6)
                    + 45.0 * _SQRT3 * q * am / (4.0 * mu6)),
                4: (945.0 * q / (64.0 * one_mu4 * s1m5)
                    + 315.0 * q * s1m / (2.0 * one_mu10)
                    - 945.0 * q * mu / (64.0 * one_mu4 * s1m5)
                    - 315.0 * q * s1m * mu / (2.0 * one_mu10)
                    - 11025.0 * Q * am / (64.0 * mu9)),
            },
        }
    except ZeroDivisionError as err:
        raise ModelDomainError(
            f"the expansions are not representable as doubles at "
            f"(mu, q, Q) = ({mu!r}, {q!r}, {Q!r}): {err}") from err


def coefficients(params: ModelParams,
                 max_half_order: int | None = None) -> CoefficientSet:
    """Evaluate every expansion at the model's oblateness.

    max_half_order keeps only terms A**(h/2) with h up to the given bound
    (0 keeps the oblateness-independent sector, 2 truncates after the A term,
    None keeps everything tabulated); a bound that is not a non-negative int
    (a bool is not one) raises ValueError.  A sum that is not finite raises
    ModelDomainError naming the model point.
    """
    if max_half_order is None:
        max_half_order = HALF_ORDERS[-1]
    elif type(max_half_order) is not int:
        raise ValueError(f"max_half_order must be an int, got {max_half_order!r}")
    elif max_half_order < 0:
        raise ValueError(f"max_half_order must be >= 0, got {max_half_order!r}")
    table = coefficient_series(params)
    try:
        # powers[h] is A**(h/2), HALF_ORDERS counting up from 0; only the
        # powers a kept term multiplies, so truncation still avoids overflow
        powers = [params.A ** (h / 2.0) for h in HALF_ORDERS if h <= max_half_order]
    except OverflowError as err:
        raise ModelDomainError(
            f"a power of A = {params.A!r} is not a finite double") from err
    sums = []
    for name in CoefficientSet._fields:
        # ascending h by plain float addition, the same bits on every CPython
        total = 0.0
        for h, coeff in table[name].items():
            if h <= max_half_order:
                total += coeff * powers[h]
        sums.append(total)
    try:
        return CoefficientSet(*sums)
    except ValueError as err:  # a sum that is not finite
        raise ModelDomainError(
            f"the expansions summed through half-order {max_half_order} at "
            f"(mu, q, Q, A) = ({params.mu!r}, {params.q!r}, {params.Q!r}, {params.A!r}) "
            f"are not finite: {err}") from err


# -- determinant evaluation and verdicts --------------------------------------

#: one-ulp steps up in omega1 that _d2_point takes at most to leave an exact
#: pole of the closed forms
POLE_NUDGE_STEPS = 4


class D2Result(NamedTuple):
    """Determinant value and the coefficients it was evaluated from."""

    value: float
    coefficients: CoefficientSet


def _d2_point(d2: Callable[[float], float], omega1: float, omega3: float) -> float:
    """Determinant at omega1 from the d2 of a tabulated kernel built at omega3.

    An exactly-on-pole pair does not raise: the value is computed at the
    nearest omega1 above it, at most POLE_NUDGE_STEPS ulps up, where no
    denominator of the closed forms rounds to 0; past that it raises
    DeterminantOverflowError.  _status names the pole.
    """
    w1, steps = omega1, 0
    while True:
        try:
            return d2(w1)
        except PoleError:
            if steps == POLE_NUDGE_STEPS:
                raise DeterminantOverflowError(
                    f"a denominator of the closed forms is 0 at omega1={omega1!r} and "
                    f"at the next {steps} doubles above it, omega3={omega3!r}") from None
            w1, steps = math.nextafter(w1, math.inf), steps + 1


def d2_eval(params: ModelParams, omega1: float, omega3: float,
            max_half_order: int | None = None) -> D2Result:
    """Evaluate the determinant at one frequency pair.

    An exactly-on-pole pair does not raise: the value is computed a few ulps
    above omega1 instead, as _d2_point does.
    """
    coeffs = coefficients(params, max_half_order)
    check_frequency("omega1", omega1)
    _, _, _, d2 = tabulated_kernel(coeffs, omega3)
    return D2Result(value=_d2_point(d2, omega1, omega3), coefficients=coeffs)


def _median_abs(values) -> float:
    """statistics.median of the magnitudes of a non-empty sequence of floats.

    The result is bit for bit that of statistics.median, but no list of all
    the magnitudes is built: runs of MEDIAN_CHUNK are sorted into arrays of
    doubles and merged up to the middle.
    """
    n = len(values)
    runs = [array("d", sorted(map(abs, values[i:i + MEDIAN_CHUNK])))
            for i in range(0, n, MEDIAN_CHUNK)]
    ordered = heapq.merge(*runs)
    if n % 2:
        return next(itertools.islice(ordered, n // 2, None))
    below = next(itertools.islice(ordered, n // 2 - 1, None))
    return (below + next(ordered)) / 2


def _degeneracy_cut(d2_tolerance: float | None, scale) -> float:
    """The |D2| at or below which a value is degenerate.

    None takes DEGENERACY_FRACTION of scale(), a typical |D2| (a tiny floor
    when that is 0); scale is called only then.  An explicit tolerance that is
    not a positive finite real raises ValueError.
    """
    if d2_tolerance is None:
        typical = scale()
        return DEGENERACY_FRACTION * typical if typical > 0 else 1e-300
    if not (is_finite_real(d2_tolerance) and d2_tolerance > 0):
        raise ValueError(
            f"d2_tolerance must be a positive finite real, got {d2_tolerance!r}")
    return d2_tolerance


class StabilityStatus(str, Enum):
    STABLE = "stable"
    RESONANT = "resonant"
    DEGENERATE = "degenerate"
    POLE = "pole"


#: where Arnold's criterion is void, in the order _status tests them: the
#: three pole guard bands, then the three exact low-order resonances that
#: are not poles (an exact pole is inside its band)
_VOID_RELATIONS = ("omega3 = 2*omega1", "omega1 = 2*omega3", "omega1 = 0",
                   "omega1 = omega3", "omega3 = 3*omega1", "omega1 = 3*omega3")

#: (status, scan flag, notes) of a point off every void relation, by |D2|;
#: a scan writes stable as "ok"
_DEGENERATE = (StabilityStatus.DEGENERATE, StabilityStatus.DEGENERATE.value, ())
_STABLE = (StabilityStatus.STABLE, "ok", ())


def _status(d2: float, omega1: float, omega3: float,
            cut: float) -> tuple[StabilityStatus, str, tuple[str, ...]]:
    """(status, scan flag, notes naming each void relation hit) of one point.

    The first rule that applies decides: a pole guard band (within
    RESONANCE_GUARD * omega3 of a pole of D2), an exact low-order resonance
    (a gap below normalize's small-divisor rule, DIVISOR_REL_TOL times the
    larger frequency), |D2| at or below cut (degenerate), else stable.
    Plain comparisons decide, since a scan runs this per row; notes are
    built only when a relation is hit, and are empty when |D2| decided.
    """
    guard = RESONANCE_GUARD * omega3
    half, double = abs(2.0 * omega1 - omega3), abs(omega1 - 2.0 * omega3)
    if half < guard or double < guard or omega1 < guard:
        status, kind, limit, gaps = StabilityStatus.POLE, "pole", guard, (half, double, omega1)
        names = _VOID_RELATIONS[:3]
    else:
        limit = DIVISOR_REL_TOL * (omega1 if omega1 > omega3 else omega3)
        one, third, triple = (abs(omega1 - omega3), abs(3.0 * omega1 - omega3),
                              abs(omega1 - 3.0 * omega3))
        if not (one < limit or third < limit or triple < limit):
            return _DEGENERATE if abs(d2) <= cut else _STABLE
        status, kind, gaps = StabilityStatus.RESONANT, "resonance", (one, third, triple)
        names = _VOID_RELATIONS[3:]
    return status, status.value, tuple(
        f"{kind}:{name}" for name, gap in zip(names, gaps) if gap < limit)


class StabilityVerdict(NamedTuple):
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
                    d2_tolerance: float | None) -> StabilityVerdict:
    """Classify one evaluated determinant value.

    The status is _status's: stable requires frequencies outside the pole
    guard bands and off the exact low-order resonances, and |D2| above
    tolerance.  The notes name the relations hit, or else compare |D2| with
    the tolerance.  A tolerance of None is DEGENERACY_FRACTION of |D2|
    itself (a single point has no grid to take a median over), so only an
    exact zero is then reported degenerate; an explicit tolerance must be a
    positive finite real.  The frequencies are checked as d2_eval checks
    them, and D2 must be a finite real; each raises ValueError otherwise.
    """
    check_frequency("omega1", omega1)
    check_frequency("omega3", omega3)
    if not is_finite_real(d2):
        raise ValueError(f"D2 must be a finite real, got {d2!r}")
    return _verdict(d2, omega1, omega3, d2_tolerance)


def _verdict(d2: float, omega1: float, omega3: float,
             d2_tolerance: float | None) -> StabilityVerdict:
    """verdict_from_d2 on a D2 and frequencies that d2_eval has checked."""
    d2_tolerance = _degeneracy_cut(d2_tolerance, lambda: abs(d2))
    status, _, notes = _status(d2, omega1, omega3, d2_tolerance)
    if not notes:
        relation = "<=" if status is StabilityStatus.DEGENERATE else ">"
        notes = (f"abs(D2)={abs(d2):.6g} {relation} tolerance={d2_tolerance:.6g}",)
    return StabilityVerdict(status=status, d2=d2, omega1=omega1, omega3=omega3,
                            notes=notes)


def stability_verdict(params: ModelParams, omega1: float, omega3: float,
                      d2_tolerance: float | None = None,
                      max_half_order: int | None = None) -> StabilityVerdict:
    """Evaluate the model at one frequency pair and classify the outcome.

    Without an explicit tolerance the degeneracy cut is the single-point rule
    of verdict_from_d2; only d2_eval checks the frequencies.
    """
    result = d2_eval(params, omega1, omega3, max_half_order)
    return _verdict(result.value, omega1, omega3, d2_tolerance)


class ScanRow(NamedTuple):
    omega1: float
    d2: float
    flag: str  # "ok" | "pole" | "resonant" | "degenerate"


def scan_omega1(params: ModelParams, omega3: float, lo: float, hi: float,
                steps: int, d2_tolerance: float | None = None,
                max_half_order: int | None = None) -> Iterator[ScanRow]:
    """Uniform scan of the determinant over omega1 in [lo, hi], endpoints included.

    Each row's flag is the scan flag _status gives it at the scan's
    degeneracy tolerance, verdict_from_d2's status with stable written "ok":
    rows in the pole guard bands or on an exact resonance are flagged rather
    than dropped.  The tolerance defaults to DEGENERACY_FRACTION of the
    scan's median |D2|; an explicit one must be a positive finite real.
    Neither the model coefficients nor the products of the tabulated forms
    that leave out omega1 depend on it, so one kernel serves the whole grid;
    each row matches d2_eval at the same omega1 bit for bit.

    Every grid point is evaluated before this returns, so any error is raised
    here; only D2 (8 bytes) is kept per row.  The rows are returned as an
    iterator that builds each one as it is taken.
    """
    for name, bound in (("lo", lo), ("hi", hi)):
        if not is_finite_real(bound):
            raise ValueError(f"grid bound {name} must be finite, got {bound!r}")
    if not 0.0 < lo < hi:
        raise ValueError("grid needs 0 < lo < hi")
    if type(steps) is not int:
        raise ValueError(f"grid steps must be an int, got {steps!r}")
    if steps < 2:
        raise ValueError("grid needs at least 2 steps")
    if d2_tolerance is not None:
        # an invalid explicit tolerance fails before any grid point is evaluated
        d2_tolerance = _degeneracy_cut(d2_tolerance, None)
    _, _, _, d2 = tabulated_kernel(coefficients(params, max_half_order), omega3)
    values = array("d", (_d2_point(d2, omega1, omega3) for omega1 in _grid(lo, hi, steps)))

    # the kernel never returns a non-finite value, and the grid is not empty
    cut = _degeneracy_cut(d2_tolerance, lambda: _median_abs(values))
    return (ScanRow(omega1, value, _status(value, omega1, omega3, cut)[1])
            for omega1, value in zip(_grid(lo, hi, steps), values))


def _grid(lo: float, hi: float, steps: int) -> Iterator[float]:
    """The steps points of a uniform grid: lo + k*step, then hi itself."""
    step = (hi - lo) / (steps - 1)
    return itertools.chain((lo + k * step for k in range(steps - 1)), (hi,))
