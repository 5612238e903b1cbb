"""Radiating oblate restricted three-body model around the out-of-plane point.

Evaluates the truncated expansions of the model constants (a, c) and of the
cubic/quartic Hamiltonian coefficients (a1..a4, b1, b3, b5) in powers of
sqrt(A), evaluates the stability determinant over frequency grids, and issues
the stability verdict.  A verdict and a scan row are classified by one
rule, in _status: pole guard band, exact low-order resonance, then |D2|
against the degeneracy cut; a scan leaves out the first two for rows far
from every band and resonance.  The model Hamiltonian itself is built by
:func:`birkhoff.closedform.build_model_hamiltonian`.

The expansions are transcribed literally, term by term, from their tabulated
form; square roots of squares are simplified with sqrt(x^2) = |x| while the
sign structure of odd powers of (mu - 1) is kept as printed.  Each expansion
stops after the A^2 term.  a2 and a4 vanish at A = 0 (their expansions begin
at sqrt(A)).  All nine are written in the one flat transcription
_series_terms, which returns their 30 terms as one tuple laid out by
_LAYOUT.  It takes each distinct power, the two numerators that b1 and b3
share and every other operation that recurs with the same operands in the
same grouping once, and each product of sqrt(3) by a number is a module
constant; nothing is regrouped, so every term keeps the value it has as
printed, bit for bit.  coefficient_series is the per-order view of that
tuple as nested mappings.  coefficients sums each quantity's terms times
A**(h/2) in ascending half-order h by plain float addition, and takes each
power of sqrt(A) it needs once.
"""

from __future__ import annotations

import itertools
import math
import struct
from array import array
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import partial
from operator import itemgetter, le
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

#: rows whose flags a scan decides at a time; bounds the slice of D2 values
#: that deciding them copies
FLAG_BLOCK = 1 << 12

#: ulps of a void relation's outer edge by which a scan widens its window,
#: far past any rounding in _status's gaps or in the window's own edges
WINDOW_MARGIN_ULPS = 1 << 20


class ModelDomainError(ValueError):
    """Model parameters outside the domain of the coefficient expansions."""


class ModelParams(checked_record("ModelParams", "mu q Q A")):
    """Mass ratio, radiation factors of both primaries, and oblateness."""

    __slots__ = ()

    def __new__(cls, mu: float, q: float, Q: float, A: float):
        # a float in range is finite, so its test spares is_finite_real
        if not (type(mu) is float and 0.0 < mu < 1.0 or is_finite_real(mu) and 0.0 < mu < 1.0):
            raise ModelDomainError(f"mu must lie strictly inside (0, 1), got {mu!r}")
        if not (type(q) is float and 0.0 < q <= 1.0 or is_finite_real(q) and 0.0 < q <= 1.0):
            raise ModelDomainError(f"q must lie in (0, 1], got {q!r}")
        if not (type(Q) is float and 0.0 < Q <= 1.0 or is_finite_real(Q) and 0.0 < Q <= 1.0):
            raise ModelDomainError(f"Q must lie in (0, 1], got {Q!r}")
        if not (type(A) is float and 0.0 <= A < math.inf or is_finite_real(A) and A >= 0.0):
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

#: the products of sqrt(3) by a number that the series take, each once
_3_SQRT3, _4_SQRT3, _6_SQRT3 = 3.0 * _SQRT3, 4.0 * _SQRT3, 6.0 * _SQRT3
_15_SQRT3, _36_SQRT3, _45_SQRT3 = 15.0 * _SQRT3, 36.0 * _SQRT3, 45.0 * _SQRT3
_75_SQRT3, _M6_SQRT3, _M135_SQRT3 = 75.0 * _SQRT3, -6.0 * _SQRT3, -135.0 * _SQRT3

#: (quantity, half-orders h of its terms A**(h/2)) of every series, in
#: CoefficientSet's field order; _series_terms returns the terms in this
#: order, each quantity's in ascending h
_LAYOUT = (("a1", (0, 2, 3, 4)), ("a2", (1, 3, 4)), ("a3", (0, 2, 3, 4)),
           ("a4", (1, 3, 4)), ("b1", (0, 2, 3, 4)), ("b3", (0, 2, 3, 4)),
           ("b5", (0, 2, 3, 4)), ("a", (0, 3)), ("c", (1, 4)))


def _kept_terms(bound: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per CoefficientSet field, the (position in _series_terms, h) of each
    of its terms with h <= bound, in ascending h."""
    positions = itertools.count()
    return tuple(tuple((i, h) for h, i in zip(orders, positions) if h <= bound)
                 for _, orders in _LAYOUT)


#: _kept_terms of each bound in HALF_ORDERS, indexed by the bound
_KEPT_TERMS = tuple(map(_kept_terms, HALF_ORDERS))

#: the exponent h/2 of A for each half-order h in HALF_ORDERS
_EXPONENTS = tuple(h / 2.0 for h in HALF_ORDERS)


def _series_terms(params: ModelParams) -> tuple[float, ...]:
    """The 30 terms of the printed series, flat, in _LAYOUT's order.

    A mass ratio or radiation factor so small that a denominator underflows
    to 0 raises ModelDomainError; a quotient that overflows is left
    infinite, and coefficients rejects any sum it enters.
    """
    mu, q, Q = params.mu, params.q, params.Q
    # s1m stands for sqrt((1-mu)^2) == sqrt((-1+mu)^2) == |1-mu|, am for
    # sqrt(mu^2) == |mu| and m1 for mu - 1, whose odd powers stay negative as
    # printed.  Each power the terms use is taken once, here, and named by
    # base and exponent (one_mu6 is (1 - mu)**6, kept apart from s1m as
    # printed); every base lies in (-1, 1], so none of them can overflow.
    one_mu, one_q = 1.0 - mu, 1.0 - q
    s1m, am, m1 = abs(one_mu), abs(mu), mu - 1.0
    mu3, mu4, mu5 = mu ** 3, mu ** 4, mu ** 5
    mu6, mu7 = mu ** 6, mu ** 7
    mu8, mu9 = mu ** 8, mu ** 9
    s1m5, s1m7 = s1m ** 5, s1m ** 7
    am3, q2 = am ** 3, q ** 2
    m1_2, m1_3, m1_4 = m1 ** 2, m1 ** 3, m1 ** 4
    m1_5, m1_6, m1_7 = m1 ** 5, m1 ** 6, m1 ** 7
    one_mu2, one_mu3, one_mu4 = one_mu ** 2, one_mu ** 3, one_mu ** 4
    one_mu6, one_mu8, one_mu10 = one_mu ** 6, one_mu ** 8, one_mu ** 10
    try:
        # each operation that recurs below with the same operands in the
        # same grouping, taken once and named by its operands in order:
        # c45 is 45.0, cm3 is -3.0, r3 is sqrt(3), neg_q is -q and x_over_y
        # is x / y (a Python product a * b * c is (a * b) * c, so
        # c2_Q_s1m, 2.0 * Q * s1m, is c2_Q * s1m and not 2.0 * Q_s1m)
        neg_q, c3_q = -q, 3.0 * q
        cm3_q, c9_q = -3.0 * q, 9.0 * q
        c45_q, cm45_q = 45.0 * q, -45.0 * q
        c135_q, c945_q = 135.0 * q, 945.0 * q
        r3_q, r3_q2 = _SQRT3 * q, _SQRT3 * q2
        c3_r3_q, c315_q_s1m = _3_SQRT3 * q, 315.0 * q * s1m
        c2_Q, c3_Q = 2.0 * Q, 3.0 * Q
        c15_Q, mu_Q = 15.0 * Q, mu * Q
        c3_r3_Q, c6_r3_Q = _3_SQRT3 * Q, _6_SQRT3 * Q
        Q_s1m5, c4_Q_s1m5 = Q * s1m5, 4.0 * Q * s1m5
        Q_s1m, c6_Q_s1m = Q * s1m, 6.0 * Q * s1m
        c7_Q_s1m, c8_Q_s1m = 7.0 * Q * s1m, 8.0 * Q * s1m
        c10_Q_s1m, c20_Q_s1m, c21_Q_s1m = 10.0 * Q * s1m, 20.0 * Q * s1m, 21.0 * Q * s1m
        c35_Q_s1m, c40_Q_s1m, r3_Q_s1m = 35.0 * Q * s1m, 40.0 * Q * s1m, _SQRT3 * Q * s1m
        c4_r3_Q_s1m, c4_r3_q_Q_s1m = _4_SQRT3 * Q * s1m, _4_SQRT3 * q * Q * s1m
        c135_am, c36_r3_am, c45_r3_am = 135.0 * am, _36_SQRT3 * am, _45_SQRT3 * am
        c36_r3_q_am, c45_r3_q_am = _36_SQRT3 * q * am, _45_SQRT3 * q * am
        c2_mu5, c2_mu6 = 2.0 * mu5, 2.0 * mu6
        c4_mu6, c4_mu7 = 4.0 * mu6, 4.0 * mu7
        c2_s1m5, c8_s1m5 = 2.0 * s1m5, 8.0 * s1m5
        c2_s1m7, c8_s1m7 = 2.0 * s1m7, 8.0 * s1m7
        c4_one_mu, c4_one_mu8, c2_one_mu10 = 4.0 * one_mu, 4.0 * one_mu8, 2.0 * one_mu10
        c8_one_mu2_s1m5, c16_one_mu2_s1m5 = 8.0 * one_mu2 * s1m5, 16.0 * one_mu2 * s1m5
        c16_one_mu3_s1m5, c64_one_mu4_s1m5 = 16.0 * one_mu3 * s1m5, 64.0 * one_mu4 * s1m5
        c2_m1_5_s1m, c4_m1_7_s1m_mu9 = 2.0 * m1_5 * s1m, 4.0 * m1_7 * s1m * mu9
        Q_m1_3_s1m_mu7 = Q * m1_3 * s1m * mu7
        c3_q_mu, c45_q_mu, c945_q_mu = c3_q * mu, c45_q * mu, c945_q * mu
        c3_q_one_mu, c45_q_s1m = c3_q * one_mu, c45_q * s1m
        c3_Q_am, c15_Q_am = c3_Q * am, c15_Q * am
        c2_Q_one_mu6, Q_s1m5_mu, Q_s1m_am = c2_Q * one_mu6, Q_s1m5 * mu, Q_s1m * am
        c2_Q_s1m, c3_Q_s1m, c15_Q_s1m = c2_Q * s1m, c3_Q * s1m, c15_Q * s1m
        c10_Q_s1m_mu4_am, c20_Q_s1m_mu3_am = c10_Q_s1m * mu4 * am, c20_Q_s1m * mu3 * am
        r3_Q_s1m_am, r3_q_Q_s1m, c3_r3_Q_s1m = r3_Q_s1m * am, r3_q * Q * s1m, c3_r3_Q * s1m
        c3_r3_q_Q_s1m, c45_r3_one_q_q = c3_r3_q * Q * s1m, _45_SQRT3 * one_q * q
        c36_r3_one_q_q_one_mu = _36_SQRT3 * one_q * q * one_mu
        c3_r3_q_s1m_mu_over_c2_one_mu6 = c3_r3_q * s1m * mu / (2.0 * one_mu6)
        c4_one_mu_s1m5, c4_one_mu_s1m7, c2_Q_s1m_am = (
            c4_one_mu * s1m5, c4_one_mu * s1m7, c2_Q_s1m * am)
        r3_q_Q_s1m_am = r3_q_Q_s1m * am
        c45_q_s1m_over_c4_one_mu8 = c45_q_s1m / c4_one_mu8
        c45_q_s1m_mu_over_c4_one_mu8 = c45_q_s1m * mu / c4_one_mu8
        # shared numerator of the sqrt(A)^3 corrections of b1 and b3
        mixed_cubic = (r3_q * mu6 - r3_q2 * mu6
                       - r3_Q_s1m_am + r3_q_Q_s1m_am
                       + c4_r3_Q_s1m * mu * am
                       - c4_r3_q_Q_s1m * mu * am
                       + c4_r3_Q_s1m * mu3 * am
                       - c4_r3_q_Q_s1m * mu3 * am
                       - r3_Q_s1m * mu4 * am + r3_q_Q_s1m * mu4 * am
                       - c6_r3_Q * s1m * am3 + _6_SQRT3 * q * Q * s1m * am3)
        # shared numerator of the A^2 corrections of b1 and b3
        mixed_quartic = (q * mu9 - Q_s1m_am + c7_Q_s1m * mu * am
                         + c35_Q_s1m * mu3 * am - c35_Q_s1m * mu4 * am
                         + c21_Q_s1m * mu5 * am - c7_Q_s1m * mu6 * am
                         + Q_s1m * mu7 * am - c21_Q_s1m * am3)
        return (
            # a1: half-orders 0, 2, 3, 4
            ((neg_q * mu4 + Q_s1m_am - c2_Q_s1m * mu * am
              + Q_s1m * am3)
             / (m1_2 * s1m * mu4)),
            -(5.0 * (cm3_q * mu6 + c2_Q_s1m_am - c8_Q_s1m * mu * am
                     - c8_Q_s1m * mu3 * am + c2_Q_s1m * mu4 * am
                     + 12.0 * Q * s1m * am3)
              / (m1_4 * s1m * mu6)),
            (24.0 * (r3_q * mu5 - r3_q2 * mu5
                     + r3_Q_s1m_am - r3_q_Q_s1m_am
                     - c3_r3_Q_s1m * mu * am
                     + c3_r3_q_Q_s1m * mu * am
                     - r3_Q_s1m * mu3 * am
                     + r3_q_Q_s1m * mu3 * am
                     + c3_r3_Q_s1m * am3
                     - c3_r3_q_Q_s1m * am3)
             / (Q * m1_2 * s1m * mu6)),
            -(945.0 * (q * mu8 + Q_s1m_am - c6_Q_s1m * mu * am
                       - c20_Q_s1m_mu3_am + c15_Q_s1m * mu4 * am
                       - c6_Q_s1m * mu5 * am + Q_s1m * mu6 * am
                       + c15_Q_s1m * am3)
              / (8.0 * m1_6 * s1m * mu8)),
            # a2: half-orders 1, 3, 4
            (_M6_SQRT3 * q / s1m5
             + _15_SQRT3 * q * mu / c2_s1m5
             - c3_r3_q_s1m_mu_over_c2_one_mu6
             - c6_r3_Q * am / mu5),
            _M135_SQRT3 * q / c2_m1_5_s1m,
            (54.0 * (-10.0 * q * mu6 + 9.0 * q2 * mu6 + q2 * mu7
                     + c10_Q_s1m * am - 10.0 * q * Q * s1m * am
                     - c40_Q_s1m * mu * am + 39.0 * q * Q * s1m * mu * am
                     - c40_Q_s1m * mu3 * am + 34.0 * q * Q * s1m * mu3 * am
                     + c10_Q_s1m_mu4_am - 6.0 * q * Q * s1m * mu4 * am
                     - q * Q * s1m * mu5 * am
                     + 60.0 * Q * s1m * am3 - 56.0 * q * Q * s1m * am3)
             / Q_m1_3_s1m_mu7),
            # a3: half-orders 0, 2, 3, 4
            (c3_q_one_mu / c2_s1m5
             - c3_q_one_mu * mu / c2_s1m5
             - c3_Q_am / (2.0 * mu4)),
            (cm45_q * one_mu / c2_s1m7
             - c45_q / c4_one_mu_s1m5
             + c45_q * one_mu * mu / c2_s1m7
             + c45_q_mu / c4_one_mu_s1m5
             + 45.0 * Q * am / c2_mu6),
            (c36_r3_one_q_q_one_mu / Q_s1m5
             - c36_r3_one_q_q_one_mu / Q_s1m5_mu
             - c36_r3_am / mu6
             + c36_r3_q_am / mu6
             + c36_r3_am / mu5
             - c36_r3_q_am / mu5),
            (c945_q / c4_one_mu_s1m7
             + c945_q / c16_one_mu3_s1m5
             - c945_q_mu / c4_one_mu_s1m7
             - c945_q_mu / c16_one_mu3_s1m5
             + 4725.0 * Q * am / (16.0 * mu8)),
            # a4: half-orders 1, 3, 4
            (c3_r3_q / c2_s1m5
             - c3_r3_q_s1m_mu_over_c2_one_mu6
             + c3_r3_Q * am / c2_mu5),
            _75_SQRT3 * q / (4.0 * m1_5 * s1m),
            (1.5 * q * ((c9_q / Q - c9_q / (Q * mu)) / s1m5
                        - 90.0 * one_q / Q_s1m5_mu)
             + c135_q * s1m / (Q * one_mu6)
             - 243.0 * q2 * s1m / c2_Q_one_mu6
             - 27.0 * q2 * s1m * mu / c2_Q_one_mu6
             + c135_am / mu7
             - c135_q * am / mu7
             - c135_am / mu6
             + 243.0 * q * am / c2_mu6
             + 27.0 * q * am / c2_mu5),
            # b1: half-orders 0, 2, 3, 4
            ((neg_q * mu5 - Q_s1m_am + c3_Q_s1m * mu * am
              + Q_s1m * mu3 * am - c3_Q_s1m * am3)
             / (m1_3 * s1m * mu5)),
            -(15.0 * (cm3_q * mu7 - c2_Q_s1m_am + c10_Q_s1m * mu * am
                      + c20_Q_s1m_mu3_am - c10_Q_s1m_mu4_am
                      + c2_Q_s1m * mu5 * am - c20_Q_s1m * am3)
              / (c2_m1_5_s1m * mu7)),
            30.0 * mixed_cubic / Q_m1_3_s1m_mu7,
            -(945.0 * mixed_quartic / c4_m1_7_s1m_mu9),
            # b3: half-orders 0, 2, 3, 4
            (cm3_q / s1m5
             + c3_q_mu / s1m5
             + c15_Q_am / c4_mu7
             - c15_Q * one_mu2 * am / c4_mu7
             - c15_Q_am / c2_mu6
             + c3_Q_am / (4.0 * mu5)),
            (c945_q / c8_s1m7
             - c45_q / c8_one_mu2_s1m5
             - c45_q_s1m_over_c4_one_mu8
             - c945_q_mu / c8_s1m7
             + c45_q_mu / c8_one_mu2_s1m5
             + c45_q_s1m_mu_over_c4_one_mu8
             + 135.0 * Q * am / (2.0 * mu7)),
            -90.0 * mixed_cubic / Q_m1_3_s1m_mu7,
            4725.0 * mixed_quartic / c4_m1_7_s1m_mu9,
            # b5: half-orders 0, 2, 3, 4
            (c3_q / c8_s1m5
             - c3_q_mu / c8_s1m5
             + c3_Q_am / (8.0 * mu5)),
            (cm45_q / c16_one_mu2_s1m5
             - c45_q_s1m_over_c4_one_mu8
             + c45_q_mu / c16_one_mu2_s1m5
             + c45_q_s1m_mu_over_c4_one_mu8
             - 75.0 * Q * am / (8.0 * mu7)),
            (c45_r3_one_q_q / c4_Q_s1m5
             - c45_r3_one_q_q / (c4_Q_s1m5 * mu)
             + c45_r3_am / c4_mu7
             - c45_r3_q_am / c4_mu7
             - c45_r3_am / c4_mu6
             + c45_r3_q_am / c4_mu6),
            (c945_q / c64_one_mu4_s1m5
             + c315_q_s1m / c2_one_mu10
             - c945_q_mu / c64_one_mu4_s1m5
             - c315_q_s1m * mu / c2_one_mu10
             - 11025.0 * Q * am / (64.0 * mu9)),
            # a: half-orders 0, 3
            one_mu,
            _6_SQRT3 * one_mu * one_q / mu_Q,
            # c: half-orders 1, 4
            _SQRT3,
            -9.0 * one_mu * q / mu_Q,
        )

    except ZeroDivisionError as err:
        raise ModelDomainError(
            f"the expansions are not representable as doubles at "
            f"(mu, q, Q) = ({mu!r}, {q!r}, {Q!r}): {err}") from err


def coefficient_series(params: ModelParams) -> dict[str, dict[int, float]]:
    """Per-half-order expansion coefficients for every model quantity.

    The returned inner mappings give the coefficient of A**(h/2) for each
    half-order h present in the corresponding expansion, in ascending h; the
    model constants a and c come first, then a1..b5.  The values are the
    terms of _series_terms, the one transcription of the series, laid out
    by _LAYOUT; errors are raised as _series_terms raises them.
    """
    terms = iter(_series_terms(params))
    table = {name: dict(zip(orders, terms)) for name, orders in _LAYOUT}
    return {name: table[name] for name in ("a", "c", *CubicQuarticCoefficients._fields)}


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
    terms = _series_terms(params)
    try:
        # powers[h] is A**(h/2), HALF_ORDERS counting up from 0; only the
        # powers a kept term multiplies, so truncation still avoids overflow
        powers = [params.A ** e for e in _EXPONENTS[:max_half_order + 1]]
    except OverflowError as err:
        raise ModelDomainError(
            f"a power of A = {params.A!r} is not a finite double") from err
    sums = []
    for kept in _KEPT_TERMS[min(max_half_order, HALF_ORDERS[-1])]:
        # ascending h by plain float addition, the same bits on every CPython
        total = 0.0
        for i, h in kept:
            total += terms[i] * powers[h]
        sums.append(total)
    if not all(map(math.isfinite, sums)):
        try:
            CoefficientSet(*sums)  # names the first field that is not finite
        except ValueError as err:
            raise ModelDomainError(
                f"the expansions summed through half-order {max_half_order} at "
                f"(mu, q, Q, A) = ({params.mu!r}, {params.q!r}, {params.Q!r}, {params.A!r}) "
                f"are not finite: {err}") from err
    return tuple.__new__(CoefficientSet, sums)


# -- determinant evaluation and verdicts --------------------------------------

#: one-ulp steps up in omega1 that _d2_point takes at most to leave an exact
#: pole of the closed forms
POLE_NUDGE_STEPS = 4


class D2Result(NamedTuple):
    """Determinant value and the coefficients it was evaluated from."""

    value: float
    coefficients: CoefficientSet


def _d2_point(d2: Callable[[float], float], omega1: float, omega3: float) -> float:
    """Determinant at omega1 from a tabulated kernel built at omega3.

    An exactly-on-pole pair does not raise: the value is computed at the
    nearest omega1 above it, at most POLE_NUDGE_STEPS ulps up, where no
    denominator of the closed forms rounds to 0; past that it raises
    DeterminantOverflowError.  _status names the pole.  This is the one
    nudge rule: _model_d2 calls it for d2_eval and stability_verdict, and
    scan_omega1 calls d2 itself and comes here only for a grid point where
    d2 raises PoleError.
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
    return D2Result(*_model_d2(params, omega1, omega3, max_half_order))


def _model_d2(params: ModelParams, omega1: float, omega3: float,
              max_half_order: int | None) -> tuple[float, CoefficientSet]:
    """(D2, coefficients) of d2_eval, which returns them as a D2Result and
    stability_verdict as a verdict."""
    coeffs = coefficients(params, max_half_order)
    check_frequency("omega1", omega1)
    return _d2_point(tabulated_kernel(coeffs, omega3), omega1, omega3), coeffs


def _median_abs(values) -> float:
    """statistics.median of the magnitudes of a non-empty sequence of finite
    floats.

    The result is bit for bit that of statistics.median, but no list of all
    the magnitudes is built: runs of MEDIAN_CHUNK are sorted into arrays of
    doubles, and _select picks the middle values out of them.
    """
    n = len(values)
    runs = [array("d", sorted(map(abs, values[i:i + MEDIAN_CHUNK])))
            for i in range(0, n, MEDIAN_CHUNK)]
    if n % 2:
        return _select(runs, n // 2)
    return (_select(runs, n // 2 - 1) + _select(runs, n // 2)) / 2


#: a double's IEEE bit pattern as an unsigned int, and +inf's pattern
_DOUBLE, _BITS = struct.Struct("<d"), struct.Struct("<Q")
_INF_BITS = _BITS.unpack(_DOUBLE.pack(math.inf))[0]


def _double(bits: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(bits))[0]


def _select(runs, k: int) -> float:
    """The k-th smallest (from 0) of the values in sorted arrays of finite,
    non-negative doubles: the least double with more than k values at or
    below it.

    Such doubles order as their bit patterns, so that pattern is found by
    bisecting [bits(0.0), bits(inf)): at most 63 steps, each one C-level
    bisection per run, and no work per value.
    """
    def more_than_k(bits):
        return sum(map(bisect_right, runs, itertools.repeat(_double(bits)))) > k

    return _double(bisect_left(range(_INF_BITS), True, key=more_than_k))


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
    """Status of a stability verdict; its value is the word the CLI writes."""

    STABLE = "stable"
    RESONANT = "resonant"
    DEGENERATE = "degenerate"
    POLE = "pole"


#: where Arnold's criterion is void, in the order _status tests them: the
#: three pole guard bands, then the three exact low-order resonances that
#: are not poles (an exact pole is inside its band)
_VOID_RELATIONS = ("omega3 = 2*omega1", "omega1 = 2*omega3", "omega1 = 0",
                   "omega1 = omega3", "omega3 = 3*omega1", "omega1 = 3*omega3")

#: (status, scan flag, notes) of a point off every void relation, indexed by
#: abs(D2) <= cut; a scan writes stable as "ok"
_BY_SIZE = ((StabilityStatus.STABLE, "ok", ()),
            (StabilityStatus.DEGENERATE, StabilityStatus.DEGENERATE.value, ()))


def _status(d2: float, omega1: float, omega3: float,
            cut: float) -> tuple[StabilityStatus, str, tuple[str, ...]]:
    """(status, scan flag, notes naming each void relation hit) of one point.

    The first rule that applies decides: a pole guard band (within
    RESONANCE_GUARD * omega3 of a pole of D2), an exact low-order resonance
    (a gap below normalize's small-divisor rule, DIVISOR_REL_TOL times the
    larger frequency), else _BY_SIZE by |D2| against cut (degenerate at or
    below it).  Notes are built only when a relation is hit, and are empty
    when |D2| decided.  A scan calls this only on the rows in _void_windows,
    and flags every other row by the same _BY_SIZE lookup.
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
            return _BY_SIZE[abs(d2) <= cut]
        status, kind, gaps = StabilityStatus.RESONANT, "resonance", (one, third, triple)
        names = _VOID_RELATIONS[3:]
    return status, status.value, tuple(
        f"{kind}:{name}" for name, gap in zip(names, gaps) if gap < limit)


def _void_windows(omega3: float, lo: float, hi: float,
                  steps: int) -> list[tuple[int, int]]:
    """Sorted, non-empty (start, stop) row ranges of a scan's grid that hold
    every row where _status can hit a void relation.

    Each relation of _VOID_RELATIONS holds only for omega1 within a
    half-width h of a centre c: a pole band within guard/2 of omega3/2 and
    within guard of 2*omega3 and of 0, an exact resonance within
    2*DIVISOR_REL_TOL*c of omega3, omega3/3 and 3*omega3 (twice the reach of
    its gap rule, as DIVISOR_REL_TOL is far below 1/2).  A window takes the
    rows whose omega1 is in [c - h, c + h] widened by WINDOW_MARGIN_ULPS
    ulps, so neither rounding nor a grid step however small lets a row slip
    out.  The rows are found by bisecting the grid's first steps - 1 points,
    which never decrease; the last row, hi itself, may sit an ulp below the
    one before it, so it is tested on its own.  The ranges are disjoint, as
    the six omega1 intervals are.  A relation that holds at no row, between
    two points or beyond the grid, has no range, so it ends no block of
    _column_blocks.
    """
    guard, reach = RESONANCE_GUARD * omega3, 2.0 * DIVISOR_REL_TOL
    relations = [(omega3 / 2.0, guard / 2.0), (2.0 * omega3, guard), (0.0, guard)]
    relations += [(c, reach * c) for c in (omega3, omega3 / 3.0, 3.0 * omega3)]
    rows = range(steps - 1)

    def point(k):
        return next(_grid(lo, hi, steps, k))

    windows = []
    for c, h in relations:
        margin = WINDOW_MARGIN_ULPS * math.ulp(c + h)
        low, high = c - h - margin, c + h + margin
        start, stop = bisect_left(rows, low, key=point), bisect_right(rows, high, key=point)
        if start < stop:
            windows.append((start, stop))
        if low <= hi <= high:
            windows.append((steps - 1, steps))
    return sorted(windows)


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
    """verdict_from_d2 on a D2 and frequencies that _model_d2 has checked."""
    d2_tolerance = _degeneracy_cut(d2_tolerance, lambda: abs(d2))
    status, _, notes = _status(d2, omega1, omega3, d2_tolerance)
    if not notes:
        relation = "<=" if status is StabilityStatus.DEGENERATE else ">"
        notes = (f"abs(D2)={abs(d2):.6g} {relation} tolerance={d2_tolerance:.6g}",)
    return StabilityVerdict(status, d2, omega1, omega3, notes)


def stability_verdict(params: ModelParams, omega1: float, omega3: float,
                      d2_tolerance: float | None = None,
                      max_half_order: int | None = None) -> StabilityVerdict:
    """Evaluate the model at one frequency pair and classify the outcome.

    Without an explicit tolerance the degeneracy cut is the single-point rule
    of verdict_from_d2; only _model_d2, as d2_eval, checks the frequencies.
    """
    d2, _ = _model_d2(params, omega1, omega3, max_half_order)
    return _verdict(d2, omega1, omega3, d2_tolerance)


class ScanRow(NamedTuple):
    """One row of a scan: omega1, D2 there and the row's flag."""

    omega1: float
    d2: float
    flag: str  # "ok" | "pole" | "resonant" | "degenerate"


def scan_blocks(params: ModelParams, omega3: float, lo: float, hi: float,
                steps: int, d2_tolerance: float | None = None,
                max_half_order: int | None = None) -> Iterator[tuple[list, array, list]]:
    """Uniform scan of the determinant over omega1 in [lo, hi], endpoints
    included, as column blocks.

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
    iterator of (omega1s, d2s, flags) column blocks in grid order, each
    built as it is taken: a list of grid points, an array("d") of their D2
    and a list of their flags, at most FLAG_BLOCK rows long.  A block lies
    wholly inside or wholly outside the windows of _void_windows: rows
    inside go through _status, and every other row takes _BY_SIZE's flag
    for abs(D2) <= cut, by C-level work over its block (one minimum when
    the whole block lies above the cut), with no Python frame per row but
    the grid's.
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
    d2 = tabulated_kernel(coefficients(params, max_half_order), omega3)
    values = array("d")
    append = values.append
    # d2 itself per row; an exact pole alone goes through the nudge of _d2_point
    for omega1 in _grid(lo, hi, steps):
        try:
            append(d2(omega1))
        except PoleError:
            append(_d2_point(d2, omega1, omega3))

    # the kernel never returns a non-finite value, and the grid is not empty
    cut = _degeneracy_cut(d2_tolerance, lambda: _median_abs(values))
    return _column_blocks(values, _void_windows(omega3, lo, hi, steps), omega3, lo, hi, cut)


def scan_omega1(params: ModelParams, omega3: float, lo: float, hi: float,
                steps: int, d2_tolerance: float | None = None,
                max_half_order: int | None = None) -> Iterator[ScanRow]:
    """The rows of scan_blocks, one ScanRow each, built as they are taken.

    Every grid point is evaluated before this returns, so any error is raised
    here, as scan_blocks raises it.
    """
    blocks = scan_blocks(params, omega3, lo, hi, steps, d2_tolerance, max_half_order)
    return map(_SCAN_ROW, itertools.chain.from_iterable(itertools.starmap(zip, blocks)))


#: the scan flag of a _status triple and of each _BY_SIZE entry, and a
#: ScanRow from a 3-tuple of fields
_FLAG = itemgetter(1)
_FLAG_BY_SIZE = tuple(map(_FLAG, _BY_SIZE))
_SCAN_ROW = partial(tuple.__new__, ScanRow)


def _column_blocks(values, windows, omega3, lo, hi, cut) -> Iterator[tuple[list, array, list]]:
    """The (omega1s, d2s, flags) column blocks of a scan's rows, in order,
    each of at most FLAG_BLOCK rows and wholly inside or wholly outside the
    windows.

    Rows inside a window take _status's flag.  Outside, a block whose
    smallest |D2| is above the cut is all "ok", one list built at once;
    any other block takes _BY_SIZE's flag for each row's abs(D2) <= cut.
    """
    steps, by_size, ok, at = len(values), _FLAG_BY_SIZE.__getitem__, _FLAG_BY_SIZE[False], 0
    for start, stop in (*windows, (steps, steps)):
        for first, last, inside in ((at, start, False), (start, stop, True)):
            for b in range(first, last, FLAG_BLOCK):
                e = min(b + FLAG_BLOCK, last)
                omega1s, d2s = list(_grid(lo, hi, steps, b, e)), values[b:e]
                if inside:
                    flags = list(map(_FLAG, map(_status, d2s, omega1s,
                                                itertools.repeat(omega3), itertools.repeat(cut))))
                elif cut < min(map(abs, d2s)):
                    flags = [ok] * len(d2s)
                else:
                    flags = list(map(by_size, map(le, map(abs, d2s), itertools.repeat(cut))))
                yield omega1s, d2s, flags
        at = stop


def _grid(lo: float, hi: float, steps: int, start: int = 0,
          stop: int | None = None) -> Iterator[float]:
    """Points start to stop - 1 (default all) of the steps-point uniform grid
    on [lo, hi]: lo + k*step, then hi itself for the last."""
    step = (hi - lo) / (steps - 1)
    stop = steps if stop is None else stop
    points = (lo + k * step for k in range(start, min(stop, steps - 1)))
    return itertools.chain(points, (hi,)) if stop == steps else points
