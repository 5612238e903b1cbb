"""Lie-transform normalization of graded Hamiltonians through degree 4.

The generator is built term by term from the homological rule: a monomial
X1^j Y1^l X2^r Y2^s with coefficient A is cancelled by a generator term with
coefficient i*A / (omega1*(l - j) + omega3*(s - r)).  Monomials with j = l and
r = s have a vanishing denominator, cannot be cancelled, and survive into the
normal form.  The degree-4 stage uses the standard second-order combination
K4 = H4 + (1/2){H3 + K3, w3deg} + {H2, w4deg}, with the w4deg contribution
realized implicitly by discarding the cancelled terms.

The stability determinant is D2 = -(K2200*omega3^2 + K1111*omega1*omega3
+ K0022*omega1^2); the equilibrium is formally stable when D2 != 0 and the
frequencies avoid low-order resonances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .closedform import d2_from_k
from .polyalg import (
    COMPLEX_CHART,
    CanonicalPolynomial,
    Exponents,
    Frequencies,
    GradedHamiltonian,
    complexify,
    poisson_bracket,
)

#: divisors within this window (times the largest frequency) are reported in
#: NormalFormReport.resonance_flags even when the term is still eliminated
NEAR_RESONANCE_WINDOW = 1e-3


class ResonanceError(ValueError):
    """A divisor fell below tolerance for a term that must be eliminated."""

    def __init__(self, exponents: Exponents, divisor: float, message: str | None = None):
        self.exponents = tuple(exponents)
        self.divisor = divisor
        if message is None:
            message = (f"divisor {divisor!r} below tolerance for monomial "
                       f"{self.exponents}; the generator coefficient would blow up")
        super().__init__(message)


def divisor(exponents, freqs: Frequencies) -> float:
    """omega1*(l - j) + omega3*(s - r) for exponents (j, l, r, s)."""
    j, l, r, s = exponents
    return freqs.omega1 * (l - j) + freqs.omega3 * (s - r)


def is_resonant(exponents) -> bool:
    """True for a pure action product X1^j Y1^j X2^r Y2^r (j = l and r = s)."""
    j, l, r, s = exponents
    return j == l and r == s


def _divisor_tolerance(freqs: Frequencies, divisor_tolerance: float | None) -> float:
    """1e-9 times the largest frequency for None; anything but a positive
    finite real raises ValueError."""
    if divisor_tolerance is None:
        return 1e-9 * freqs.largest
    if not (math.isfinite(divisor_tolerance) and divisor_tolerance > 0):
        raise ValueError("divisor_tolerance must be a positive finite real, "
                         f"got {divisor_tolerance!r}")
    return divisor_tolerance


def solve_homological_term(coefficient: complex, exponents, freqs: Frequencies,
                           divisor_tolerance: float | None = None) -> complex:
    """Generator coefficient i*A/(omega1*(l-j) + omega3*(s-r)) for one monomial.

    Raises ResonanceError when the denominator is below tolerance, which
    includes every monomial with j = l and r = s.
    """
    exponents = tuple(exponents)
    divisor_tolerance = _divisor_tolerance(freqs, divisor_tolerance)
    d = divisor(exponents, freqs)
    if is_resonant(exponents) or abs(d) < divisor_tolerance:
        raise ResonanceError(exponents, d)
    return 1j * coefficient / d


@dataclass(frozen=True)
class GeneratingFunction:
    """Homogeneous generator pieces keyed by degree (3 for order 1, 4 for order 2)."""

    parts: Mapping[int, CanonicalPolynomial]

    def part(self, d: int) -> CanonicalPolynomial:
        return self.parts.get(d, CanonicalPolynomial.zero(COMPLEX_CHART))


@dataclass(frozen=True)
class NormalFormReport:
    """Outcome of a degree-4 normalization.

    k2200/k1111/k0022 are the real parts of the surviving action-product
    coefficients; max_imag_residual records the largest imaginary part seen
    relative to the coefficient scale (it vanishes for Hamiltonians that come
    from a real chart).
    """

    k2200: float
    k1111: float
    k0022: float
    d2: float
    resonance_flags: tuple[tuple[Exponents, float], ...]
    generating: GeneratingFunction
    kamiltonian: GradedHamiltonian
    max_imag_residual: float

    def to_json_dict(self) -> dict:
        return {
            "K2200": self.k2200,
            "K1111": self.k1111,
            "K0022": self.k0022,
            "D2": self.d2,
            "resonances": [
                {"exponents": list(e), "divisor": d} for e, d in self.resonance_flags
            ],
            "generating": GradedHamiltonian(
                dict(self.generating.parts), self.kamiltonian.frequencies
            ).to_json_dict() if self.generating.parts else {
                "dof": 2, "chart": COMPLEX_CHART,
                "frequencies": [self.kamiltonian.frequencies.omega1,
                                self.kamiltonian.frequencies.omega3],
                "terms": [],
            },
        }


def _check_diagonal_quadratic(h2: CanonicalPolynomial, freqs: Frequencies,
                              rel_tol: float = 1e-9):
    expected = {(1, 1, 0, 0): 1j * freqs.omega1, (0, 0, 1, 1): 1j * freqs.omega3}
    scale = freqs.largest
    for e, c in h2.terms.items():
        want = expected.pop(e, None)
        if want is None:
            raise ValueError(
                f"quadratic part has off-diagonal term {e}; normalize requires "
                "i*omega1*X1*Y1 + i*omega3*X2*Y2")
        if abs(c - want) > rel_tol * scale:
            raise ValueError(
                f"quadratic coefficient {c!r} at {e} does not match i*omega "
                f"({want!r}) within {rel_tol!r} relative")
    for e, want in expected.items():
        raise ValueError(f"quadratic part is missing the diagonal term {e} "
                         f"with coefficient {want!r}")


def _eliminate(source: CanonicalPolynomial, freqs: Frequencies, tol: float,
               flag_window: float):
    """Split a homogeneous source into (generator part, surviving resonant part)."""
    w_terms: dict[Exponents, complex] = {}
    kept: dict[Exponents, complex] = {}
    flags: list[tuple[Exponents, float]] = []
    for e, c in source.terms.items():
        if is_resonant(e):
            kept[e] = c
            continue
        w_terms[e] = solve_homological_term(c, e, freqs, tol)
        d = divisor(e, freqs)
        if abs(d) < flag_window:
            flags.append((e, d))
    return (CanonicalPolynomial._from_checked(w_terms, COMPLEX_CHART),
            CanonicalPolynomial._from_checked(kept, COMPLEX_CHART),
            flags)


def normalize(ham: GradedHamiltonian, order: int = 2,
              divisor_tolerance: float | None = None) -> NormalFormReport:
    """Bring a complex-chart Hamiltonian to normal form through degree 4.

    The input quadratic part must already be diagonal, i*omega1*X1*Y1 +
    i*omega3*X2*Y2.  All non-resonant degree-3 and degree-4 terms are
    eliminated; resonant monomials (j = l, r = s) are retained and the
    surviving (X1Y1)^2, X1Y1X2Y2, (X2Y2)^2 coefficients give the stability
    determinant.  Parts of degree above 4 do not influence the result through
    this order and are ignored.

    Raises ResonanceError when any required divisor is below tolerance
    (default 1e-9 times the largest frequency), and ValueError for a
    tolerance that is not a positive finite real.
    """
    if order != 2:
        raise ValueError("only order 2 (normalization through degree 4) is supported")
    if ham.chart != COMPLEX_CHART:
        raise ValueError("normalize expects the complex chart; complexify first")
    freqs = ham.frequencies
    divisor_tolerance = _divisor_tolerance(freqs, divisor_tolerance)
    flag_window = NEAR_RESONANCE_WINDOW * freqs.largest

    h2 = ham.part(2)
    _check_diagonal_quadratic(h2, freqs)

    h3 = ham.part(3)
    w_deg3, k3, flags3 = _eliminate(h3, freqs, divisor_tolerance, flag_window)

    # standard second-order combination; k3 is empty (no cubic is resonant)
    source4 = ham.part(4) + 0.5 * poisson_bracket(h3 + k3, w_deg3)
    w_deg4, k4, flags4 = _eliminate(source4, freqs, divisor_tolerance, flag_window)

    targets = {(2, 2, 0, 0): None, (1, 1, 1, 1): None, (0, 0, 2, 2): None}
    values = {}
    scale = max(k4.max_abs_coefficient(), 1e-300)
    worst_imag = 0.0
    for e in targets:
        c = complex(k4.coefficient(e))
        values[e] = c.real
        worst_imag = max(worst_imag, abs(c.imag) / scale)
    k2200 = values[(2, 2, 0, 0)]
    k1111 = values[(1, 1, 1, 1)]
    k0022 = values[(0, 0, 2, 2)]

    gen_parts = {}
    if not w_deg3.is_zero:
        gen_parts[3] = w_deg3
    if not w_deg4.is_zero:
        gen_parts[4] = w_deg4

    kam_parts = {2: h2}
    if not k3.is_zero:
        kam_parts[3] = k3
    if not k4.is_zero:
        kam_parts[4] = k4

    return NormalFormReport(
        k2200=k2200,
        k1111=k1111,
        k0022=k0022,
        d2=d2_from_k(k2200, k1111, k0022, freqs),
        resonance_flags=tuple(flags3 + flags4),
        generating=GeneratingFunction(gen_parts),
        kamiltonian=GradedHamiltonian(kam_parts, freqs),
        max_imag_residual=worst_imag,
    )


def frequency_shift_1dof(omega: float, a: float, b: float) -> float:
    """Action-squared coefficient of the normal form of (w/2)(q^2+p^2) + a q^3 + b q^4.

    Runs the engine with the second mode switched off (its frequency is a
    dummy; no mixed terms exist).  The predicted orbital frequency at action J
    is omega + 2*c2*J + O(J^2) where c2 is the returned value.
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be positive")
    q1_sq = CanonicalPolynomial({(2, 0, 0, 0): 1.0})
    p1_sq = CanonicalPolynomial({(0, 2, 0, 0): 1.0})
    q2_sq = CanonicalPolynomial({(0, 0, 2, 0): 1.0})
    p2_sq = CanonicalPolynomial({(0, 0, 0, 2): 1.0})
    parts = {2: 0.5 * omega * (q1_sq + p1_sq) + 0.5 * (q2_sq + p2_sq)}
    if a:
        parts[3] = CanonicalPolynomial({(3, 0, 0, 0): float(a)})
    if b:
        parts[4] = CanonicalPolynomial({(4, 0, 0, 0): float(b)})
    ham = GradedHamiltonian(parts, Frequencies(omega, 1.0)).complexify()
    report = normalize(ham)
    # K4 = k2200*(X1 Y1)^2 with X1 Y1 = -i J, so K(J) = omega*J - k2200*J^2
    return -report.k2200
