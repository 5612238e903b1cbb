"""Lie-transform normalization of graded Hamiltonians through degree 4.

The generator is built term by term from the homological rule: a monomial
X1^j Y1^l X2^r Y2^s with coefficient A is cancelled by a generator term with
coefficient i*A / (omega1*(l - j) + omega3*(s - r)).  Monomials with j = l and
r = s have a vanishing denominator, cannot be cancelled, and survive into the
normal form.  No cubic monomial is resonant (its degree is odd), so K3 = 0
and the degree-4 stage uses the standard second-order combination
K4 = H4 + (1/2){H3, w3deg} + {H2, w4deg}, with the w4deg contribution
realized implicitly by discarding the cancelled terms.

The stability determinant is D2 = -(K2200*omega3^2 + K1111*omega1*omega3
+ K0022*omega1^2); the equilibrium is formally stable when D2 != 0 and the
frequencies avoid low-order resonances.
"""

from __future__ import annotations

from typing import NamedTuple

from .closedform import CubicQuarticCoefficients, build_model_hamiltonian, d2_from_k
from .polyalg import (
    COMPLEX_CHART,
    CanonicalPolynomial,
    Exponents,
    Frequencies,
    GradedHamiltonian,
    NonFiniteCoefficientError,
    poisson_bracket,
)

#: divisors within this window (times the largest frequency) are reported in
#: NormalFormReport.resonance_flags even when the term is still eliminated
NEAR_RESONANCE_WINDOW = 1e-3

#: the quadratic part may differ from i*omega1*X1*Y1 + i*omega3*X2*Y2 by this
#: much, times the largest frequency
QUADRATIC_REL_TOL = 1e-9

#: a divisor below this, times the largest frequency, cannot be eliminated
#: (ResonanceError); rtbpmodel's verdict applies the same rule to its gaps
DIVISOR_REL_TOL = 1e-9


class ResonanceError(ValueError):
    """A divisor fell below tolerance for a term that must be eliminated."""

    def __init__(self, exponents: Exponents, divisor: float):
        self.exponents = tuple(exponents)
        self.divisor = divisor
        super().__init__(f"divisor {divisor!r} below tolerance for monomial "
                         f"{self.exponents}; the generator coefficient would blow up")


class NormalFormReport(NamedTuple):
    """Outcome of a degree-4 normalization.

    k2200/k1111/k0022 are the real parts of the surviving action-product
    coefficients (their imaginary parts vanish for Hamiltonians that come
    from a real chart).  generating holds the generator pieces of degree 3
    and 4, kamiltonian the normal form through degree 4.
    """

    k2200: float
    k1111: float
    k0022: float
    d2: float
    resonance_flags: tuple[tuple[Exponents, float], ...]
    generating: GradedHamiltonian
    kamiltonian: GradedHamiltonian

    def to_json_dict(self) -> dict:
        return {
            "K2200": self.k2200,
            "K1111": self.k1111,
            "K0022": self.k0022,
            "D2": self.d2,
            "resonances": [
                {"exponents": list(e), "divisor": d} for e, d in self.resonance_flags
            ],
            "generating": self.generating.to_json_dict(),
        }


def _check_diagonal_quadratic(h2: CanonicalPolynomial, freqs: Frequencies,
                              scale: float):
    expected = {(1, 1, 0, 0): 1j * freqs.omega1, (0, 0, 1, 1): 1j * freqs.omega3}
    for e, c in h2.terms.items():
        want = expected.pop(e, None)
        if want is None:
            raise ValueError(
                f"quadratic part has off-diagonal term {e}; normalize requires "
                "i*omega1*X1*Y1 + i*omega3*X2*Y2")
        if abs(c - want) > QUADRATIC_REL_TOL * scale:
            raise ValueError(
                f"quadratic coefficient {c!r} at {e} does not match i*omega "
                f"({want!r}) within {QUADRATIC_REL_TOL!r} relative")
    for e, want in expected.items():
        raise ValueError(f"quadratic part is missing the diagonal term {e} "
                         f"with coefficient {want!r}")


def _eliminate(source: CanonicalPolynomial, freqs: Frequencies, tolerance: float,
               flag_window: float):
    """Split a homogeneous source into (generator part, surviving part, flags).

    The only place the homological rule of the module docstring is applied.
    A divisor below tolerance raises ResonanceError; one below flag_window is
    flagged.
    """
    omega1, omega3 = freqs.omega1, freqs.omega3
    w_terms: dict[Exponents, complex] = {}
    kept: dict[Exponents, complex] = {}
    flags: list[tuple[Exponents, float]] = []
    for e, c in source.terms.items():
        j, l, r, s = e
        if j == l and r == s:
            kept[e] = c
            continue
        d = omega1 * (l - j) + omega3 * (s - r)
        if abs(d) < tolerance:
            raise ResonanceError(e, d)
        w_terms[e] = 1j * c / d
        if abs(d) < flag_window:
            flags.append((e, d))
    return (CanonicalPolynomial._from_checked(w_terms, COMPLEX_CHART),
            CanonicalPolynomial._from_checked(kept, COMPLEX_CHART),
            flags)


def normalize(ham: GradedHamiltonian) -> NormalFormReport:
    """Bring a Hamiltonian to normal form through degree 4.

    Parts of degree above 4 do not influence the result through this order
    and are ignored, in either chart: of a real-chart Hamiltonian only the
    parts of degree 2 to 4 are complexified.  The complex-chart quadratic
    part must be diagonal, i*omega1*X1*Y1 + i*omega3*X2*Y2.  All
    non-resonant degree-3 and degree-4 terms are eliminated; resonant
    monomials (j = l, r = s) are retained and the surviving (X1Y1)^2,
    X1Y1X2Y2, (X2Y2)^2 coefficients give the stability determinant.

    Raises ResonanceError when any required divisor is below DIVISOR_REL_TOL
    times the largest frequency, and NonFiniteCoefficientError, naming the
    stage, when a coefficient overflows a double on the way.
    """
    # the stage names the polynomial being built, for a coefficient that
    # overflows in it: the monomial alone names a term the input never had
    stage = "complexified H2 + H3 + H4"
    try:
        if ham.chart != COMPLEX_CHART:
            ham = GradedHamiltonian._from_checked(
                {d: ham.part(d) for d in (2, 3, 4)}, ham.chart,
                ham.frequencies).complexify()
        freqs = ham.frequencies
        scale = max(freqs.omega1, freqs.omega3)
        tolerance = DIVISOR_REL_TOL * scale
        flag_window = NEAR_RESONANCE_WINDOW * scale

        h2 = ham.part(2)
        _check_diagonal_quadratic(h2, freqs, scale)

        h3 = ham.part(3)
        stage = "degree-3 generator W3"
        # nothing of h3 survives: no cubic monomial has j = l and r = s
        w_deg3, _, flags3 = _eliminate(h3, freqs, tolerance, flag_window)

        stage = "degree-4 source H4 + {H3, W3}/2"
        # one pass and one purge: half of each bracket term, in its order,
        # added to a copy of H4; a half that rounds to 0 adds nothing
        source4 = ham.part(4).terms
        for e, c in poisson_bracket(h3, w_deg3).terms.items():
            c = c * 0.5
            if c != 0:
                source4[e] = source4.get(e, 0) + c
        stage = "degree-4 generator W4"
        w_deg4, k4, flags4 = _eliminate(
            CanonicalPolynomial._from_checked(source4, COMPLEX_CHART), freqs,
            tolerance, flag_window)
    except NonFiniteCoefficientError as err:
        raise NonFiniteCoefficientError(f"{stage}: {err}") from err

    k2200, k1111, k0022 = (complex(k4.coefficient(e)).real
                           for e in ((2, 2, 0, 0), (1, 1, 1, 1), (0, 0, 2, 2)))

    return NormalFormReport(
        k2200=k2200,
        k1111=k1111,
        k0022=k0022,
        d2=d2_from_k(k2200, k1111, k0022, *freqs),
        resonance_flags=tuple(flags3 + flags4),
        generating=GradedHamiltonian._from_checked(
            {3: w_deg3, 4: w_deg4}, COMPLEX_CHART, freqs),
        kamiltonian=GradedHamiltonian._from_checked({2: h2, 4: k4}, COMPLEX_CHART, freqs),
    )


def frequency_shift_1dof(omega: float, a: float, b: float) -> float:
    """Action-squared coefficient of the normal form of (w/2)(q^2+p^2) + a q^3 + b q^4.

    Runs the engine on the cubic/quartic model with a1 = a, b1 = b and the
    second mode switched off; a and b must be finite.  The second frequency is
    a dummy equal to omega: no model term touches that mode, so it enters no
    divisor, and omega alone sets the resonance tolerance.  The predicted
    orbital frequency at action J is omega + 2*c2*J + O(J^2) where c2 is the
    returned value.
    """
    ham = build_model_hamiltonian(CubicQuarticCoefficients(a1=a, b1=b),
                                  Frequencies(omega, omega))
    report = normalize(ham)
    # K4 = k2200*(X1 Y1)^2 with X1 Y1 = -i J, so K(J) = omega*J - k2200*J^2
    return -report.k2200
