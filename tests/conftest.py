"""Shared test helpers.

The lie_* functions are closed forms of the degree-4 normal-form coefficients
derived independently of the engine (by solving the homological equation
symbolically for the cubic/quartic model and reading off the surviving
action products).  They serve as the first-principles oracle for the
Lie-transform engine; they differ from birkhoff.closedform in the
quadratic-in-cubic sectors (see DISCREPANCIES.md).
"""

from fractions import Fraction

from birkhoff import CanonicalPolynomial

#: (mu, q, Q, A, omega1) with omega3 = 1: a model point inside the supported
#: domain (A <= 0.01) next to a root of D2, where the composed and expanded
#: determinants differ by 4.8e-9 of |D2| but by 1.4e-16 of the size of its
#: three terms; the verdict there is stable
CANCELLATION_POINT = (0.002720043807294557, 0.5463885506276273, 0.3866753034233212,
                      0.0048672361891881405, 0.5746535936534526)


def lie_k2200(c, freqs):
    w1, w3 = freqs.omega1, freqs.omega3
    return (-1.5 * c.b1 + 15.0 * c.a1 ** 2 / (4.0 * w1)
            + c.a2 ** 2 * (8.0 * w1 ** 2 - 3.0 * w3 ** 2)
            / (4.0 * w3 * (4.0 * w1 ** 2 - w3 ** 2)))


def lie_k1111(c, freqs):
    w1, w3 = freqs.omega1, freqs.omega3
    return (-c.b3 + 3.0 * c.a1 * c.a3 / w1 + 3.0 * c.a2 * c.a4 / w3
            + 0.5 * c.a2 ** 2 * (1.0 / (2.0 * w1 - w3) + 1.0 / (2.0 * w1 + w3))
            + 0.5 * c.a3 ** 2 * (1.0 / (w1 + 2.0 * w3) - 1.0 / (w1 - 2.0 * w3)))


def lie_k0022(c, freqs):
    w1, w3 = freqs.omega1, freqs.omega3
    return (-1.5 * c.b5 + 15.0 * c.a4 ** 2 / (4.0 * w3)
            + c.a3 ** 2 / (2.0 * w1)
            + c.a3 ** 2 * w1 / (4.0 * (w1 ** 2 - 4.0 * w3 ** 2)))


def lie_d2(c, freqs):
    w1, w3 = freqs.omega1, freqs.omega3
    return -(lie_k2200(c, freqs) * w3 ** 2
             + lie_k1111(c, freqs) * w1 * w3
             + lie_k0022(c, freqs) * w1 ** 2)


def random_exact_polynomial(rng, max_degree=4, max_terms=6, chart="real"):
    """Random polynomial with exact Fraction coefficients and degree <= max_degree."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            e = tuple(rng.randint(0, max_degree) for _ in range(4))
            if sum(e) <= max_degree:
                break
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            terms[e] = terms.get(e, 0) + c
    return CanonicalPolynomial(terms, chart)


def draw_nonresonant_frequencies(rng, lo=0.1, hi=5.0, min_gap=0.05):
    """Frequency pair with every low-order resonance divisor above min_gap."""
    while True:
        w1 = rng.uniform(lo, hi)
        w3 = rng.uniform(lo, hi)
        gaps = (abs(2 * w1 - w3), abs(w1 - 2 * w3), abs(w1 - w3),
                abs(3 * w1 - w3), abs(w1 - 3 * w3))
        if min(gaps) > min_gap:
            return w1, w3
