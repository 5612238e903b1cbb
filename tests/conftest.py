"""Shared test helpers.

CanonicalPolynomial has no arithmetic, so poly_sum, poly_product and
poly_scaled build the identities' sums and products from .terms dicts.

The lie_* functions are closed forms of the degree-4 normal-form coefficients
derived independently of the engine (by solving the homological equation
symbolically for the cubic/quartic model and reading off the surviving
action products).  They serve as the first-principles oracle for the
Lie-transform engine; they differ from birkhoff.closedform in the
quadratic-in-cubic sectors (see DISCREPANCIES.md).
"""

import hashlib
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from birkhoff import (
    CanonicalPolynomial,
    Frequencies,
    ModelParams,
    build_model_hamiltonian,
    coefficients,
)

#: (mu, q, Q, A, omega1) with omega3 = 1: a model point inside the supported
#: domain (A <= 0.01) next to a root of D2, where the composed and expanded
#: determinants differ by 4.8e-9 of |D2| but by 1.4e-16 of the size of its
#: three terms; the verdict there is stable
CANCELLATION_POINT = (0.002720043807294557, 0.5463885506276273, 0.3866753034233212,
                      0.0048672361891881405, 0.5746535936534526)


#: values that no site taking a number accepts, whatever its range: not
#: finite, not a real (a bool, a Decimal, a string, None) or past a double;
#: each site's rejection test feeds them in and expects its own message
REFUSED_NUMBERS = [pytest.param(value, id=f"refused-{label}") for label, value in (
    ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("True", True),
    ("Decimal('1')", Decimal("1")), ("'x'", "x"), ("None", None), ("10**400", 10**400))]


def assert_digest(lines, digest, tmp_path):
    """Assert that the SHA-256 of the joined lines is digest.

    On a mismatch the lines are written to a file under tmp_path, which the
    failure names, so a re-pin can be diffed against the old outcomes.
    """
    text = "\n".join(lines)
    got = hashlib.sha256(text.encode()).hexdigest()
    if got != digest:
        path = tmp_path / "outcomes.txt"
        path.write_text(text + "\n", encoding="utf-8")
        raise AssertionError(f"digest {got} != pinned {digest}; outcome lines in {path}")


def reference_model_hamiltonian():
    """Real-chart model Hamiltonian at (mu, q, Q, A) = (0.00025, 0.025, 0.00025,
    0.00025) with omega1 = 0.3, omega3 = 1.  Its quadratic coefficients are
    1e-17 to 1e-21 of its cubic and quartic ones, and its cubic generator
    terms 1e-15 and less of its quartic ones."""
    params = ModelParams(mu=0.00025, q=0.025, Q=0.00025, A=0.00025)
    return build_model_hamiltonian(coefficients(params), Frequencies(0.3, 1.0))


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


def poly_sum(*polys):
    """The sum of polynomials that share one chart."""
    (chart,) = {p.chart for p in polys}
    total = {}
    for p in polys:
        for e, c in p.terms.items():
            total[e] = total.get(e, 0) + c
    return CanonicalPolynomial(total, chart)


def poly_product(f, g):
    """The product of two polynomials that share one chart."""
    (chart,) = {f.chart, g.chart}
    product = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            product[e] = product.get(e, 0) + c1 * c2
    return CanonicalPolynomial(product, chart)


def poly_scaled(k, p):
    """The polynomial p times the number k."""
    return CanonicalPolynomial({e: k * c for e, c in p.terms.items()}, p.chart)


def homogeneous_part(p, d):
    """The terms of p of total degree d."""
    return CanonicalPolynomial({e: c for e, c in p.terms.items() if sum(e) == d}, p.chart)


def max_abs_coefficient(p):
    """The largest coefficient size of p, 0.0 for the zero polynomial."""
    return max(map(abs, p.terms.values()), default=0.0)


def assert_record_refuses(record, error, match, **fields):
    """A built record refuses the fields as its constructor does.

    record._replace(**fields) raises error matching match, since _replace
    builds through the checking constructor; assigning any of the fields
    raises AttributeError, and the record has no __dict__ to hold it instead.
    """
    with pytest.raises(error, match=match):
        record._replace(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert not hasattr(record, "__dict__")


def scaled_coefficients(coeffs, lam):
    """Cubic coefficients scaled by lam and quartic ones by lam**2."""
    factors = {"a1": lam, "a2": lam, "a3": lam, "a4": lam,
               "b1": lam * lam, "b3": lam * lam, "b5": lam * lam}
    return coeffs._replace(**{k: f * getattr(coeffs, k) for k, f in factors.items()})


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
