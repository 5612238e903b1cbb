"""realify, the inverse of birkhoff.polyalg.complexify, as a test reference.

The package changes chart one way only, real to complex; the tests check
complexify by a round trip through this inverse.  It expands each term's
binomials in plain nested loops, with no monomial table, in the order the
package's table-driven chart change used, so its coefficients are the same
doubles.  Needs only the standard library, so the pin modules that import it
run under tests/run_pins.py as well.
"""

import math

from birkhoff.polyalg import (COMPLEX_CHART, REAL_CHART, CanonicalPolynomial,
                              ChartMismatchError)

_SQRT1_2 = math.sqrt(0.5)


def _linear_power(c1, c2, e):
    # [(power of q, power of p, coefficient)] of (c1*q + c2*p)**e
    return [(t, e - t, math.comb(e, t) * c1 ** t * c2 ** (e - t)) for t in range(e + 1)]


def _mode(ea, eb):
    # {(power of q, power of p): coefficient} of (q - i p)**ea * (p - i q)**eb
    out = {}
    for u1, v1, ca in _linear_power(1, -1j, ea):
        for u2, v2, cb in _linear_power(-1j, 1, eb):
            key = (u1 + u2, v1 + v2)
            out[key] = out.get(key, 0) + ca * cb
    return out


def realify(f: CanonicalPolynomial) -> CanonicalPolynomial:
    """Inverse of complexify: Xk = (qk - i pk)/sqrt(2), Yk = (pk - i qk)/sqrt(2)."""
    if f.chart != COMPLEX_CHART:
        raise ChartMismatchError("realify expects a complex-chart polynomial")
    out = {}
    for (j, l, r, s), c in f.terms.items():
        d = j + l + r + s
        base = c * (0.5 ** (d // 2) * (_SQRT1_2 if d % 2 else 1.0))
        for (x1, y1), c1 in _mode(j, l).items():
            for (x2, y2), c2 in _mode(r, s).items():
                e = (x1, y1, x2, y2)
                out[e] = out.get(e, 0) + base * c1 * c2
    return CanonicalPolynomial(out, REAL_CHART)
