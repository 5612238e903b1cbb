"""Sparse polynomial algebra in two canonical degrees of freedom.

Polynomials live in four variables read either as the real canonical chart
(q1, p1, q2, p2) or the complex diagonalizing chart (X1, Y1, X2, Y2).
Terms are stored sparsely as a mapping from exponent tuples to coefficients.
Coefficients may be floats/complex for numerical work or exact types
(int, Fraction) when exact arithmetic is wanted; all operations are pure and
values are immutable after construction.  Exponent tuples are checked once,
where they enter through the public constructors; results the module builds
itself skip that check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Number
from typing import Iterator, Mapping

REAL_CHART = "real"
COMPLEX_CHART = "complex"
_CHARTS = (REAL_CHART, COMPLEX_CHART)

#: coefficients smaller than this, relative to the largest term, are purged
#: (floating-point coefficients only; exact coefficients are kept unless zero)
ZERO_TOLERANCE = 1e-14

_SQRT1_2 = math.sqrt(0.5)

Exponents = tuple[int, int, int, int]


class ChartMismatchError(ValueError):
    """An operation mixed polynomials from different charts."""


def _validate_exponents(exponents) -> Exponents:
    """Four non-negative ints; a bool, float or string exponent raises ValueError."""
    e = tuple(exponents)
    if len(e) != 4 or not all(type(v) is int and v >= 0 for v in e):
        raise ValueError(
            f"exponents must be four non-negative integers, got {exponents!r}")
    return e


def _clean_terms(terms: Mapping[Exponents, complex]) -> dict[Exponents, complex]:
    nonzero = {e: c for e, c in terms.items() if c != 0}
    if not nonzero:
        return {}
    if any(isinstance(c, (float, complex)) for c in nonzero.values()):
        cutoff = ZERO_TOLERANCE * max(abs(c) for c in nonzero.values())
        nonzero = {e: c for e, c in nonzero.items() if abs(c) > cutoff}
    return nonzero


class CanonicalPolynomial:
    """Sparse polynomial over exponent tuples (j, l, r, s) in a fixed chart."""

    __slots__ = ("_terms", "chart")

    def __init__(self, terms: Mapping[Exponents, complex] | None = None,
                 chart: str = REAL_CHART):
        if chart not in _CHARTS:
            raise ValueError(f"unknown chart {chart!r}")
        cleaned = {}
        if terms:
            cleaned = _clean_terms({_validate_exponents(e): c for e, c in terms.items()})
        self._terms = cleaned
        self.chart = chart

    @classmethod
    def _from_checked(cls, terms: Mapping[Exponents, complex],
                      chart: str) -> "CanonicalPolynomial":
        # terms keyed by exponent tuples the package built from checked ones;
        # the relative-zero purge still runs, as in the public constructor
        poly = cls.__new__(cls)
        poly._terms = _clean_terms(terms)
        poly.chart = chart
        return poly

    @classmethod
    def zero(cls, chart: str = REAL_CHART) -> "CanonicalPolynomial":
        return cls({}, chart)

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, complex]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Exponents]:
        return iter(self._terms)

    def coefficient(self, exponents) -> complex:
        return self._terms.get(tuple(exponents), 0)

    def degree(self) -> int | None:
        """Total degree of the largest term, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    def sorted_terms(self) -> list[tuple[Exponents, complex]]:
        """Terms in graded lexicographic order (degree, then exponents)."""
        return sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def homogeneous_part(self, d: int) -> "CanonicalPolynomial":
        if d < 0:
            raise ValueError("degree must be non-negative")
        picked = {e: c for e, c in self._terms.items() if sum(e) == d}
        return CanonicalPolynomial._from_checked(picked, self.chart)

    def homogeneous_parts(self) -> dict[int, "CanonicalPolynomial"]:
        split: dict[int, dict] = {}
        for e, c in self._terms.items():
            split.setdefault(sum(e), {})[e] = c
        return {d: CanonicalPolynomial._from_checked(t, self.chart)
                for d, t in sorted(split.items())}

    # -- arithmetic ---------------------------------------------------------

    def _check_chart(self, other: "CanonicalPolynomial"):
        if self.chart != other.chart:
            raise ChartMismatchError(
                f"cannot combine {self.chart!r} and {other.chart!r} chart polynomials"
            )

    def __add__(self, other):
        if not isinstance(other, CanonicalPolynomial):
            return NotImplemented
        self._check_chart(other)
        merged = dict(self._terms)
        for e, c in other._terms.items():
            merged[e] = merged.get(e, 0) + c
        return CanonicalPolynomial._from_checked(merged, self.chart)

    def __sub__(self, other):
        if not isinstance(other, CanonicalPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return CanonicalPolynomial._from_checked(
            {e: -c for e, c in self._terms.items()}, self.chart)

    def __mul__(self, other):
        if isinstance(other, CanonicalPolynomial):
            self._check_chart(other)
            prod: dict[Exponents, complex] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                    prod[key] = prod.get(key, 0) + c1 * c2
            return CanonicalPolynomial._from_checked(prod, self.chart)
        if isinstance(other, Number):
            return CanonicalPolynomial._from_checked(
                {e: c * other for e, c in self._terms.items()}, self.chart)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CanonicalPolynomial):
            return NotImplemented
        return self.chart == other.chart and self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        if not self._terms:
            return f"CanonicalPolynomial(0, chart={self.chart!r})"
        body = " + ".join(f"{c!r}*{e}" for e, c in self.sorted_terms())
        return f"CanonicalPolynomial({body}, chart={self.chart!r})"

    def max_abs_coefficient(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)


def poisson_bracket(f: CanonicalPolynomial, g: CanonicalPolynomial) -> CanonicalPolynomial:
    """{f, g} = sum_k (df/dXk dg/dYk - df/dYk dg/dXk) over both canonical pairs.

    The same formula applies in the real chart with (qk, pk).  Bilinear,
    antisymmetric, satisfies the Jacobi and Leibniz identities exactly for
    exact coefficients.
    """
    f._check_chart(g)
    acc: dict[Exponents, complex] = {}
    for e1, c1 in f._terms.items():
        for e2, c2 in g._terms.items():
            c12 = c1 * c2
            for k in (0, 2):
                a, b = e1[k], e1[k + 1]
                cc, dd = e2[k], e2[k + 1]
                mult = a * dd - b * cc
                if mult == 0:
                    continue
                exps = [e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3]]
                exps[k] -= 1
                exps[k + 1] -= 1
                key = tuple(exps)
                acc[key] = acc.get(key, 0) + mult * c12
    return CanonicalPolynomial._from_checked(acc, f.chart)


def _expand_linear_power(c1, c2, e: int) -> dict[tuple[int, int], complex]:
    # coefficients of (c1*U + c2*V)**e, keyed by (power of U, power of V)
    return {(t, e - t): math.comb(e, t) * c1 ** t * c2 ** (e - t) for t in range(e + 1)}


def _expand_mode(ea: int, eb: int, fa, fb) -> dict[tuple[int, int], complex]:
    # (fa . (U,V))**ea * (fb . (U,V))**eb  for one canonical pair
    out: dict[tuple[int, int], complex] = {}
    for (u1, v1), ca in _expand_linear_power(fa[0], fa[1], ea).items():
        for (u2, v2), cb in _expand_linear_power(fb[0], fb[1], eb).items():
            key = (u1 + u2, v1 + v2)
            out[key] = out.get(key, 0) + ca * cb
    return out


def _substitute(f: CanonicalPolynomial, first_form, second_form,
                new_chart: str) -> CanonicalPolynomial:
    # Both canonical pairs get the same unit-free linear substitution; the
    # overall 2**(-degree/2) normalization is applied per term so that even
    # degrees scale by exact powers of one half.
    out: dict[Exponents, complex] = {}
    for (j, l, r, s), c in f._terms.items():
        d = j + l + r + s
        scale = 0.5 ** (d // 2) * (_SQRT1_2 if d % 2 else 1.0)
        mode1 = _expand_mode(j, l, first_form, second_form)
        mode2 = _expand_mode(r, s, first_form, second_form)
        base = c * scale
        for (x1, y1), c1 in mode1.items():
            for (x2, y2), c2 in mode2.items():
                key = (x1, y1, x2, y2)
                out[key] = out.get(key, 0) + base * c1 * c2
    return CanonicalPolynomial._from_checked(out, new_chart)


def complexify(f: CanonicalPolynomial) -> CanonicalPolynomial:
    """Change chart via qk = (Xk + i Yk)/sqrt(2), pk = (i Xk + Yk)/sqrt(2).

    The substitution is canonical, so the Poisson bracket is equivariant:
    complexify({f, g}) = {complexify(f), complexify(g)}.
    """
    if f.chart != REAL_CHART:
        raise ChartMismatchError("complexify expects a real-chart polynomial")
    return _substitute(f, (1, 1j), (1j, 1), COMPLEX_CHART)


def realify(f: CanonicalPolynomial) -> CanonicalPolynomial:
    """Inverse of :func:`complexify`: Xk = (qk - i pk)/sqrt(2), Yk = (pk - i qk)/sqrt(2)."""
    if f.chart != COMPLEX_CHART:
        raise ChartMismatchError("realify expects a complex-chart polynomial")
    return _substitute(f, (1, -1j), (-1j, 1), REAL_CHART)


@dataclass(frozen=True)
class Frequencies:
    """The pair of basic frequencies (planar omega1, vertical omega3)."""

    omega1: float
    omega3: float

    def __post_init__(self):
        for name in ("omega1", "omega3"):
            v = getattr(self, name)
            try:
                # the exact-type test spares plain floats and ints the ABC check
                ok = ((type(v) in (float, int) or isinstance(v, Number))
                      and math.isfinite(v) and v > 0)
            except TypeError:  # complex
                ok = False
            if not ok:
                raise ValueError(f"{name} must be a positive finite real, got {v!r}")

    @property
    def largest(self) -> float:
        return max(self.omega1, self.omega3)


class GradedHamiltonian:
    """Homogeneous pieces of a polynomial Hamiltonian, keyed by degree >= 2."""

    __slots__ = ("_parts", "frequencies")

    def __init__(self, parts: Mapping[int, CanonicalPolynomial],
                 frequencies: Frequencies):
        if not isinstance(frequencies, Frequencies):
            frequencies = Frequencies(*frequencies)
        stored: dict[int, CanonicalPolynomial] = {}
        chart = None
        for d, poly in parts.items():
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"part degrees start at 2, got {d!r}")
            if poly.is_zero:
                continue
            if any(sum(e) != d for e in poly):
                raise ValueError(f"part {d} is not homogeneous of degree {d}")
            if chart is None:
                chart = poly.chart
            elif poly.chart != chart:
                raise ChartMismatchError("all parts must share one chart")
            stored[d] = poly
        self._parts = stored
        self.frequencies = frequencies

    @property
    def chart(self) -> str:
        for poly in self._parts.values():
            return poly.chart
        return REAL_CHART

    @property
    def parts(self) -> dict[int, CanonicalPolynomial]:
        return dict(self._parts)

    def degrees(self) -> list[int]:
        return sorted(self._parts)

    def part(self, d: int) -> CanonicalPolynomial:
        return self._parts.get(d, CanonicalPolynomial.zero(self.chart))

    def as_polynomial(self) -> CanonicalPolynomial:
        total = CanonicalPolynomial.zero(self.chart)
        for poly in self._parts.values():
            total = total + poly
        return total

    def complexify(self) -> "GradedHamiltonian":
        return GradedHamiltonian(
            {d: complexify(p) for d, p in self._parts.items()}, self.frequencies)

    @classmethod
    def from_polynomial(cls, poly: CanonicalPolynomial,
                        frequencies: Frequencies) -> "GradedHamiltonian":
        return cls(poly.homogeneous_parts(), frequencies)

    # -- file format --------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Flat Hamiltonian file payload; exponent order fixed as (X1, Y1, X2, Y2)."""
        flat = self.as_polynomial()
        return {
            "dof": 2,
            "chart": self.chart,
            "frequencies": [self.frequencies.omega1, self.frequencies.omega3],
            "terms": [
                {"exponents": list(e), "re": float(c.real) if isinstance(c, complex) else float(c),
                 "im": float(c.imag) if isinstance(c, complex) else 0.0}
                for e, c in flat.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "GradedHamiltonian":
        """Read the JSON form; any malformed payload raises ValueError."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"a Hamiltonian must be a JSON object, got {type(payload).__name__}")
        if payload.get("dof") != 2:
            raise ValueError("only dof = 2 Hamiltonians are supported")
        chart = payload.get("chart")
        if chart not in _CHARTS:
            raise ValueError(f"chart must be one of {_CHARTS}, got {chart!r}")
        freqs = payload.get("frequencies")
        if not (isinstance(freqs, (list, tuple)) and len(freqs) == 2):
            raise ValueError("frequencies must be a two-element list [omega1, omega3]")
        terms: dict[Exponents, complex] = {}
        try:
            for entry in payload.get("terms", []):
                e = _validate_exponents(entry["exponents"])
                if sum(e) < 2:
                    raise ValueError(f"terms must have degree >= 2, got exponents {e}")
                c = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
                terms[e] = terms.get(e, 0) + c
            omega1, omega3 = float(freqs[0]), float(freqs[1])
        except KeyError as err:
            raise ValueError(f"term without the field {err}") from err
        except TypeError as err:
            raise ValueError(f"malformed term or frequency: {err}") from err
        poly = CanonicalPolynomial(terms, chart)
        return cls.from_polynomial(poly, Frequencies(omega1, omega3))
