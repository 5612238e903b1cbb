"""Sparse polynomial algebra in two canonical degrees of freedom.

Polynomials live in four variables read either as the real canonical chart
(q1, p1, q2, p2) or the complex diagonalizing chart (X1, Y1, X2, Y2).
A CanonicalPolynomial keeps its terms sparsely, exponent tuple to
coefficient, and offers construction and reading only; the Poisson bracket
and the chart change, real to complex, are the functions poisson_bracket and
complexify.  Coefficients may be floats/complex for numerical work or exact
types (int, Fraction) when exact arithmetic is wanted; all operations are
pure and values are immutable after construction.  Exponent tuples are
checked once, where they enter through the public constructors; results the
module builds itself skip that check.

The bracket and the chart change read their per-monomial work from one
table of memo dicts, filled on first use: each monomial met gets a small
number, and the bracket of two numbered monomials (output numbers and
integer multiplicities for both canonical pairs) and the chart change of a
monomial are worked out once, then looked up.  Loops run over the input's
own terms in their order, so every result is the same, bit for bit,
whatever the table holds.  An operation that leaves the table above
_TABLE_LIMIT entries (about half a MiB) hands the next one a new table.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from functools import partial
from numbers import Real
from typing import Mapping

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


class NonFiniteCoefficientError(ValueError):
    """A floating-point coefficient is infinite or nan."""


def _validate_exponents(exponents) -> Exponents:
    """Four non-negative ints; anything else, a bool exponent too, raises ValueError."""
    try:
        e = tuple(exponents)
    except TypeError:
        e = ()
    # a bool, float or str exponent breaks the exact-type chain
    if (len(e) != 4 or not type(e[0]) is type(e[1]) is type(e[2]) is type(e[3]) is int
            or min(e) < 0):
        raise ValueError(
            f"exponents must be four non-negative integers, got {exponents!r}")
    return e


def _clean_terms(terms: dict[Exponents, complex]) -> dict[Exponents, complex]:
    """The nonzero terms, floating-point ones purged below ZERO_TOLERANCE of the
    largest; an infinite or nan floating-point coefficient raises
    NonFiniteCoefficientError.  The caller hands terms over: when no term is
    dropped, the dict itself is returned."""
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c != 0}
    if not any(isinstance(c, (float, complex)) for c in terms.values()):
        return terms
    sizes = list(map(abs, terms.values()))
    # a nan or inf size makes the sum non-finite; so can finite sizes that
    # add up past the double range, and then no term is named
    if not sum(sizes) < math.inf:
        for (e, c), size in zip(terms.items(), sizes):
            if not size < math.inf:
                raise NonFiniteCoefficientError(
                    f"coefficient {c!r} of the monomial {e} is not finite")
    cutoff = ZERO_TOLERANCE * max(sizes)
    if min(sizes) > cutoff:
        return terms
    return {e: c for (e, c), size in zip(terms.items(), sizes) if size > cutoff}


class CanonicalPolynomial:
    """Sparse polynomial over exponent tuples (j, l, r, s) in a fixed chart,
    read through terms (a copy), coefficient, is_zero and len (its terms)."""

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
    def _from_checked(cls, terms: dict[Exponents, complex],
                      chart: str) -> "CanonicalPolynomial":
        # terms: a new dict keyed by exponent tuples the package built from
        # checked ones, which the polynomial may keep; the relative-zero
        # purge still runs, as in the public constructor
        poly = cls.__new__(cls)
        poly._terms = _clean_terms(terms)
        poly.chart = chart
        return poly

    @classmethod
    def zero(cls, chart: str = REAL_CHART) -> "CanonicalPolynomial":
        return cls({}, chart)

    @property
    def terms(self) -> dict[Exponents, complex]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exponents) -> complex:
        return self._terms.get(tuple(exponents), 0)


def poisson_bracket(f: CanonicalPolynomial, g: CanonicalPolynomial) -> CanonicalPolynomial:
    """{f, g} = sum_k (df/dXk dg/dYk - df/dYk dg/dXk) over both canonical pairs.

    The same formula applies in the real chart with (qk, pk).  Bilinear,
    antisymmetric, satisfies the Jacobi and Leibniz identities exactly for
    exact coefficients.
    """
    if f.chart != g.chart:
        raise ChartMismatchError(
            f"cannot combine {f.chart!r} and {g.chart!r} chart polynomials")
    table = _TABLE
    index, rows = table.index, table.rows
    g_terms = [(index[e], c) for e, c in g._terms.items()]
    acc: dict[int, complex] = {}
    get = acc.get
    for e1, c1 in f._terms.items():
        row = rows[e1]
        for j, c2 in g_terms:
            k1, m1, k2, m2 = row[j]
            c12 = c1 * c2
            # the (X1, Y1) pair, then the (X2, Y2) pair: each key's sum keeps its order
            if m1:
                acc[k1] = get(k1, 0) + m1 * c12
            if m2:
                acc[k2] = get(k2, 0) + m2 * c12
    return CanonicalPolynomial._from_checked(_exponent_terms(table, acc), f.chart)


def _expand_linear_power(c1, c2, e: int) -> dict[tuple[int, int], complex]:
    # coefficients of (c1*U + c2*V)**e, keyed by (power of U, power of V)
    return {(t, e - t): math.comb(e, t) * c1 ** t * c2 ** (e - t) for t in range(e + 1)}


def _expand_mode(pair: tuple[int, int]) -> tuple:
    # the terms ((power of X, power of Y), c) of (X + i Y)**ea * (i X + Y)**eb,
    # which is q**ea * p**eb of one canonical pair under complexify's
    # substitution without its scale; pair = (ea, eb)
    ea, eb = pair
    out: dict[tuple[int, int], complex] = {}
    for (u1, v1), ca in _expand_linear_power(1, 1j, ea).items():
        for (u2, v2), cb in _expand_linear_power(1j, 1, eb).items():
            key = (u1 + u2, v1 + v2)
            out[key] = out.get(key, 0) + ca * cb
    return tuple(out.items())


#: entries a monomial table may keep between operations; an operation that
#: leaves its table above this hands the next one a new, empty table
_TABLE_LIMIT = 4096


class _Memo(dict):
    # key -> fill(key), worked out on first use; the table's size grows by
    # cost(value), and a value worked out twice is stored once, by setdefault

    __slots__ = ("table", "fill", "cost")

    def __init__(self, table: "_MonomialTable", fill, cost):
        self.table = table
        self.fill = fill
        self.cost = cost

    def __missing__(self, key):
        value = self.fill(key)
        self.table.size += self.cost(value)
        return self.setdefault(key, value)


def _one(value) -> int:
    return 1


def _expansion_cost(entry) -> int:
    return 1 + len(entry[1])


class _MonomialTable:
    """Monomials numbered on first sight, with their bracket and chart-change
    data, filled as operations meet them; each map below is a _Memo.

    index maps an exponent tuple to its number and exponents maps it back.
    rows[e1][j] is the bracket of e1 with monomial j, (k1, m1, k2, m2): m1
    times monomial k1 from the (X1, Y1) pair plus m2 times monomial k2 from
    the (X2, Y2) pair, k being -1 where m is 0.  expansions[e] is the chart
    change of e into the complex chart, (scale, ((k, c1, c2), ...)): the
    factors of its two canonical pairs, from modes, multiplied out with their
    coefficients kept apart.  Entries are tuples, so no caller can change
    what the next one reads.  Threads may fill one table at once: a number
    is drawn once and entered in exponents before the index hands it out,
    and an entry worked out twice is stored once, by setdefault, so a lost
    race to number a monomial leaves only an unused number.  size counts
    the entries, an expansion or a factor by its terms; only a race can make
    it miscount.
    """

    def __init__(self):
        self.size = 0
        self._numbers = itertools.count()
        self.exponents: dict[int, Exponents] = {}
        self.index = _Memo(self, self._number, _one)
        self.rows = _Memo(self, self._row, _one)
        self.modes = _Memo(self, _expand_mode, len)
        self.expansions = _Memo(self, self._expand, _expansion_cost)

    def _number(self, e: Exponents) -> int:
        k = next(self._numbers)
        self.exponents[k] = e
        return k

    def _row(self, e1: Exponents) -> _Memo:
        return _Memo(self, partial(self._bracket, e1), _one)

    def _bracket(self, e1: Exponents, j: int) -> tuple[int, int, int, int]:
        index = self.index
        a1, b1, r1, s1 = e1
        a2, b2, r2, s2 = self.exponents[j]
        m1 = a1 * b2 - b1 * a2
        m2 = r1 * s2 - s1 * r2
        k1 = index[(a1 + a2 - 1, b1 + b2 - 1, r1 + r2, s1 + s2)] if m1 else -1
        k2 = index[(a1 + a2, b1 + b2, r1 + r2 - 1, s1 + s2 - 1)] if m2 else -1
        return k1, m1, k2, m2

    def _expand(self, e: Exponents):
        index, modes = self.index, self.modes
        j, l, r, s = e
        d = j + l + r + s
        scale = 0.5 ** (d // 2) * (_SQRT1_2 if d % 2 else 1.0)
        return scale, tuple((index[(x1, y1, x2, y2)], c1, c2)
                            for (x1, y1), c1 in modes[(j, l)]
                            for (x2, y2), c2 in modes[(r, s)])


#: the table every operation reads; empty until the first one
_TABLE = _MonomialTable()


def _exponent_terms(table: _MonomialTable,
                    acc: dict[int, complex]) -> dict[Exponents, complex]:
    # acc, keyed by table numbers, re-keyed by exponent tuples in its order;
    # a table past _TABLE_LIMIT is dropped once its operation is done with it
    global _TABLE
    exponents = table.exponents
    terms = {exponents[k]: c for k, c in acc.items()}
    if table.size > _TABLE_LIMIT and _TABLE is table:
        _TABLE = _MonomialTable()
    return terms


def complexify(f: CanonicalPolynomial) -> CanonicalPolynomial:
    """Change chart via qk = (Xk + i Yk)/sqrt(2), pk = (i Xk + Yk)/sqrt(2).

    The substitution is canonical, so the Poisson bracket is equivariant:
    complexify({f, g}) = {complexify(f), complexify(g)}.
    """
    if f.chart != REAL_CHART:
        raise ChartMismatchError("complexify expects a real-chart polynomial")
    # both canonical pairs get the same unit-free linear substitution; the
    # overall 2**(-degree/2) normalization is applied per term so that even
    # degrees scale by exact powers of one half
    table = _TABLE
    expansions = table.expansions
    out: dict[int, complex] = {}
    get = out.get
    for e, c in f._terms.items():
        scale, expansion = expansions[e]
        base = c * scale
        for k, c1, c2 in expansion:
            out[k] = get(k, 0) + base * c1 * c2
    return CanonicalPolynomial._from_checked(_exponent_terms(table, out), COMPLEX_CHART)


def is_finite_real(v) -> bool:
    """Whether v is a finite real number; a bool, or an int too large for a
    double, is not one."""
    # the exact-type test spares floats and ints the ABC check
    try:
        return ((type(v) in (float, int) or isinstance(v, Real) and type(v) is not bool)
                and math.isfinite(v))
    except OverflowError:
        return False


def check_frequency(name: str, v) -> None:
    """Raise ValueError naming the frequency unless v is a positive finite real."""
    if not (is_finite_real(v) and v > 0):
        raise ValueError(f"{name} must be a positive finite real, got {v!r}")


def checked_record(name: str, fields, defaults=None) -> type:
    """A namedtuple base for an immutable record that checks its fields.

    The subclass sets __slots__ = () and checks in __new__; the base's _make,
    and so _replace, build through that __new__ (namedtuple's own _make is
    tuple.__new__, which would skip the checks).
    """
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Frequencies(checked_record("Frequencies", "omega1 omega3")):
    """The pair of basic frequencies (planar omega1, vertical omega3)."""

    __slots__ = ()

    def __new__(cls, omega1: float, omega3: float):
        check_frequency("omega1", omega1)
        check_frequency("omega3", omega3)
        return tuple.__new__(cls, (omega1, omega3))


def _json_number(value, what: str) -> float:
    """A finite JSON number (int or float, not bool) as a float."""
    if type(value) not in (int, float) or not is_finite_real(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _checked_term(i: int, entry) -> tuple[Exponents, int, complex]:
    """(exponents, degree, coefficient) of term i of a file, or the
    ValueError that names what is wrong with it."""
    if not isinstance(entry, dict):
        raise ValueError(f"term {i} must be an object, got {entry!r}")
    if "exponents" not in entry:
        raise ValueError("term without the field 'exponents'")
    e = _validate_exponents(entry["exponents"])
    d = sum(e)
    if d < 2:
        raise ValueError(f"terms must have degree >= 2, got exponents {e}")
    return e, d, complex(_json_number(entry.get("re", 0.0), "re"),
                         _json_number(entry.get("im", 0.0), "im"))


def _term_columns(entries):
    """The (exponents, degree, coefficient) rows of a term list, checked a
    column at a time, each check one C-level map, set, min or all over every
    term; None if any term fails a check of _checked_term."""
    if not (all(map(isinstance, entries, itertools.repeat(dict)))
            and all(map(operator.contains, entries, itertools.repeat("exponents")))):
        return None
    raw = list(map(operator.itemgetter("exponents"), entries))
    # any other iterable goes to _checked_term unread: an iterator read
    # here would be empty there
    if not {*map(type, raw)} <= {list, tuple}:
        return None
    exps = list(map(tuple, raw))
    res = list(map(dict.get, entries, itertools.repeat("re"), itertools.repeat(0.0)))
    ims = list(map(dict.get, entries, itertools.repeat("im"), itertools.repeat(0.0)))
    flat = list(itertools.chain.from_iterable(exps))
    # the exact-type tests refuse a bool, as _validate_exponents and
    # _json_number do
    if not ({*map(len, exps)} <= {4} and {*map(type, flat)} <= {int}
            and {*map(type, res), *map(type, ims)} <= {int, float}):
        return None
    degrees = list(map(sum, exps))
    if min(flat, default=0) < 0 or min(degrees, default=2) < 2:
        return None
    try:
        if not (all(map(math.isfinite, res)) and all(map(math.isfinite, ims))):
            return None
    except OverflowError:  # an int too large for a double
        return None
    return zip(exps, degrees, map(complex, res, ims))


class GradedHamiltonian:
    """Homogeneous pieces of a polynomial Hamiltonian, keyed by degree >= 2.

    Each part is held, read and written as its own polynomial, so the
    relative-zero purge only ever compares coefficients of one degree.  The
    chart is that of the parts given, zero parts included (they are not
    stored), and real when no part is given.
    """

    __slots__ = ("_parts", "chart", "frequencies")

    def __init__(self, parts: Mapping[int, CanonicalPolynomial],
                 frequencies: Frequencies):
        stored: dict[int, CanonicalPolynomial] = {}
        chart = None
        for d, poly in parts.items():
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"part degrees start at 2, got {d!r}")
            if chart is None:
                chart = poly.chart
            elif poly.chart != chart:
                raise ChartMismatchError("all parts must share one chart")
            if poly.is_zero:
                continue
            if {*map(sum, poly._terms)} != {d}:
                raise ValueError(f"part {d} is not homogeneous of degree {d}")
            stored[d] = poly
        self._parts = stored
        self.chart = REAL_CHART if chart is None else chart
        self.frequencies = frequencies

    @classmethod
    def _from_checked(cls, parts: Mapping[int, CanonicalPolynomial], chart: str,
                      frequencies: Frequencies) -> "GradedHamiltonian":
        # parts: polynomials of the chart keyed by degree >= 2, each
        # homogeneous of its degree or zero, as the package builds them; the
        # public constructor's checks are skipped, zero parts still dropped
        ham = cls.__new__(cls)
        ham._parts = {d: p for d, p in parts.items() if p._terms}
        ham.chart = chart
        ham.frequencies = frequencies
        return ham

    @property
    def parts(self) -> dict[int, CanonicalPolynomial]:
        return dict(self._parts)

    def degrees(self) -> list[int]:
        return sorted(self._parts)

    def part(self, d: int) -> CanonicalPolynomial:
        return self._parts.get(d, CanonicalPolynomial.zero(self.chart))

    def complexify(self) -> "GradedHamiltonian":
        # a chart change maps each degree into itself
        return GradedHamiltonian._from_checked(
            {d: complexify(p) for d, p in self._parts.items()}, COMPLEX_CHART,
            self.frequencies)

    # -- file format --------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Hamiltonian file payload: the parts in degree order, each in graded
        lexicographic order; exponent order fixed as (X1, Y1, X2, Y2)."""
        terms = []
        for d in self.degrees():
            # a part is homogeneous, so exponent order is its graded order
            for e, c in sorted(self._parts[d]._terms.items()):
                z = complex(c)
                # + 0.0 writes a negative zero as 0.0
                terms.append({"exponents": list(e), "re": z.real + 0.0,
                              "im": z.imag + 0.0})
        return {
            "dof": 2,
            "chart": self.chart,
            "frequencies": [self.frequencies.omega1, self.frequencies.omega3],
            "terms": terms,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "GradedHamiltonian":
        """Read the JSON form; any malformed payload raises ValueError.

        Coefficients and frequencies must be finite JSON numbers; repeated
        exponents add up, in file order.  The term list is checked column by
        column (types, exponents, degrees, finiteness), which is one C-level
        pass per check; only when a check fails are the terms walked one at
        a time, so that the error names the first bad term in file order.
        """
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
        entries = payload.get("terms", [])
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"terms must be a list of term objects, got {entries!r}")
        rows = _term_columns(entries)
        if rows is None:
            rows = map(_checked_term, itertools.count(), entries)
        by_degree: dict[int, dict[Exponents, complex]] = {}
        for e, d, c in rows:
            terms = by_degree.setdefault(d, {})
            # 0 + c turns a part of -0.0 into 0.0
            terms[e] = terms.get(e, 0) + c
        omega1 = _json_number(freqs[0], "omega1")
        omega3 = _json_number(freqs[1], "omega3")
        # every key passed the checks of _checked_term, and sits in its degree
        return cls._from_checked({d: CanonicalPolynomial._from_checked(t, chart)
                                  for d, t in sorted(by_degree.items())},
                                 chart, Frequencies(omega1, omega3))
