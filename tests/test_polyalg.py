import itertools
import math
import random
import re
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest

from birkhoff import (
    CanonicalPolynomial,
    Frequencies,
    GradedHamiltonian,
    complexify,
    poisson_bracket,
    realify,
)
from birkhoff import polyalg
from birkhoff.polyalg import ChartMismatchError
from conftest import (REFUSED_NUMBERS, assert_record_refuses, homogeneous_part,
                      max_abs_coefficient, poly_product, poly_scaled, poly_sum,
                      random_exact_polynomial, reference_model_hamiltonian)


def poly(terms, chart="real"):
    return CanonicalPolynomial(terms, chart)


def bits(p):
    """The terms of p in its order, coefficients as reprs."""
    return [(e, repr(c)) for e, c in p.terms.items()]


class TestMonomial:
    # single-term polynomials
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            CanonicalPolynomial({(1, -1, 0, 0): 1.0})

    @pytest.mark.parametrize("exponents", [
        (1.0, 0, 0, 0), (True, 0, 2, 0), ("2", 0, 1, 0), (1, 0, 0), (1, 0, 0, 0, 0),
    ], ids=repr)
    def test_non_integer_or_misshapen_exponents_rejected(self, exponents):
        with pytest.raises(ValueError):
            CanonicalPolynomial({exponents: 1.0})


class TestArithmetic:
    def test_float_dust_is_purged(self):
        f = poly({(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1e-30})
        assert f.terms == {(2, 0, 0, 0): 1.0}

    def test_exact_coefficients_are_never_thresholded(self):
        f = poly({(1, 0, 0, 0): Fraction(1, 10 ** 20), (0, 1, 0, 0): Fraction(1)})
        assert len(f) == 2

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       complex(1.0, math.nan), complex(math.inf, 0.0)],
                             ids=repr)
    def test_non_finite_coefficient_raises_naming_its_monomial(self, value):
        # an inf used to purge every term (the cutoff became inf), a nan itself
        with pytest.raises(ValueError, match=r"monomial \(4, 0, 0, 0\)"):
            poly({(4, 0, 0, 0): value, (2, 0, 0, 0): 1.0})

    def test_overflowing_product_raises(self):
        # the coefficient product of {1e200 X1^2, 1e200 Y1^2} = 4e400 X1 Y1 is
        # past the double range
        f = poly({(2, 0, 0, 0): 1e200}, "complex")
        g = poly({(0, 2, 0, 0): 1e200}, "complex")
        with pytest.raises(ValueError, match="not finite"):
            poisson_bracket(f, g)

    def test_chart_mismatch_rejected(self):
        f = poly({(1, 0, 0, 0): 1}, "real")
        g = poly({(1, 0, 0, 0): 1}, "complex")
        with pytest.raises(ChartMismatchError):
            poisson_bracket(f, g)


class TestPoissonBracket:
    def test_canonical_pair(self):
        x1 = poly({(1, 0, 0, 0): 1})
        y1 = poly({(0, 1, 0, 0): 1})
        assert poisson_bracket(x1, y1).terms == {(0, 0, 0, 0): 1}

    def test_action_with_position(self):
        x1y1 = poly({(1, 1, 0, 0): 1})
        x1 = poly({(1, 0, 0, 0): 1})
        assert poisson_bracket(x1y1, x1).terms == {(1, 0, 0, 0): -1}

    def test_disjoint_modes_commute(self):
        f = poly({(1, 1, 0, 0): 1})
        g = poly({(0, 0, 1, 1): 1})
        assert poisson_bracket(f, g).is_zero

    def test_antisymmetry_exact(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_exact_polynomial(rng)
            g = random_exact_polynomial(rng)
            assert poly_sum(poisson_bracket(f, g), poisson_bracket(g, f)).is_zero

    def test_jacobi_exact(self):
        rng = random.Random(12)
        for _ in range(100):
            f = random_exact_polynomial(rng, max_degree=3)
            g = random_exact_polynomial(rng, max_degree=3)
            h = random_exact_polynomial(rng, max_degree=3)
            total = poly_sum(poisson_bracket(f, poisson_bracket(g, h)),
                             poisson_bracket(g, poisson_bracket(h, f)),
                             poisson_bracket(h, poisson_bracket(f, g)))
            assert total.is_zero

    def test_leibniz_exact(self):
        rng = random.Random(13)
        for _ in range(100):
            f = random_exact_polynomial(rng)
            g = random_exact_polynomial(rng)
            h = random_exact_polynomial(rng)
            lhs = poisson_bracket(f, poly_product(g, h))
            rhs = poly_sum(poly_product(poisson_bracket(f, g), h),
                           poly_product(g, poisson_bracket(f, h)))
            assert poly_sum(lhs, poly_scaled(-1, rhs)).is_zero

    def test_bracket_drops_degree_by_two(self):
        rng = random.Random(14)
        found = 0
        while found < 20:
            f = homogeneous_part(random_exact_polynomial(rng), 3)
            g = homogeneous_part(random_exact_polynomial(rng), 4)
            if f.is_zero or g.is_zero:
                continue
            br = poisson_bracket(f, g)
            if br.is_zero:
                continue
            assert max(map(sum, br.terms)) == 5
            found += 1


class TestChartChange:
    def test_harmonic_mode_diagonalizes(self):
        omega = 1.7
        h = poly({(2, 0, 0, 0): omega / 2, (0, 2, 0, 0): omega / 2})
        z = complexify(h)
        assert set(z.terms) == {(1, 1, 0, 0)}
        assert z.coefficient((1, 1, 0, 0)) == pytest.approx(1j * omega, rel=1e-15)

    def test_position_maps_to_symmetric_combination(self):
        q2 = poly({(0, 0, 1, 0): 1.0})
        z = complexify(q2)
        s = math.sqrt(0.5)
        assert z.coefficient((0, 0, 1, 0)) == pytest.approx(s, rel=1e-15)
        assert z.coefficient((0, 0, 0, 1)) == pytest.approx(1j * s, rel=1e-15)

    def test_cubic_round_trip(self):
        f = poly({(3, 0, 0, 0): 1.0})
        back = realify(complexify(f))
        assert set(back.terms) == {(3, 0, 0, 0)}
        assert back.coefficient((3, 0, 0, 0)) == pytest.approx(1.0, rel=1e-14)

    def test_round_trip_is_identity(self):
        rng = random.Random(21)
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                e = tuple(rng.randint(0, 2) for _ in range(4))
                terms[e] = rng.uniform(-2, 2)
            f = poly(terms)
            back = realify(complexify(f))
            for e, c in f.terms.items():
                assert back.coefficient(e) == pytest.approx(c, rel=1e-12, abs=1e-12)
            for e, c in back.terms.items():
                assert abs(c - f.coefficient(e)) < 1e-12

    def test_bracket_equivariance(self):
        rng = random.Random(22)
        for _ in range(20):
            f = poly({tuple(rng.randint(0, 2) for _ in range(4)): rng.uniform(-1, 1)
                      for _ in range(4)})
            g = poly({tuple(rng.randint(0, 2) for _ in range(4)): rng.uniform(-1, 1)
                      for _ in range(4)})
            lhs = complexify(poisson_bracket(f, g))
            rhs = poisson_bracket(complexify(f), complexify(g))
            diff = poly_sum(lhs, poly_scaled(-1, rhs))
            scale = max(max_abs_coefficient(lhs), 1.0)
            assert max_abs_coefficient(diff) < 1e-12 * scale

    def test_cached_expansion_is_bit_identical(self, monkeypatch):
        # both chart changes share one monomial table; realify runs on a cold
        # table, then again after complexify has filled it, and each result
        # equals the one computed on a table of its own
        monomials = [e for e in itertools.product(range(6), repeat=4) if sum(e) <= 5]
        c = complex(0.7, -0.3)

        def sweep(change, chart, cold=False):
            out = []
            for e in monomials:
                if cold:
                    monkeypatch.setattr(polyalg, "_TABLE", polyalg._MonomialTable())
                out.append(bits(change(poly({e: c}, chart))))
            return out

        table = polyalg._MonomialTable()
        monkeypatch.setattr(polyalg, "_TABLE", table)
        warm = (sweep(realify, "complex"), sweep(complexify, "real"),
                sweep(realify, "complex"))
        assert polyalg._TABLE is table and table.size > 0
        fresh_real = sweep(realify, "complex", cold=True)
        fresh_complex = sweep(complexify, "real", cold=True)
        assert warm == (fresh_real, fresh_complex, fresh_real)

    def test_wrong_chart_rejected(self):
        f = poly({(1, 0, 0, 0): 1.0}, "complex")
        with pytest.raises(ChartMismatchError):
            complexify(f)
        with pytest.raises(ChartMismatchError):
            realify(poly({(1, 0, 0, 0): 1.0}, "real"))


def random_float_polynomial(rng, max_degree, max_terms=8):
    """Real chart, float coefficients, exponents of total degree <= max_degree."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        cut = sorted(rng.randint(0, max_degree) for _ in range(4))
        e = (cut[0], cut[1] - cut[0], cut[2] - cut[1], cut[3] - cut[2])
        terms[e] = rng.uniform(-2.0, 2.0)
    return CanonicalPolynomial(terms)


class TestMonomialTable:
    @staticmethod
    def recount(table):
        # monomials, rows, bracket pairs, each expansion with its terms and
        # the terms of each factor
        return (len(table.index) + len(table.rows)
                + sum(map(len, table.rows.values()))
                + sum(1 + len(expansion) for part in table.expansions.values()
                      for _, expansion in part.values())
                + sum(len(items) for part in table.modes.values()
                      for items in part.values()))

    def test_tables_stay_bounded(self, monkeypatch):
        rng = random.Random(43)
        monkeypatch.setattr(polyalg, "_TABLE", polyalg._MonomialTable())
        retired = 0
        for _ in range(300):
            f = random_float_polynomial(rng, 8)
            g = random_float_polynomial(rng, 8)
            used = polyalg._TABLE
            warm = (bits(poisson_bracket(f, g)), bits(complexify(f)))
            assert self.recount(used) == used.size
            assert polyalg._TABLE.size <= polyalg._TABLE_LIMIT
            retired += polyalg._TABLE is not used
            live = polyalg._TABLE
            monkeypatch.setattr(polyalg, "_TABLE", polyalg._MonomialTable())
            assert warm == (bits(poisson_bracket(f, g)), bits(complexify(f)))
            monkeypatch.setattr(polyalg, "_TABLE", live)
        assert retired >= 2

    def test_threads_filling_one_table_agree(self, monkeypatch):
        # each round, six threads fill one fresh table at once; a monomial
        # numbered twice, or a number read before its monomial is stored,
        # changes or breaks their results
        rng = random.Random(44)
        work = [(random_float_polynomial(rng, 6), random_float_polynomial(rng, 6))
                for _ in range(20)]

        def run():
            return [(bits(poisson_bracket(f, g)), bits(complexify(f))) for f, g in work]

        expected = run()
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                monkeypatch.setattr(polyalg, "_TABLE", polyalg._MonomialTable())
                threads = [threading.Thread(target=lambda: results.append(run()))
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 60

    def test_numbers_drawn_at_once_stay_distinct(self):
        # each thread numbers one monomial, and both draw their number before
        # either enters it in exponents: a number source read from the table
        # (such as its count of monomials) would hand both the same number
        barrier = threading.Barrier(2, timeout=10)

        class Yielding(dict):
            def __setitem__(self, k, e):
                barrier.wait()
                super().__setitem__(k, e)

        table = polyalg._MonomialTable()
        table.exponents = Yielding()
        monomials = [(1, 0, 0, 0), (0, 1, 0, 0)]
        threads = [threading.Thread(target=table.index.__getitem__, args=(e,))
                   for e in monomials]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(table.index.values()) == [0, 1]
        assert [table.exponents[table.index[e]] for e in monomials] == monomials


class TestFrequencies:
    @pytest.mark.parametrize("value", [
        1, 0.5, 1e-300, 1e300, Fraction(1, 3),
    ], ids=repr)
    def test_positive_finite_reals_accepted(self, value):
        assert Frequencies(value, 1.0).omega1 == value
        assert Frequencies(1.0, value).omega3 == value

    @pytest.mark.parametrize("value", [
        "1", None, [1], 1 + 0j, 1j, math.nan, math.inf, -math.inf,
        Decimal("NaN"), Decimal("1.5"), 0, 0.0, -0.0, False, True, -1, -0.5,
        Fraction(-1, 2), pytest.param(10**400, id="10**400"), *REFUSED_NUMBERS,
    ], ids=repr)
    def test_everything_else_rejected(self, value):
        with pytest.raises(ValueError, match="positive finite real"):
            Frequencies(value, 1.0)
        with pytest.raises(ValueError, match="positive finite real"):
            Frequencies(1.0, value)
        for field in ("omega1", "omega3"):
            assert_record_refuses(Frequencies(1.0, 1.0), ValueError, "positive finite real",
                                  **{field: value})


class TestGradedHamiltonian:
    def freqs(self):
        return Frequencies(1.2, 0.7)

    def test_parts_must_be_homogeneous(self):
        bad = poly({(2, 0, 0, 0): 1.0, (3, 0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            GradedHamiltonian({2: bad}, self.freqs())
        # homogeneous, but not of the degree it is filed under
        with pytest.raises(ValueError, match="part 3 is not homogeneous"):
            GradedHamiltonian({3: poly({(2, 0, 0, 0): 1.0})}, self.freqs())

    def test_degrees_below_two_rejected(self):
        lin = poly({(1, 0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            GradedHamiltonian({1: lin}, self.freqs())

    def test_frequencies_must_be_positive(self):
        with pytest.raises(ValueError):
            Frequencies(1.0, -2.0)
        with pytest.raises(ValueError):
            Frequencies(0.0, 1.0)

    def test_json_round_trip(self):
        h2 = poly({(2, 0, 0, 0): 0.6, (0, 2, 0, 0): 0.6,
                   (0, 0, 2, 0): 0.35, (0, 0, 0, 2): 0.35})
        h3 = poly({(3, 0, 0, 0): -0.25, (1, 0, 2, 0): 1.5})
        # the reference model's quadratic part is below 1e-14 of its quartic
        for ham in (GradedHamiltonian({2: h2, 3: h3}, self.freqs()),
                    reference_model_hamiltonian()):
            payload = ham.to_json_dict()
            back = GradedHamiltonian.from_json_dict(payload)
            assert back.degrees() == ham.degrees()
            assert len(payload["terms"]) == sum(len(ham.part(d)) for d in ham.degrees())
            for d in ham.degrees():
                want = ham.part(d)
                got = back.part(d)
                assert len(got) == len(want)
                for e, c in want.terms.items():
                    assert got.coefficient(e) == pytest.approx(c, rel=1e-15)
        assert [len(back.part(d)) for d in (2, 3, 4)] == [4, 4, 3]

    def test_zero_complex_part_sets_chart(self):
        zero = CanonicalPolynomial.zero("complex")
        ham = GradedHamiltonian({3: zero, 4: zero}, self.freqs())
        assert ham.chart == "complex"
        assert ham.degrees() == []
        assert ham.to_json_dict()["chart"] == "complex"
        assert GradedHamiltonian({}, self.freqs()).chart == "real"
        with pytest.raises(ChartMismatchError):
            GradedHamiltonian({2: poly({(2, 0, 0, 0): 1.0}), 3: zero}, self.freqs())

    @pytest.mark.parametrize("chart", ["real", "complex"])
    def test_empty_file_keeps_its_chart(self, chart):
        payload = {"dof": 2, "chart": chart, "frequencies": [0.3, 1.0], "terms": []}
        ham = GradedHamiltonian.from_json_dict(payload)
        assert ham.chart == chart
        assert ham.degrees() == []

    def test_negative_zero_is_written_as_zero(self):
        h2 = poly({(1, 1, 0, 0): complex(-0.0, 1.2), (0, 0, 1, 1): complex(0.7, -0.0)},
                  "complex")
        terms = GradedHamiltonian({2: h2}, self.freqs()).to_json_dict()["terms"]
        assert [(t["re"], t["im"]) for t in terms] == [(0.7, 0.0), (0.0, 1.2)]
        assert all(math.copysign(1.0, t[k]) == 1.0 for t in terms for k in ("re", "im"))

    def test_json_term_order_is_deterministic(self):
        h = poly({(0, 0, 2, 0): 1.0, (2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0})
        ham = GradedHamiltonian({2: h}, self.freqs())
        terms = ham.to_json_dict()["terms"]
        assert [t["exponents"] for t in terms] == [[0, 0, 2, 0], [0, 2, 0, 0], [2, 0, 0, 0]]

    def test_from_json_rejects_low_degree_terms(self):
        payload = {"dof": 2, "chart": "real", "frequencies": [1.0, 1.0],
                   "terms": [{"exponents": [1, 0, 0, 0], "re": 1.0, "im": 0.0}]}
        with pytest.raises(ValueError):
            GradedHamiltonian.from_json_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("re", math.nan), ("re", math.inf), ("im", -math.inf), ("re", "2.0"),
        ("im", True), ("omega1", "0.3"), ("omega3", False), ("omega3", math.nan),
        # null, a list, an object, a string that is no number and an int past
        # a double get the same message as the values above
        *(pytest.param(field, value, id=f"{field!r}-{label}")
          for field in ("re", "im", "omega1")
          for label, value in (("None", None), ("[1.0]", [1.0]), ("{}", {}),
                               ("'abc'", "abc"), ("10**400", 10**400))),
    ], ids=repr)
    def test_from_json_requires_finite_numbers(self, field, value):
        term = {"exponents": [3, 0, 0, 0], "re": 1.0, "im": 0.0}
        freqs = [0.3, 1.0]
        if field in term:
            term[field] = value
        else:
            freqs[field == "omega3"] = value
        payload = {"dof": 2, "chart": "real", "frequencies": freqs, "terms": [term]}
        message = f"^{field} must be a finite number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            GradedHamiltonian.from_json_dict(payload)

    @pytest.mark.parametrize("terms, message", [
        (5, "terms must be a list of term objects, got 5"),
        ("x", "terms must be a list of term objects, got 'x'"),
        ([[1, 2]], "term 0 must be an object, got [1, 2]"),
        (["x"], "term 0 must be an object, got 'x'"),
        ([{"exponents": None, "re": 1.0}], "exponents must be four non-negative integers, got None"),
    ], ids=["int-terms", "string-terms", "list-term", "string-term", "null-exponents"])
    def test_from_json_names_a_malformed_term(self, terms, message):
        payload = {"dof": 2, "chart": "real", "frequencies": [0.3, 1.0], "terms": terms}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradedHamiltonian.from_json_dict(payload)

    def test_from_json_rejects_other_dof(self):
        payload = {"dof": 3, "chart": "real", "frequencies": [1.0, 1.0], "terms": []}
        with pytest.raises(ValueError):
            GradedHamiltonian.from_json_dict(payload)
