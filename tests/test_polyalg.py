import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from birkhoff import (
    CanonicalPolynomial,
    ChartMismatchError,
    Frequencies,
    GradedHamiltonian,
    complexify,
    poisson_bracket,
    realify,
)
from conftest import random_exact_polynomial


def poly(terms, chart="real"):
    return CanonicalPolynomial(terms, chart)


class TestMonomial:
    # single-term polynomials
    def test_degree_is_exponent_sum(self):
        assert CanonicalPolynomial({(2, 1, 0, 3): 1}).degree() == 6

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
    def test_addition_cancels_opposite_terms(self):
        x1 = poly({(1, 0, 0, 0): 1})
        y1 = poly({(0, 1, 0, 0): 1})
        total = (x1 + y1) + (x1 - y1)
        assert total.terms == {(1, 0, 0, 0): 2}

    def test_monomial_product(self):
        f = poly({(1, 1, 0, 0): 1})
        g = poly({(0, 0, 1, 1): 1})
        assert (f * g).terms == {(1, 1, 1, 1): 1}

    def test_scale_by_zero_gives_empty_polynomial(self):
        f = poly({(2, 0, 0, 0): 1})
        assert (0 * f).is_zero
        assert (0 * f).terms == {}

    def test_float_dust_is_purged(self):
        f = poly({(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1e-30})
        assert f.terms == {(2, 0, 0, 0): 1.0}

    def test_exact_coefficients_are_never_thresholded(self):
        f = poly({(1, 0, 0, 0): Fraction(1, 10 ** 20), (0, 1, 0, 0): Fraction(1)})
        assert len(f) == 2

    def test_chart_mismatch_rejected(self):
        f = poly({(1, 0, 0, 0): 1}, "real")
        g = poly({(1, 0, 0, 0): 1}, "complex")
        with pytest.raises(ChartMismatchError):
            f + g
        with pytest.raises(ChartMismatchError):
            f * g
        with pytest.raises(ChartMismatchError):
            poisson_bracket(f, g)

    def test_product_degree_adds_for_homogeneous_inputs(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_exact_polynomial(rng).homogeneous_part(2)
            g = random_exact_polynomial(rng).homogeneous_part(3)
            if f.is_zero or g.is_zero:
                continue
            assert (f * g).degree() == 5


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
            assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero

    def test_jacobi_exact(self):
        rng = random.Random(12)
        for _ in range(100):
            f = random_exact_polynomial(rng, max_degree=3)
            g = random_exact_polynomial(rng, max_degree=3)
            h = random_exact_polynomial(rng, max_degree=3)
            total = (poisson_bracket(f, poisson_bracket(g, h))
                     + poisson_bracket(g, poisson_bracket(h, f))
                     + poisson_bracket(h, poisson_bracket(f, g)))
            assert total.is_zero

    def test_leibniz_exact(self):
        rng = random.Random(13)
        for _ in range(100):
            f = random_exact_polynomial(rng)
            g = random_exact_polynomial(rng)
            h = random_exact_polynomial(rng)
            lhs = poisson_bracket(f, g * h)
            rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
            assert (lhs - rhs).is_zero

    def test_bracket_drops_degree_by_two(self):
        rng = random.Random(14)
        found = 0
        while found < 20:
            f = random_exact_polynomial(rng).homogeneous_part(3)
            g = random_exact_polynomial(rng).homogeneous_part(4)
            if f.is_zero or g.is_zero:
                continue
            br = poisson_bracket(f, g)
            if br.is_zero:
                continue
            assert br.degree() == 5
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
            diff = lhs - rhs
            scale = max(lhs.max_abs_coefficient(), 1.0)
            assert diff.max_abs_coefficient() < 1e-12 * scale

    def test_wrong_chart_rejected(self):
        f = poly({(1, 0, 0, 0): 1.0}, "complex")
        with pytest.raises(ChartMismatchError):
            complexify(f)
        with pytest.raises(ChartMismatchError):
            realify(poly({(1, 0, 0, 0): 1.0}, "real"))


class TestGrading:
    def test_grade_picks_homogeneous_part(self):
        f = poly({(2, 0, 0, 0): 1, (3, 0, 0, 0): 1})
        assert f.homogeneous_part(3).terms == {(3, 0, 0, 0): 1}

    def test_grade_missing_degree_is_empty(self):
        f = poly({(2, 0, 0, 0): 1})
        assert f.homogeneous_part(5).is_zero

    def test_grade_constant_plus_action(self):
        f = poly({(0, 0, 0, 0): 1, (1, 1, 0, 0): 1})
        assert f.homogeneous_part(2).terms == {(1, 1, 0, 0): 1}

    def test_parts_reconstitute(self):
        rng = random.Random(31)
        f = random_exact_polynomial(rng, max_terms=8)
        total = CanonicalPolynomial.zero()
        for d in range(0, 5):
            total = total + f.homogeneous_part(d)
        assert total == f


class TestFrequencies:
    @pytest.mark.parametrize("value", [
        1, 0.5, 1e-300, 1e300, Fraction(1, 3), Decimal("1.5"), True,
    ], ids=repr)
    def test_positive_finite_reals_accepted(self, value):
        assert Frequencies(value, 1.0).omega1 == value
        assert Frequencies(1.0, value).omega3 == value

    @pytest.mark.parametrize("value", [
        "1", None, [1], 1 + 0j, 1j, math.nan, math.inf, -math.inf,
        Decimal("NaN"), 0, 0.0, -0.0, False, -1, -0.5, Fraction(-1, 2),
    ], ids=repr)
    def test_everything_else_rejected(self, value):
        with pytest.raises(ValueError, match="positive finite real"):
            Frequencies(value, 1.0)
        with pytest.raises(ValueError, match="positive finite real"):
            Frequencies(1.0, value)


class TestGradedHamiltonian:
    def freqs(self):
        return Frequencies(1.2, 0.7)

    def test_parts_must_be_homogeneous(self):
        bad = poly({(2, 0, 0, 0): 1.0, (3, 0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            GradedHamiltonian({2: bad}, self.freqs())

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
        ham = GradedHamiltonian({2: h2, 3: h3}, self.freqs())
        payload = ham.to_json_dict()
        back = GradedHamiltonian.from_json_dict(payload)
        assert back.degrees() == ham.degrees()
        for d in ham.degrees():
            want = ham.part(d)
            got = back.part(d)
            for e, c in want.terms.items():
                assert got.coefficient(e) == pytest.approx(c, rel=1e-15)

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

    def test_from_json_rejects_other_dof(self):
        payload = {"dof": 3, "chart": "real", "frequencies": [1.0, 1.0], "terms": []}
        with pytest.raises(ValueError):
            GradedHamiltonian.from_json_dict(payload)
