import math
import random
import sys
from collections import Counter

import pytest

from birkhoff import (
    CanonicalPolynomial,
    CubicQuarticCoefficients,
    Frequencies,
    GradedHamiltonian,
    ResonanceError,
    build_model_hamiltonian,
    d2_from_k,
    frequency_shift_1dof,
    normalize,
)
from birkhoff import polyalg
from conftest import (draw_nonresonant_frequencies, lie_k0022, lie_k1111, lie_k2200,
                      max_abs_coefficient, poly_scaled, poly_sum, scaled_coefficients)


def diagonal_h2(w1, w3):
    return CanonicalPolynomial({(1, 1, 0, 0): 1j * w1, (0, 0, 1, 1): 1j * w3},
                               "complex")


def complex_ham(parts, w1, w3):
    full = {2: diagonal_h2(w1, w3)}
    full.update(parts)
    return GradedHamiltonian(full, Frequencies(w1, w3))


class TestHomologicalRule:
    """The rule of the normalform docstring, checked through normalize."""

    @staticmethod
    def single_cubic_generator(exponents, coefficient, w1, w3):
        h3 = CanonicalPolynomial({exponents: coefficient}, "complex")
        return normalize(complex_ham({3: h3}, w1, w3)).generating.part(3).terms

    def test_direct_substitution(self):
        d = 1.07 * (0 - 3) + 0.41 * (0 - 0)
        got = self.single_cubic_generator((3, 0, 0, 0), 1.0, 1.07, 0.41)
        assert got == {(3, 0, 0, 0): 1j * 1.0 / d}

    def test_complex_source_coefficient(self):
        d = 1.07 * (0 - 0) + 0.41 * (3 - 0)
        got = self.single_cubic_generator((0, 0, 0, 3), 2j, 1.07, 0.41)
        assert got == {(0, 0, 0, 3): 1j * 2j / d}

    def test_near_zero_divisor_raises(self):
        # divisor omega1*(0-2) + omega3*(1-0) with omega3 barely off 2*omega1
        h3 = CanonicalPolynomial({(2, 0, 0, 1): 1.0}, "complex")
        with pytest.raises(ResonanceError) as err:
            normalize(complex_ham({3: h3}, 1.0, 2.0 + 1e-12))
        assert err.value.exponents == (2, 0, 0, 1)
        assert err.value.divisor == 1.0 * (0 - 2) + (2.0 + 1e-12) * 1

    def test_resonance_predicate(self):
        # (2, 2, 0, 0) has j = l and r = s and survives; (2, 1, 0, 1) does not
        h4 = CanonicalPolynomial({(2, 2, 0, 0): 1.0, (2, 1, 0, 1): 1.0}, "complex")
        report = normalize(complex_ham({4: h4}, 1.0, 3.0))
        assert set(report.kamiltonian.part(4).terms) == {(2, 2, 0, 0)}
        assert set(report.generating.part(4).terms) == {(2, 1, 0, 1)}


class TestD2FromK:
    def test_zero_coefficients(self):
        assert d2_from_k(0.0, 0.0, 0.0, *Frequencies(0.9, 2.2)) == 0.0

    def test_single_coefficient(self):
        assert d2_from_k(1.0, 0.0, 0.0, *Frequencies(5.0, 1.0)) == -1.0

    def test_equal_coefficients_unit_frequencies(self):
        assert d2_from_k(1.0, 1.0, 1.0, *Frequencies(1.0, 1.0)) == -3.0


class TestNormalize:
    def test_quadratic_only_has_zero_determinant(self):
        report = normalize(complex_ham({}, 1.0, 3.0))
        assert report.k2200 == report.k1111 == report.k0022 == 0.0
        assert report.d2 == 0.0
        assert report.generating.parts == {}

    def test_action_square_survives_untouched(self):
        h4 = CanonicalPolynomial({(2, 2, 0, 0): 1.0}, "complex")
        report = normalize(complex_ham({4: h4}, 1.0, 3.0))
        assert report.k2200 == pytest.approx(1.0)
        assert report.k1111 == 0.0
        assert report.k0022 == 0.0
        assert report.d2 == pytest.approx(-9.0)
        assert report.kamiltonian.part(4).terms == {(2, 2, 0, 0): pytest.approx(1.0)}

    def test_bracket_half_that_rounds_to_zero_adds_nothing(self):
        # {H3, W3} at (2, 2, 0, 0) is 5e-324j, one ulp, so its half is 0j;
        # added to H4's (1-0j) it would turn the signed zero into +0.  The
        # cubic terms are X1 Y1 X2 and X1 Y1 Y2, whose bracket multiplier is 1;
        # that of X1^2 Y1 and X1 Y1^2 is 3, which makes so small a term a
        # multiple of 3 ulps, whose half is never 0
        h3 = CanonicalPolynomial({(1, 1, 1, 0): 2.0 ** -537, (1, 1, 0, 1): 5 * 2.0 ** -538},
                                 "complex")
        h4 = CanonicalPolynomial({(2, 2, 0, 0): complex(1.0, -0.0)}, "complex")
        report = normalize(complex_ham({3: h3, 4: h4}, 1.07, 5.0))
        bracket = polyalg.poisson_bracket(h3, report.generating.part(3))
        assert bracket.terms == {(2, 2, 0, 0): 5e-324j}
        assert repr(report.kamiltonian.part(4).terms[(2, 2, 0, 0)]) == "(1-0j)"

    def test_offdiagonal_quartic_is_eliminated(self):
        h4 = CanonicalPolynomial({(2, 0, 0, 2): 1.0}, "complex")
        report = normalize(complex_ham({4: h4}, 1.0, 3.0))
        assert report.k2200 == report.k1111 == report.k0022 == 0.0
        w4 = report.generating.part(4)
        assert w4.terms == {(2, 0, 0, 2): pytest.approx(0.25j)}

    def test_real_chart_gives_the_report_of_its_complexified_form(self):
        coeffs = CubicQuarticCoefficients(0.4, -1.0, 0.8, 0.3, 1.1, -0.6, 0.9)
        ham = build_model_hamiltonian(coeffs, Frequencies(1.07, 0.41))
        assert ham.chart == "real"
        got = normalize(ham)
        want = normalize(ham.complexify())
        assert (got.k2200, got.k1111, got.k0022, got.d2) == (
            want.k2200, want.k1111, want.k0022, want.d2)
        assert got.to_json_dict() == want.to_json_dict()

    def test_offdiagonal_quadratic_rejected(self):
        h2 = CanonicalPolynomial({(1, 1, 0, 0): 1j, (0, 0, 1, 1): 1j,
                                  (2, 0, 0, 0): 0.1}, "complex")
        ham = GradedHamiltonian({2: h2}, Frequencies(1.0, 1.0))
        with pytest.raises(ValueError, match="off-diagonal"):
            normalize(ham)

    def test_exact_resonance_raises_with_offender(self):
        h3 = CanonicalPolynomial({(2, 0, 0, 1): 0.7}, "complex")
        with pytest.raises(ResonanceError) as err:
            normalize(complex_ham({3: h3}, 1.0, 2.0))
        assert err.value.exponents == (2, 0, 0, 1)

    def test_near_resonance_is_flagged_when_above_tolerance(self):
        h3 = CanonicalPolynomial({(2, 0, 0, 1): 0.7}, "complex")
        report = normalize(complex_ham({3: h3}, 1.0, 2.0 + 1e-5))
        flagged = dict(report.resonance_flags)
        d = 1.0 * (0 - 2) + (2.0 + 1e-5) * (1 - 0)
        assert flagged == {(2, 0, 0, 1): d}
        assert abs(d) == pytest.approx(1e-5, rel=1e-6)
        assert report.generating.part(3).terms == {(2, 0, 0, 1): 1j * 0.7 / d}

    def test_normal_form_keeps_only_action_products(self):
        rng = random.Random(5)
        for _ in range(10):
            coeffs = CubicQuarticCoefficients(*[rng.uniform(-2, 2) for _ in range(7)])
            w1, w3 = draw_nonresonant_frequencies(rng)
            ham = build_model_hamiltonian(coeffs, Frequencies(w1, w3)).complexify()
            report = normalize(ham)
            assert report.kamiltonian.part(3).is_zero
            for (j, l, r, s) in report.kamiltonian.part(4).terms:
                assert j == l and r == s

    def test_generator_terms_obey_homological_rule(self):
        from birkhoff import poisson_bracket

        coeffs = CubicQuarticCoefficients(0.4, -1.0, 0.8, 0.3, 1.1, -0.6, 0.9)
        w1, w3 = 1.07, 0.41
        ham = build_model_hamiltonian(coeffs, Frequencies(w1, w3)).complexify()
        report = normalize(ham)

        def rule(c, e):
            j, l, r, s = e
            return 1j * c / (w1 * (l - j) + w3 * (s - r))

        h3 = ham.part(3)
        w3poly = report.generating.part(3)
        for e, c in h3.terms.items():
            assert w3poly.coefficient(e) == pytest.approx(rule(c, e), rel=1e-12)
        # degree-4 generator cancels the degree-4 source, term by term
        source4 = poly_sum(ham.part(4), poly_scaled(0.5, poisson_bracket(h3, w3poly)))
        w4poly = report.generating.part(4)
        for e, c in source4.terms.items():
            j, l, r, s = e
            if j == l and r == s:
                continue
            assert w4poly.coefficient(e) == pytest.approx(rule(c, e), rel=1e-12)

    def test_reality_of_model_normal_form(self):
        rng = random.Random(6)
        for _ in range(20):
            coeffs = CubicQuarticCoefficients(*[rng.uniform(-2, 2) for _ in range(7)])
            w1, w3 = draw_nonresonant_frequencies(rng)
            ham = build_model_hamiltonian(coeffs, Frequencies(w1, w3)).complexify()
            k4 = normalize(ham).kamiltonian.part(4)
            scale = max_abs_coefficient(k4)
            assert k4.terms
            assert all(abs(c.imag) <= 1e-9 * scale for c in k4.terms.values())

    def test_engine_matches_first_principles_closed_forms(self):
        rng = random.Random(7)
        for _ in range(100):
            coeffs = CubicQuarticCoefficients(*[rng.uniform(-2, 2) for _ in range(7)])
            w1, w3 = draw_nonresonant_frequencies(rng)
            freqs = Frequencies(w1, w3)
            report = normalize(build_model_hamiltonian(coeffs, freqs).complexify())
            for got, want in ((report.k2200, lie_k2200(coeffs, freqs)),
                              (report.k1111, lie_k1111(coeffs, freqs)),
                              (report.k0022, lie_k0022(coeffs, freqs))):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-11)

    def test_block_independence_of_surviving_coefficients(self):
        rng = random.Random(8)
        freqs = Frequencies(1.13, 0.47)
        base = CubicQuarticCoefficients(0.5, -0.7, 0.0, 0.0, 0.4, 0.0, 0.0)
        ref = normalize(build_model_hamiltonian(base, freqs).complexify())
        for _ in range(5):
            varied = CubicQuarticCoefficients(
                0.5, -0.7, rng.uniform(-2, 2), rng.uniform(-2, 2),
                0.4, rng.uniform(-2, 2), rng.uniform(-2, 2))
            rep = normalize(build_model_hamiltonian(varied, freqs).complexify())
            assert rep.k2200 == pytest.approx(ref.k2200, rel=1e-12)

        base = CubicQuarticCoefficients(0.0, 0.0, 0.6, -0.9, 0.0, 0.0, 1.2)
        ref = normalize(build_model_hamiltonian(base, freqs).complexify())
        for _ in range(5):
            varied = CubicQuarticCoefficients(
                rng.uniform(-2, 2), rng.uniform(-2, 2), 0.6, -0.9,
                rng.uniform(-2, 2), rng.uniform(-2, 2), 1.2)
            rep = normalize(build_model_hamiltonian(varied, freqs).complexify())
            assert rep.k0022 == pytest.approx(ref.k0022, rel=1e-12)

    def test_determinant_scales_quadratically(self):
        rng = random.Random(9)
        freqs = Frequencies(0.83, 1.91)
        for _ in range(10):
            coeffs = CubicQuarticCoefficients(*[rng.uniform(-2, 2) for _ in range(7)])
            base = normalize(build_model_hamiltonian(coeffs, freqs).complexify()).d2
            for lam in (0.5, 2.0):
                scaled = scaled_coefficients(coeffs, lam)
                got = normalize(build_model_hamiltonian(scaled, freqs).complexify()).d2
                assert got == pytest.approx(lam ** 2 * base, rel=1e-9)

    def test_report_round_trips_determinant(self):
        coeffs = CubicQuarticCoefficients(0.4, -1.0, 0.8, 0.3, 1.1, -0.6, 0.9)
        freqs = Frequencies(1.07, 0.41)
        report = normalize(build_model_hamiltonian(coeffs, freqs).complexify())
        assert report.d2 == d2_from_k(report.k2200, report.k1111, report.k0022, *freqs)

    def test_overflow_inside_the_engine_raises(self):
        # {H3, w3deg} overflows a double; it used to vanish, leaving the b1 term
        coeffs = CubicQuarticCoefficients(a1=1e200, a3=1e200, b1=1.0)
        with pytest.raises(ValueError, match="not finite"):
            normalize(build_model_hamiltonian(coeffs, Frequencies(1.07, 0.41)))

    @pytest.mark.parametrize("chart, terms, stage", [
        ("real", {(4, 0, 0, 0): 1.7e308}, "complexified H2 + H3 + H4"),
        ("complex", {(3, 0, 0, 0): 1.5e308}, "degree-3 generator W3"),
        ("complex", {(3, 0, 0, 0): 1e200, (0, 3, 0, 0): 1e200},
         "degree-4 source H4 + {H3, W3}/2"),
        ("complex", {(4, 0, 0, 0): 1.7e308}, "degree-4 generator W4"),
    ])
    def test_overflow_names_the_stage(self, chart, terms, stage):
        # q1^4 complexifies to 6/4 of its coefficient at X1^2 Y1^2; with
        # omega1 = 0.2 the divisors of X1^3 and X1^4 are -0.6 and -0.8
        w1, w3 = 0.2, 1.0
        h2 = (CanonicalPolynomial({(2, 0, 0, 0): w1 / 2, (0, 2, 0, 0): w1 / 2,
                                   (0, 0, 2, 0): w3 / 2, (0, 0, 0, 2): w3 / 2})
              if chart == "real" else diagonal_h2(w1, w3))
        degree = sum(next(iter(terms)))
        ham = GradedHamiltonian({2: h2, degree: CanonicalPolynomial(terms, chart)},
                                Frequencies(w1, w3))
        with pytest.raises(ValueError, match="not finite$") as info:
            normalize(ham)
        assert str(info.value).startswith(stage + ": coefficient ")

    def test_degrees_above_four_are_ignored(self):
        h5 = CanonicalPolynomial({(5, 0, 0, 0): 1.0}, "complex")
        h4 = CanonicalPolynomial({(2, 2, 0, 0): 1.0}, "complex")
        plain = normalize(complex_ham({4: h4}, 1.0, 3.0))
        extended = normalize(complex_ham({4: h4, 5: h5}, 1.0, 3.0))
        assert extended.k2200 == plain.k2200
        assert extended.d2 == plain.d2
        # in the real chart too, where complexifying a degree-1100 part
        # would overflow a double
        model = build_model_hamiltonian(CubicQuarticCoefficients(a3=-0.9, b1=0.7),
                                        Frequencies(1.0, 3.0))
        high = CanonicalPolynomial({(1100, 0, 0, 0): 1e-3}, "real")
        real_plain = normalize(model)
        real_extended = normalize(GradedHamiltonian({**model.parts, 1100: high},
                                                    model.frequencies))
        assert real_extended.d2 == real_plain.d2
        assert real_extended.to_json_dict() == real_plain.to_json_dict()

    def test_each_traced_layer_is_entered_once(self, monkeypatch):
        # the benchmark's tracer rebinds every birkhoff module's name for
        # poisson_bracket and the class attribute GradedHamiltonian.complexify;
        # a call that went round them would leave its layer's spans empty
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        bracket = polyalg.poisson_bracket
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "birkhoff"]
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is bracket:
                    monkeypatch.setattr(module, alias, counted("bracket", bracket))
        monkeypatch.setattr(GradedHamiltonian, "complexify",
                            counted("complexify", GradedHamiltonian.complexify))
        model = build_model_hamiltonian(CubicQuarticCoefficients(0.4, -1.0, 0.8),
                                        Frequencies(1.0, 2.6))
        normalize(model)
        assert calls == {"bracket": 1, "complexify": 1}
        complexified = model.complexify()
        calls.clear()
        normalize(complexified)
        assert calls == {"bracket": 1}


class TestFrequencyShift:
    def test_harmonic_oscillator_has_no_shift(self):
        assert frequency_shift_1dof(1.0, 0.0, 0.0) == 0.0

    def test_pure_quartic_value(self):
        # surviving coefficient of (X1 Y1)^2 is -3b/2, so c2 = 3b/2
        assert frequency_shift_1dof(1.0, 0.0, 1.0) == pytest.approx(1.5, rel=1e-12)

    def test_cubic_softening_is_negative(self):
        assert frequency_shift_1dof(1.0, 1.0, 0.0) < 0.0

    def test_omega_must_be_positive(self):
        with pytest.raises(ValueError):
            frequency_shift_1dof(-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("args, bits", [
        ((1.3, 0.3, 0.7), "0x1.94ad4ad4ad4acp-1"),
        ((1.3, 0.0, 0.7), "0x1.0ccccccccccccp+0"),
        ((1.3, 0.3, 0.0), "-0x1.09d89d89d89d8p-2"),
        ((1.3, 1e-3, 2.0), "0x1.7fffe7cd55ebep+1"),
    ])
    def test_values_are_those_of_the_hand_built_hamiltonian(self, args, bits):
        # the floats the function returned when it built its squares by hand
        assert frequency_shift_1dof(*args) == float.fromhex(bits)

    @pytest.mark.parametrize("omega", [1e-10, 1e-12])
    def test_small_omega_is_not_resonant(self, omega):
        # the 1-DOF system has no resonance at any omega > 0, so the dummy
        # second frequency must not set the resonance tolerance
        a, b = 0.3, 0.2
        assert frequency_shift_1dof(omega, a, b) == pytest.approx(
            1.5 * b - 15 * a**2 / (4 * omega), rel=1e-12)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.7), (0.3, math.inf)], ids=repr)
    def test_non_finite_coefficient_rejected(self, a, b):
        # a nan a used to be skipped and the a = 0 value returned
        with pytest.raises(ValueError, match="must be finite"):
            frequency_shift_1dof(1.3, a, b)
