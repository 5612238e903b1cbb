import random

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
    solve_homological_term,
)
from birkhoff.normalform import is_resonant
from conftest import draw_nonresonant_frequencies, lie_k0022, lie_k1111, lie_k2200


def diagonal_h2(w1, w3):
    return CanonicalPolynomial({(1, 1, 0, 0): 1j * w1, (0, 0, 1, 1): 1j * w3},
                               "complex")


def complex_ham(parts, w1, w3):
    full = {2: diagonal_h2(w1, w3)}
    full.update(parts)
    return GradedHamiltonian(full, Frequencies(w1, w3))


class TestHomologicalRule:
    def test_direct_substitution(self):
        got = solve_homological_term(1.0, (2, 0, 0, 0), Frequencies(1.0, 1.0))
        assert got == pytest.approx(-0.5j)

    def test_complex_source_coefficient(self):
        got = solve_homological_term(2j, (0, 0, 0, 3), Frequencies(1.0, 1.0))
        assert got == pytest.approx(-2.0 / 3.0)

    def test_action_monomial_raises(self):
        with pytest.raises(ResonanceError) as err:
            solve_homological_term(1.0, (1, 1, 0, 0), Frequencies(1.3, 0.4))
        assert err.value.exponents == (1, 1, 0, 0)
        assert err.value.divisor == 0.0

    def test_resonance_predicate(self):
        assert is_resonant((2, 2, 1, 1))
        assert not is_resonant((2, 1, 1, 1))

    def test_near_zero_divisor_raises(self):
        # divisor omega1*(0-2) + omega3*(1-0) with omega3 barely off 2*omega1
        with pytest.raises(ResonanceError):
            solve_homological_term(1.0, (2, 0, 0, 1), Frequencies(1.0, 2.0 + 1e-12))


class TestD2FromK:
    def test_zero_coefficients(self):
        assert d2_from_k(0.0, 0.0, 0.0, Frequencies(0.9, 2.2)) == 0.0

    def test_single_coefficient(self):
        assert d2_from_k(1.0, 0.0, 0.0, Frequencies(5.0, 1.0)) == -1.0

    def test_equal_coefficients_unit_frequencies(self):
        assert d2_from_k(1.0, 1.0, 1.0, Frequencies(1.0, 1.0)) == -3.0


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

    def test_offdiagonal_quartic_is_eliminated(self):
        h4 = CanonicalPolynomial({(2, 0, 0, 2): 1.0}, "complex")
        report = normalize(complex_ham({4: h4}, 1.0, 3.0))
        assert report.k2200 == report.k1111 == report.k0022 == 0.0
        w4 = report.generating.part(4)
        assert w4.terms == {(2, 0, 0, 2): pytest.approx(0.25j)}

    def test_real_chart_rejected(self):
        h2 = CanonicalPolynomial({(2, 0, 0, 0): 0.5, (0, 2, 0, 0): 0.5,
                                  (0, 0, 2, 0): 0.5, (0, 0, 0, 2): 0.5})
        ham = GradedHamiltonian({2: h2}, Frequencies(1.0, 1.0))
        with pytest.raises(ValueError, match="complex chart"):
            normalize(ham)

    def test_offdiagonal_quadratic_rejected(self):
        h2 = CanonicalPolynomial({(1, 1, 0, 0): 1j, (0, 0, 1, 1): 1j,
                                  (2, 0, 0, 0): 0.1}, "complex")
        ham = GradedHamiltonian({2: h2}, Frequencies(1.0, 1.0))
        with pytest.raises(ValueError, match="off-diagonal"):
            normalize(ham)

    def test_only_degree_four_order_supported(self):
        with pytest.raises(ValueError):
            normalize(complex_ham({}, 1.0, 3.0), order=3)

    def test_exact_resonance_raises_with_offender(self):
        h3 = CanonicalPolynomial({(2, 0, 0, 1): 0.7}, "complex")
        with pytest.raises(ResonanceError) as err:
            normalize(complex_ham({3: h3}, 1.0, 2.0))
        assert err.value.exponents == (2, 0, 0, 1)

    def test_near_resonance_is_flagged_when_above_tolerance(self):
        h3 = CanonicalPolynomial({(2, 0, 0, 1): 0.7}, "complex")
        report = normalize(complex_ham({3: h3}, 1.0, 2.0 + 1e-5))
        flagged = dict(report.resonance_flags)
        assert (2, 0, 0, 1) in flagged
        assert abs(flagged[(2, 0, 0, 1)]) == pytest.approx(1e-5, rel=1e-6)

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
        freqs = Frequencies(1.07, 0.41)
        ham = build_model_hamiltonian(coeffs, freqs).complexify()
        report = normalize(ham)
        h3 = ham.part(3)
        w3poly = report.generating.part(3)
        for e, c in h3.terms.items():
            assert w3poly.coefficient(e) == pytest.approx(
                solve_homological_term(c, e, freqs), rel=1e-12)
        # degree-4 generator cancels the degree-4 source, term by term
        source4 = ham.part(4) + 0.5 * poisson_bracket(h3, w3poly)
        w4poly = report.generating.part(4)
        for e, c in source4.terms.items():
            j, l, r, s = e
            if j == l and r == s:
                continue
            assert w4poly.coefficient(e) == pytest.approx(
                solve_homological_term(c, e, freqs), rel=1e-12)

    def test_reality_of_model_normal_form(self):
        rng = random.Random(6)
        for _ in range(20):
            coeffs = CubicQuarticCoefficients(*[rng.uniform(-2, 2) for _ in range(7)])
            w1, w3 = draw_nonresonant_frequencies(rng)
            ham = build_model_hamiltonian(coeffs, Frequencies(w1, w3)).complexify()
            report = normalize(ham)
            assert report.max_imag_residual <= 1e-9

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
                scaled = coeffs.scaled(lam)
                got = normalize(build_model_hamiltonian(scaled, freqs).complexify()).d2
                assert got == pytest.approx(lam ** 2 * base, rel=1e-9)

    def test_report_round_trips_determinant(self):
        coeffs = CubicQuarticCoefficients(0.4, -1.0, 0.8, 0.3, 1.1, -0.6, 0.9)
        freqs = Frequencies(1.07, 0.41)
        report = normalize(build_model_hamiltonian(coeffs, freqs).complexify())
        assert report.d2 == d2_from_k(report.k2200, report.k1111, report.k0022, freqs)

    def test_degrees_above_four_are_ignored(self):
        h5 = CanonicalPolynomial({(5, 0, 0, 0): 1.0}, "complex")
        h4 = CanonicalPolynomial({(2, 2, 0, 0): 1.0}, "complex")
        plain = normalize(complex_ham({4: h4}, 1.0, 3.0))
        extended = normalize(complex_ham({4: h4, 5: h5}, 1.0, 3.0))
        assert extended.k2200 == plain.k2200
        assert extended.d2 == plain.d2


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
