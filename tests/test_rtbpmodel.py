import math
import random
import re
import statistics
from array import array
from decimal import Decimal
from fractions import Fraction

import pytest

from birkhoff import (
    CubicQuarticCoefficients,
    Frequencies,
    ModelParams,
    ScanRow,
    StabilityStatus,
    build_model_hamiltonian,
    coefficient_series,
    coefficients,
    d2_closed,
    d2_eval,
    normalize,
    scan_blocks,
    scan_omega1,
    stability_verdict,
    verdict_from_d2,
)

from birkhoff import closedform, rtbpmodel
from birkhoff.closedform import DeterminantOverflowError, PoleError, tabulated_kernel
from birkhoff.cli import main
from birkhoff.rtbpmodel import DEGENERACY_FRACTION, ModelDomainError
from conftest import REFUSED_NUMBERS, assert_record_refuses

REFERENCE_POINT = ModelParams(mu=0.00025, q=0.025, Q=0.00025, A=0.00025)


class TestCoefficients:
    def test_symmetric_masses_quartic_vertical(self):
        c = coefficients(ModelParams(mu=0.5, q=1.0, Q=1.0, A=0.0))
        assert c.b5 == pytest.approx(12.0)

    def test_symmetric_masses_coupled_cubic_vanishes(self):
        c = coefficients(ModelParams(mu=0.5, q=1.0, Q=1.0, A=0.0))
        assert c.a3 == pytest.approx(0.0, abs=1e-12)

    def test_odd_vertical_cubics_vanish_without_oblateness(self):
        rng = random.Random(51)
        for _ in range(20):
            p = ModelParams(mu=rng.uniform(0.01, 0.99), q=rng.uniform(0.1, 1.0),
                            Q=rng.uniform(0.1, 1.0), A=0.0)
            c = coefficients(p)
            assert c.a2 == 0.0
            assert c.a4 == 0.0

    def test_auxiliary_constants(self):
        c = coefficients(ModelParams(mu=0.5, q=1.0, Q=1.0, A=0.0))
        assert c.a == pytest.approx(0.5)
        assert c.c == pytest.approx(0.0)
        c = coefficients(ModelParams(mu=0.5, q=1.0, Q=1.0, A=0.04))
        assert c.c == pytest.approx(math.sqrt(3 * 0.04) - 9.0 * 0.04 ** 2, rel=1e-12)

    def test_coefficient_set_is_the_cubic_quartic_set(self):
        c = coefficients(REFERENCE_POINT)
        assert isinstance(c, CubicQuarticCoefficients)
        assert c._fields == CubicQuarticCoefficients._fields + ("a", "c")
        assert c.cubic_quartic() is c
        assert d2_closed(c, Frequencies(0.3, 1.0)) == d2_eval(REFERENCE_POINT, 0.3, 1.0).value

    def test_series_are_summed_in_ascending_half_order(self, monkeypatch):
        # a quantity with three or more terms has 1.0, 1e16, 0.0 for any
        # further middle half-order, then -1e16: plain float addition in
        # ascending h rounds the 1.0 away at 1e16 and sums to 0.0, where
        # descending h, math.fsum and the compensated builtin sum of CPython
        # 3.12+ all keep it and sum to 1.0; a and c have two terms, 1.0 and
        # -1.0, whose sum no order changes
        def seam(orders):
            if len(orders) == 2:
                return (1.0, -1.0)
            return (1.0, 1e16, *[0.0] * (len(orders) - 3), -1e16)

        monkeypatch.setattr(rtbpmodel, "_series_terms", lambda params: tuple(
            term for _, orders in rtbpmodel._LAYOUT for term in seam(orders)))
        point = ModelParams(mu=0.5, q=1.0, Q=1.0, A=1.0)
        assert coefficients(point) == (0.0,) * 9
        # through h = 2: 1.0 + 1e16 rounds to 1e16 where h = 2 has a term,
        # and the h = 0 or h = 1 term stands alone elsewhere
        assert coefficients(point, max_half_order=2)._asdict() == {
            name: 1e16 if 2 in orders else 1.0 for name, orders in rtbpmodel._LAYOUT}

    @pytest.mark.parametrize("name", ["a", "c", "a1", "b5"])
    def test_coefficient_set_fields_must_be_finite(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            rtbpmodel.CoefficientSet(**{name: math.inf})
        assert_record_refuses(rtbpmodel.CoefficientSet(), ValueError, f"^{name} must be finite",
                              **{name: math.inf})

    @pytest.mark.parametrize("bad", [Decimal("0.4"), True, False, 1j, "0.4", None,
                                     pytest.param(10**400, id="10**400"),
                                     *REFUSED_NUMBERS], ids=repr)
    def test_coefficient_fields_must_be_reals(self, bad):
        # refused in the constructor, not by the arithmetic of d2_closed
        for cls, name in ((CubicQuarticCoefficients, "a1"), (rtbpmodel.CoefficientSet, "c")):
            message = f"^{name} must be finite, got {re.escape(repr(bad))}$"
            with pytest.raises(ValueError, match=message):
                cls(**{name: bad})
            assert_record_refuses(cls(), ValueError, message, **{name: bad})

    def test_exact_real_coefficients_accepted(self):
        exact = CubicQuarticCoefficients(a1=Fraction(2, 5), b3=3)
        assert d2_closed(exact, Frequencies(0.3, 1.0)) == pytest.approx(d2_closed(
            CubicQuarticCoefficients(a1=0.4, b3=3.0), Frequencies(0.3, 1.0)))

    @pytest.mark.parametrize("cls, bad, named", [
        (CubicQuarticCoefficients, {"b5": math.nan, "a2": -math.inf, "b1": math.inf},
         "a2 must be finite, got -inf"),
        (rtbpmodel.CoefficientSet, {"c": math.inf, "a": math.nan, "b3": -math.inf},
         "b3 must be finite, got -inf"),
        (rtbpmodel.CoefficientSet, {"c": math.inf, "a": math.nan},
         "a must be finite, got nan"),
    ])
    def test_first_non_finite_field_in_declaration_order_is_named(self, cls, bad, named):
        # a1..b5, then a and c, whatever the order of the keywords
        with pytest.raises(ValueError) as err:
            cls(**bad)
        assert str(err.value) == named
        assert_record_refuses(cls(), ValueError, f"^{re.escape(named)}$", **bad)

    @pytest.mark.parametrize("max_half_order", [None, 0, 2, 7])
    def test_coefficients_evaluate_the_series_once_through_the_module(
            self, monkeypatch, max_half_order):
        calls = []
        series = rtbpmodel._series_terms

        def counting(params):
            calls.append(params)
            return series(params)

        monkeypatch.setattr(rtbpmodel, "_series_terms", counting)
        expected = coefficients(REFERENCE_POINT, max_half_order)
        assert calls == [REFERENCE_POINT]
        stability_verdict(REFERENCE_POINT, 0.3, 1.0, max_half_order=max_half_order)
        list(scan_omega1(REFERENCE_POINT, 1.0, 0.1, 0.9, 9, max_half_order=max_half_order))
        assert calls == [REFERENCE_POINT] * 3
        monkeypatch.undo()
        assert coefficients(REFERENCE_POINT, max_half_order) == expected

    def test_domain_validation(self):
        with pytest.raises(ModelDomainError):
            ModelParams(mu=0.0, q=0.5, Q=0.5, A=0.0)
        with pytest.raises(ModelDomainError):
            ModelParams(mu=1.0, q=0.5, Q=0.5, A=0.0)
        with pytest.raises(ModelDomainError):
            ModelParams(mu=0.3, q=0.5, Q=0.0, A=0.0)
        with pytest.raises(ModelDomainError):
            ModelParams(mu=0.3, q=0.5, Q=0.5, A=-1e-6)

    @pytest.mark.parametrize("field", ["mu", "q", "Q", "A"])
    @pytest.mark.parametrize("bad", [Decimal("0.001"), True, "0.001", None,
                                     pytest.param(10**400, id="10**400"),
                                     *REFUSED_NUMBERS], ids=repr)
    def test_params_must_be_reals(self, field, bad):
        # a bool would pass the range checks as 0 or 1 and reach asdict as a bool
        kw = {"mu": 0.5, "q": 0.5, "Q": 0.5, "A": 0.0, field: bad}
        message = f"^{field} must .*, got {re.escape(repr(bad))}$"
        with pytest.raises(ModelDomainError, match=message):
            ModelParams(**kw)
        assert_record_refuses(ModelParams(0.5, 0.5, 0.5, 0.0), ModelDomainError, message,
                              **{field: bad})

    RANGE_MESSAGES = {"mu": "mu must lie strictly inside (0, 1)", "q": "q must lie in (0, 1]",
                      "Q": "Q must lie in (0, 1]", "A": "A must be a finite non-negative real"}

    @pytest.mark.parametrize("value, accepted", [
        (True, ""), (1, "q Q A"), (Fraction(1, 2), "mu q Q A"), (Fraction(3, 2), "A"),
        (math.nan, ""), (math.inf, ""), (-math.inf, ""), (-0.0, "A"), (0.0, "A"),
        (1.0, "q Q A"), (5e-324, "mu q Q A"), (math.nextafter(1.0, 2.0), "A"),
        (1.7976931348623157e308, "A"),
    ], ids=repr)
    def test_floats_and_other_reals_meet_one_range_rule(self, value, accepted):
        # a float takes the exact-float test, any other real is_finite_real:
        # both accept and refuse the same values, with the same message
        for field, message in self.RANGE_MESSAGES.items():
            kw = {"mu": 0.5, "q": 0.5, "Q": 0.5, "A": 0.0, field: value}
            if field in accepted.split():
                assert getattr(ModelParams(**kw), field) is value
            else:
                with pytest.raises(ModelDomainError) as caught:
                    ModelParams(**kw)
                assert str(caught.value) == f"{message}, got {value!r}"

    def test_half_order_truncation_monotonicity(self):
        # difference between O(A) and O(A^2) truncations shrinks like a power
        # between A^(3/2) and A^2, i.e. by 10^1.4 or more per decade of A
        p_small = ModelParams(mu=0.1, q=0.9, Q=0.9, A=1e-4)
        p_large = ModelParams(mu=0.1, q=0.9, Q=0.9, A=1e-3)
        for name in ("a1", "a2", "a3", "a4", "b1", "b3", "b5", "a", "c"):
            diffs = []
            for p in (p_small, p_large):
                lo = getattr(coefficients(p, max_half_order=2), name)
                hi = getattr(coefficients(p, max_half_order=4), name)
                diffs.append(abs(hi - lo))
            if diffs[0] == 0.0:
                assert diffs[1] == 0.0
                continue
            assert diffs[1] / diffs[0] >= 10 ** 1.4

    @pytest.mark.parametrize("mu, Q", [(1e-40, 0.5), (1e-300, 1e-300)])
    def test_vanishing_mass_ratio_is_domain_error(self, mu, Q):
        # a power of mu or mu*Q underflows to 0 inside the expansions
        params = ModelParams(mu=mu, q=0.5, Q=Q, A=0.001)
        for evaluate in (coefficient_series, coefficients):
            with pytest.raises(ModelDomainError, match=r"\(mu, q, Q\)"):
                evaluate(params)

    def test_overflowing_power_of_oblateness_is_domain_error(self):
        with pytest.raises(ModelDomainError, match="power of A"):
            coefficients(ModelParams(mu=0.1, q=0.5, Q=0.5, A=1e200))

    def test_overflowing_coefficient_square_is_determinant_overflow(self):
        # finite coefficients whose squares leave the double range
        with pytest.raises(DeterminantOverflowError, match="omega1=0.3"):
            d2_eval(ModelParams(mu=1e-32, q=0.5, Q=0.5, A=0.001), 0.3, 1.0)

    def test_negative_max_half_order_rejected(self):
        for h in (0, 4, None):
            coefficients(REFERENCE_POINT, max_half_order=h)
        with pytest.raises(ValueError, match="max_half_order"):
            coefficients(REFERENCE_POINT, max_half_order=-1)
        with pytest.raises(ValueError, match="max_half_order"):
            d2_eval(REFERENCE_POINT, 0.3, 1.0, max_half_order=-3)
        with pytest.raises(ValueError, match="max_half_order"):
            scan_omega1(REFERENCE_POINT, 1.0, 0.1, 0.9, 5, max_half_order=-3)
        # nan would drop every term, 2.5 and True would read as 2 and 1
        for h in (math.nan, 2.5, 4.0, True, "x"):
            with pytest.raises(ValueError, match="^max_half_order must be an int, got "):
                coefficients(REFERENCE_POINT, max_half_order=h)
            with pytest.raises(ValueError, match="max_half_order"):
                stability_verdict(REFERENCE_POINT, 0.3, 1.0, max_half_order=h)
            with pytest.raises(ValueError, match="max_half_order"):
                scan_omega1(REFERENCE_POINT, 1.0, 0.1, 0.9, 5, max_half_order=h)

    @pytest.mark.parametrize("max_half_order", [0, 1, 2, 3, 4])
    def test_every_field_is_a_float(self, max_half_order):
        # a2, a4 and c keep no term at h = 0: their sums are empty
        c = coefficients(REFERENCE_POINT, max_half_order)
        for name in c._fields:
            assert type(getattr(c, name)) is float, name

    def test_series_table_covers_all_quantities(self):
        table = coefficient_series(REFERENCE_POINT)
        assert set(table) == {"a", "c", "a1", "a2", "a3", "a4", "b1", "b3", "b5"}
        for orders in table.values():
            assert all(h in (0, 1, 2, 3, 4) for h in orders)


class TestBuildModelHamiltonian:
    def test_zero_coefficients_give_zero_determinant(self):
        c = CubicQuarticCoefficients()
        ham = build_model_hamiltonian(c, Frequencies(1.1, 0.9)).complexify()
        assert normalize(ham).d2 == 0.0

    def test_vertical_quartic_survives_with_expected_weight(self):
        c = CubicQuarticCoefficients(b5=1.0)
        ham = build_model_hamiltonian(c, Frequencies(1.0, 3.0)).complexify()
        report = normalize(ham)
        assert report.k0022 == pytest.approx(-1.5, rel=1e-12)
        assert report.k2200 == 0.0
        assert report.k1111 == 0.0

    def test_quadratic_part_is_two_harmonic_modes(self):
        c = CubicQuarticCoefficients(a1=1.0)
        ham = build_model_hamiltonian(c, Frequencies(2.0, 0.5))
        h2 = ham.part(2)
        assert h2.coefficient((2, 0, 0, 0)) == pytest.approx(1.0)
        assert h2.coefficient((0, 2, 0, 0)) == pytest.approx(1.0)
        assert h2.coefficient((0, 0, 2, 0)) == pytest.approx(0.25)
        assert h2.coefficient((0, 0, 0, 2)) == pytest.approx(0.25)


class TestD2Eval:
    def test_reference_point_value_is_large_and_finite(self):
        res = d2_eval(REFERENCE_POINT, 0.3, 1.0)
        assert math.isfinite(res.value)
        assert abs(res.value) > 1e25
        assert stability_verdict(REFERENCE_POINT, 0.3, 1.0).status is StabilityStatus.STABLE

    def test_guard_band_flags_near_half(self):
        verdict = stability_verdict(REFERENCE_POINT, 0.503, 1.0)
        assert verdict.status is StabilityStatus.POLE
        assert verdict.notes == ("pole:omega3 = 2*omega1",)

    def test_exact_pole_is_flagged_not_raised(self):
        # omega3 = 2*omega1 exactly at both; at the second the K2200
        # denominator is still 0 one ulp up, so the nudge takes two steps
        for w1, w3 in ((0.5, 1.0), (0.0007807924243102605, 0.001561584848620521)):
            res = d2_eval(REFERENCE_POINT, w1, w3)
            assert math.isfinite(res.value)
            verdict = stability_verdict(REFERENCE_POINT, w1, w3)
            assert verdict.status is StabilityStatus.POLE
            assert verdict.d2 == res.value
            assert verdict.notes == ("pole:omega3 = 2*omega1",)

    def test_nudge_gives_up_after_a_fixed_number_of_steps(self, monkeypatch):
        tried = []

        def always_pole(w1):
            tried.append(w1)
            raise PoleError("omega3 = 2*omega1")

        def kernel(cq, omega3):
            return always_pole

        monkeypatch.setattr(rtbpmodel, "tabulated_kernel", kernel)
        with pytest.raises(DeterminantOverflowError, match="denominator"):
            d2_eval(REFERENCE_POINT, 0.5, 1.0)
        assert len(tried) == rtbpmodel.POLE_NUDGE_STEPS + 1
        assert tried[0] == 0.5
        assert all(math.nextafter(a, math.inf) == b for a, b in zip(tried, tried[1:]))

    def test_synthetic_zero_coefficients(self):
        value = d2_closed(CubicQuarticCoefficients(), Frequencies(0.37, 1.0))
        assert value == 0.0


class TestStabilityVerdict:
    def test_reference_point_is_stable_away_from_asymptote(self):
        verdict = stability_verdict(REFERENCE_POINT, 0.3, 1.0)
        assert verdict.status is StabilityStatus.STABLE
        assert verdict.d2 != 0.0

    @pytest.mark.parametrize("name, bad", [
        pytest.param("omega1", Decimal("1.5"), id="omega1"),
        pytest.param("omega3", Decimal("1.0"), id="omega3"),
        pytest.param("omega3", 10**400, id="omega3-past-double"),
        pytest.param("omega1", -0.3, id="omega1-negative"),
        pytest.param("omega1", "x", id="omega1-str"),
        pytest.param("omega3", -1.0, id="omega3-negative"),
        *(pytest.param(name, bad.values[0], id=f"{name}-{bad.id}")
          for name in ("omega1", "omega3") for bad in REFUSED_NUMBERS),
    ])
    def test_decimal_frequency_rejected(self, name, bad):
        # verdict_from_d2 checks a frequency as d2_eval does, whatever D2 it is given
        omega1, omega3 = (bad, 1.0) if name == "omega1" else (0.3, bad)
        message = f"^{name} must be a positive finite real, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            stability_verdict(REFERENCE_POINT, omega1, omega3)
        for tolerance in (None, 1e-6):
            with pytest.raises(ValueError, match=message):
                verdict_from_d2(1.0, omega1, omega3, tolerance)

    @pytest.mark.parametrize("d2", [*REFUSED_NUMBERS, "1.0"], ids=repr)
    @pytest.mark.parametrize("tolerance", [None, 1e-6, math.inf])
    def test_d2_must_be_a_finite_real(self, d2, tolerance):
        # checked before the tolerance: a nan D2 is not stable, nor an inf one degenerate
        with pytest.raises(ValueError, match=f"^D2 must be a finite real, got {re.escape(repr(d2))}$"):
            verdict_from_d2(d2, 0.3, 1.0, tolerance)

    @staticmethod
    def outcomes(params, omega1, omega3, tolerance, max_half_order=None):
        """stability_verdict, and verdict_from_d2 of d2_eval's value, at one
        point, each as (verdict, D2 bits) or (error type, message)."""
        def outcome(form):
            try:
                verdict = form()
            except Exception as err:
                return type(err), str(err)
            return verdict, verdict.d2.hex()
        return (outcome(lambda: stability_verdict(params, omega1, omega3, tolerance,
                                                  max_half_order)),
                outcome(lambda: verdict_from_d2(
                    d2_eval(params, omega1, omega3, max_half_order).value,
                    omega1, omega3, tolerance)))

    def test_verdict_is_verdict_from_d2_of_d2_eval(self):
        # stability_verdict skips the checks d2_eval has made; nothing else differs
        rng = random.Random(24)
        for _ in range(60):
            params = ModelParams(mu=10 ** rng.uniform(-4, -1), q=rng.uniform(0.01, 1.0),
                                 Q=10 ** rng.uniform(-4, 0), A=rng.uniform(0.0, 0.01))
            d2 = d2_eval(params, 0.3, 1.0).value
            for omega1 in (0.5, 2.0, 1.0, 1 / 3, 3.0, 0.005, rng.uniform(0.05, 4.0)):
                for tolerance in (None, 1e-6, abs(d2)):
                    for max_half_order in (None, 2):
                        first, second = self.outcomes(params, omega1, 1.0, tolerance,
                                                      max_half_order)
                        assert first == second

    @pytest.mark.parametrize("name, bad", [
        pytest.param(name, bad.values[0], id=f"{name}-{bad.id}")
        for name in ("omega1", "omega3", "d2_tolerance") for bad in REFUSED_NUMBERS
        # None as d2_tolerance takes the default tolerance
        if not (name == "d2_tolerance" and bad.values == (None,))])
    def test_verdict_refuses_as_verdict_from_d2(self, name, bad):
        args = {"omega1": 0.3, "omega3": 1.0, "d2_tolerance": None, name: bad}
        first, second = self.outcomes(REFERENCE_POINT, *args.values())
        assert first == second
        assert first[0] is ValueError

    def test_verdict_checks_each_frequency_once(self, monkeypatch):
        calls = []
        for module in (rtbpmodel, closedform):
            def counted(name, v, check=module.check_frequency):
                calls.append(name)
                return check(name, v)
            monkeypatch.setattr(module, "check_frequency", counted)
        stability_verdict(REFERENCE_POINT, 0.3, 1.0)
        assert sorted(calls) == ["omega1", "omega3"]

    def test_guard_band_gives_pole_status(self):
        verdict = stability_verdict(REFERENCE_POINT, 0.5, 1.0)
        assert verdict.status is StabilityStatus.POLE

    def test_zero_determinant_is_degenerate(self):
        verdict = verdict_from_d2(0.0, 0.3, 1.0, d2_tolerance=1e-6)
        assert verdict.status is StabilityStatus.DEGENERATE

    def test_exact_one_to_one_resonance_is_reported(self):
        verdict = verdict_from_d2(1.0, 1.0, 1.0, d2_tolerance=1e-6)
        assert verdict.status is StabilityStatus.RESONANT
        assert any("omega1 = omega3" in n for n in verdict.notes)

    @pytest.mark.parametrize("d2, omega1, omega3, tolerance, status, notes", [
        (1.0, 0.3, 1.0, None, "stable", "abs(D2)=1 > tolerance=1e-06"),
        (1.0, 0.3, 1.0, 10.0, "degenerate", "abs(D2)=1 <= tolerance=10"),
        (0.0, 0.3, 1.0, None, "degenerate", "abs(D2)=0 <= tolerance=1e-300"),
        (1.0, 0.5, 1.0, None, "pole", "pole:omega3 = 2*omega1"),
        (1.0, 2.0, 1.0, None, "pole", "pole:omega1 = 2*omega3"),
        (1.0, 0.005, 1.0, None, "pole", "pole:omega1 = 0"),
        (1.0, 1.0, 1.0, None, "resonant", "resonance:omega1 = omega3"),
        (1.0, 1.0, 3.0, None, "resonant", "resonance:omega3 = 3*omega1"),
        (1.0, 3.0, 1.0, None, "resonant", "resonance:omega1 = 3*omega3"),
    ], ids=["stable", "degenerate-explicit", "degenerate-zero", "pole-half",
            "pole-double", "pole-zero", "resonance-one", "resonance-third",
            "resonance-triple"])
    def test_notes(self, d2, omega1, omega3, tolerance, status, notes):
        verdict = verdict_from_d2(d2, omega1, omega3, tolerance)
        assert (verdict.status.value, verdict.notes) == (status, (notes,))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            verdict_from_d2(1.0, 0.3, 1.0, d2_tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [
        True, Decimal("1"), "1", pytest.param(10**400, id="10**400"),
        # None there takes the default tolerance
        *(bad for bad in REFUSED_NUMBERS if bad.values != (None,)),
    ], ids=repr)
    def test_tolerance_must_be_a_finite_real(self, tolerance):
        # True and Decimal("1") compare as numbers, so only the predicate refuses them
        message = f"^d2_tolerance must be a positive finite real, got {re.escape(repr(tolerance))}$"
        with pytest.raises(ValueError, match=message):
            stability_verdict(REFERENCE_POINT, 0.3, 1.0, d2_tolerance=tolerance)
        with pytest.raises(ValueError, match=message):
            scan_omega1(REFERENCE_POINT, 1.0, 0.1, 0.9, 3, d2_tolerance=tolerance)

    def test_default_tolerances_report_the_one_to_one_resonance(self):
        verdict = verdict_from_d2(1.0, 1.0, 1.0, d2_tolerance=None)
        assert verdict.status is StabilityStatus.RESONANT

    @pytest.mark.parametrize("omega1, omega3", [(True, 1.0), (0.3, True)])
    def test_bool_frequency_rejected(self, omega1, omega3):
        # True == 1 is a Number, but no verdict may write a frequency as true
        with pytest.raises(ValueError, match="positive finite real, got True"):
            stability_verdict(REFERENCE_POINT, omega1, omega3)


class TestScan:
    def test_two_point_scan_of_narrow_interval(self):
        rows = list(scan_omega1(REFERENCE_POINT, 1.0, 0.3, 0.3 + 1e-9, 2))
        assert len(rows) == 2
        assert rows[0].d2 == pytest.approx(rows[1].d2, rel=1e-5)

    def test_rows_are_ordered_and_cover_endpoints(self):
        rows = scan_omega1(REFERENCE_POINT, 1.0, 0.1, 0.9, 17)
        grid = [r.omega1 for r in rows]
        assert grid == sorted(grid)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(0.9)

    def test_flag_vocabulary(self):
        rows = scan_omega1(REFERENCE_POINT, 1.0, 0.05, 0.95, 181)
        assert set(r.flag for r in rows) <= {"ok", "pole", "resonant", "degenerate"}

    def test_pole_window_around_doubled_vertical_frequency(self):
        rows = scan_omega1(REFERENCE_POINT, 1.0, 1.5, 2.5, 101)
        flagged = [r.omega1 for r in rows if r.flag == "pole"]
        assert flagged
        assert all(abs(w - 2.0) < 0.02 for w in flagged)

    def test_pole_rows_carry_finite_values(self):
        rows = scan_omega1(REFERENCE_POINT, 1.0, 0.05, 0.95, 181)
        assert all(math.isfinite(r.d2) for r in rows)

    def test_flags_appear_only_near_known_poles(self):
        rows = scan_omega1(REFERENCE_POINT, 1.0, 0.05, 2.5, 491)
        for r in rows:
            if r.flag == "pole":
                assert min(abs(r.omega1 - 0.5), abs(r.omega1 - 2.0)) < 0.02 \
                    or r.omega1 < 0.011

    @pytest.mark.parametrize("grid", [(0.25, 2.25, 9), (0.05, 4.0, 2001),
                                      (1.0 / 3.0, 3.0, 9)])
    @pytest.mark.parametrize("max_half_order", [0, 2, None])
    @pytest.mark.parametrize("d2_tolerance", [None, 1e24])
    def test_rows_match_pointwise_evaluation(self, grid, max_half_order, d2_tolerance):
        # the scan evaluates the coefficients once per grid; every row must
        # still equal d2_eval, which evaluates them afresh at each point, and
        # carry the verdict's status at the scan's cut, stable written ok
        rows = list(scan_omega1(REFERENCE_POINT, 1.0, *grid, d2_tolerance=d2_tolerance,
                                max_half_order=max_half_order))
        points = [d2_eval(REFERENCE_POINT, r.omega1, 1.0, max_half_order) for r in rows]
        tolerance = d2_tolerance
        if tolerance is None:
            tolerance = DEGENERACY_FRACTION * statistics.median(abs(p.value) for p in points)
        assert len(rows) == grid[2]
        for row, point in zip(rows, points):
            assert row.d2 == point.value
            status = verdict_from_d2(point.value, row.omega1, 1.0, tolerance).status
            assert row.flag == ("ok" if status is StabilityStatus.STABLE else status.value)
        flagged = {flag: {r.omega1 for r in rows if r.flag == flag}
                   for flag in ("pole", "resonant")}
        if grid == (0.25, 2.25, 9):
            # the exact poles omega1 = 0.5 and 2.0 and the 1:1 resonance are grid points
            assert flagged == {"pole": {0.5, 2.0}, "resonant": {1.0}}
        elif grid[0] == 1.0 / 3.0:
            # omega1 = 1/3, 1 and 3 are the three exact resonances; the grid
            # point next to the pole omega1 = 2 is two ulps below it
            assert flagged["resonant"] == {1.0 / 3.0, 1.0, 3.0}
            assert list(flagged["pole"]) == [pytest.approx(2.0, rel=1e-15)]

    def test_invalid_tolerance_fails_before_any_evaluation(self, monkeypatch, capsys):
        calls = []

        def kernel(cq, omega3):
            d2 = tabulated_kernel(cq, omega3)

            def counted(w1):
                calls.append(w1)
                return d2(w1)

            return counted

        monkeypatch.setattr(rtbpmodel, "tabulated_kernel", kernel)
        scan_omega1(REFERENCE_POINT, 1.0, 0.05, 0.95, 7, d2_tolerance=1.0)
        assert len(calls) == 7
        calls.clear()
        with pytest.raises(ValueError, match="d2_tolerance"):
            scan_omega1(REFERENCE_POINT, 1.0, 0.05, 0.95, 10**5, d2_tolerance=-1.0)
        assert main(["rtbp-scan", "--mu", "0.00025", "--q", "0.025", "--Q", "0.00025",
                     "--A", "0.00025", "--grid", "0.05:0.95:100000",
                     "--d2-tolerance", "-1"]) == 3
        assert capsys.readouterr().out == ""
        assert calls == []

    def test_scan_returns_an_iterator_of_rows(self):
        rows = scan_omega1(REFERENCE_POINT, 1.0, 0.1, 0.9, 5)
        assert iter(rows) is rows
        first = next(rows)
        assert type(first) is ScanRow
        assert first == (first.omega1, first.d2, first.flag)
        assert first.omega1 == 0.1
        assert len(list(rows)) == 4

    @pytest.mark.parametrize("steps", [3, 2 * rtbpmodel.FLAG_BLOCK + 5])
    def test_blocks_are_the_rows_as_columns(self, steps):
        # grid order, at most FLAG_BLOCK rows a block, the same rows as
        # scan_omega1; above omega1 = 3 whole blocks are clear of every window
        blocks = list(scan_blocks(REFERENCE_POINT, 1.0, 0.05, 40.0, steps))
        for omega1s, d2s, flags in blocks:
            assert (type(omega1s), type(d2s), type(flags)) == (list, array, list)
            assert 1 <= len(omega1s) == len(d2s) == len(flags) <= rtbpmodel.FLAG_BLOCK
        rows = [row for block in blocks for row in zip(*block)]
        assert rows == list(scan_omega1(REFERENCE_POINT, 1.0, 0.05, 40.0, steps))
        if steps > rtbpmodel.FLAG_BLOCK:
            assert max(len(d2s) for _, d2s, _ in blocks) == rtbpmodel.FLAG_BLOCK

    @pytest.mark.parametrize("lo, hi, steps, lengths", [
        # every relation lies off the grid: whole blocks to the last row
        (0.6, 0.9, 3 * rtbpmodel.FLAG_BLOCK, [rtbpmodel.FLAG_BLOCK] * 3),
        (0.6, 0.9, 100, [100]),
        # the reference scan: the omega3/3 resonance falls between two
        # points, and the pole band at 0.5 holds three rows
        (0.05, 0.95, 181, [89, 3, 89]),
        (0.05, 40.0, 2 * rtbpmodel.FLAG_BLOCK + 5, [92, 2, 305, 4, 4096, 3698]),
    ])
    def test_block_lengths(self, lo, hi, steps, lengths):
        # a window is never empty, so a relation that holds at no row splits
        # no stretch of rows clear of every window
        windows = rtbpmodel._void_windows(1.0, lo, hi, steps)
        assert all(start < stop for start, stop in windows)
        blocks = scan_blocks(REFERENCE_POINT, 1.0, lo, hi, steps)
        assert [len(d2s) for _, d2s, _ in blocks] == lengths

    def test_blocks_raise_before_the_first_is_taken(self):
        # scan_blocks is not a generator function: the scan runs when it is called
        with pytest.raises(DeterminantOverflowError):
            scan_blocks(REFERENCE_POINT, 1e308, 0.05, 4.0, 5)
        with pytest.raises(ValueError, match="at least 2 steps"):
            scan_blocks(REFERENCE_POINT, 1.0, 0.05, 4.0, 1)

    @pytest.mark.parametrize("chunk", [4, 1, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 16, 17, 100, 101])
    def test_chunked_median_matches_statistics_median(self, monkeypatch, chunk, n):
        # runs of 4 put chunk boundaries inside and right at the middle; runs
        # of 1 hold one value each, and the last run of 5 is mostly shorter
        monkeypatch.setattr(rtbpmodel, "MEDIAN_CHUNK", chunk)
        rng = random.Random(n)
        values = [rng.choice((-1.0, 1.0)) * rng.choice((0.0, 1e-300, 0.1, 3.0, 7e33))
                  * rng.uniform(0.5, 2.0) for _ in range(n)]
        want = statistics.median(abs(v) for v in values)
        assert rtbpmodel._median_abs(values).hex() == want.hex()

    def test_select_over_runs_of_unequal_lengths(self):
        rng = random.Random(3)
        runs = [array("d", sorted(rng.choice((0.0, 5e-324, 1.0, 2.5, 2.5, 1e308))
                                  for _ in range(size)))
                for size in (1, 7, 30, 2)]
        merged = sorted(v for run in runs for v in run)
        assert [rtbpmodel._select(runs, k) for k in range(len(merged))] == merged

    @pytest.mark.parametrize("n", [rtbpmodel.MEDIAN_CHUNK * 2 + 1,
                                   rtbpmodel.MEDIAN_CHUNK * 2 + 2])
    def test_chunked_median_across_full_size_chunks(self, n):
        rng = random.Random(7)
        values = array("d", (rng.gauss(0.0, 1e30) for _ in range(n)))
        assert rtbpmodel._median_abs(values) == statistics.median(abs(v) for v in values)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_omega1(REFERENCE_POINT, 1.0, 0.9, 0.1, 10)
        with pytest.raises(ValueError):
            scan_omega1(REFERENCE_POINT, 1.0, 0.1, 0.9, 1)
        with pytest.raises(ValueError):
            scan_omega1(REFERENCE_POINT, 1.0, -0.5, 0.9, 10)
        for steps in (2.5, 3.0, True):
            with pytest.raises(ValueError, match=f"^grid steps must be an int, got {steps!r}$"):
                scan_omega1(REFERENCE_POINT, 1.0, 0.1, 0.9, steps)

    def test_infinite_grid_bound_rejected_by_name(self):
        with pytest.raises(ValueError, match="grid bound hi must be finite, got inf"):
            scan_omega1(REFERENCE_POINT, 1.0, 0.1, math.inf, 10)
        # a non-finite bound is named before the bounds are ordered
        for lo, hi, named in [(math.inf, 0.9, "lo must be finite, got inf"),
                              (0.1, -math.inf, "hi must be finite, got -inf"),
                              (math.nan, 0.9, "lo must be finite, got nan"),
                              (0.1, math.nan, "hi must be finite, got nan")]:
            with pytest.raises(ValueError, match=f"^grid bound {named}$"):
                scan_omega1(REFERENCE_POINT, 1.0, lo, hi, 10)

    @pytest.mark.parametrize("name, bad", [
        pytest.param("lo", True, id="bool-lo"),
        pytest.param("lo", Decimal("0.1"), id="decimal-lo"),
        pytest.param("hi", 10**400, id="int-hi-past-double"),
        pytest.param("hi", Decimal("0.9"), id="decimal-hi"),
        pytest.param("hi", "x", id="str-hi"),
        *(pytest.param(name, bad.values[0], id=f"{bad.id}-{name}")
          for name in ("lo", "hi") for bad in REFUSED_NUMBERS),
    ])
    def test_grid_bounds_must_be_finite_reals(self, name, bad):
        # refused before the grid arithmetic, which would take True as 1.0
        lo, hi = (bad, 0.9) if name == "lo" else (0.1, bad)
        message = f"^grid bound {name} must be finite, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            scan_omega1(REFERENCE_POINT, 1.0, lo, hi, 3)

    # grids for the flag-equality test: (omega3, lo, hi, steps)
    FLAG_GRIDS = [
        pytest.param(1.0, 0.25, 2.25, 8193, id="poles-and-1:1-on-grid-points"),
        pytest.param(1.0, 1.0 / 3.0, 3.0, 9, id="1:3-1:1-3:1-on-grid-points"),
        pytest.param(1.0, 0.4995, 0.5005, 500, id="inside-a-pole-band"),
        pytest.param(1.0, 0.001, 0.6, 700, id="lo-below-the-guard"),
        pytest.param(1.0, 0.5, 0.5000000000000001, 4, id="step-below-an-ulp-at-a-pole"),
        pytest.param(1.0, 1.0, 1.0000000000000004, 9, id="step-below-an-ulp-at-1:1"),
        pytest.param(1.0, 0.3, 0.3 + 1e-9, 2, id="two-rows-narrow"),
        pytest.param(1.0, 0.495, 2.0, 2, id="two-rows-both-in-bands"),
        pytest.param(1.0, 0.05, 4.0, 2, id="two-rows-wide"),
        pytest.param(1e-3, 1e-4, 4e-3, 3001, id="omega3-1e-3"),
        pytest.param(50.0, 1.0, 200.0, 3001, id="omega3-50"),
        pytest.param(1e-300, 1e-302, 4e-300, 50, id="omega3-1e-300"),
    ]

    @staticmethod
    def assert_flags_match_status(omega3, lo, hi, steps, d2_tolerance):
        # every row carries the flag _status gives it at the scan's cut, whether
        # or not the scan asked _status; returns the rows
        try:
            rows = list(scan_omega1(REFERENCE_POINT, omega3, lo, hi, steps,
                                    d2_tolerance=d2_tolerance))
        except DeterminantOverflowError:
            # a tiny omega3 leaves the closed forms in pass 1, as a point does
            with pytest.raises(DeterminantOverflowError):
                d2_eval(REFERENCE_POINT, lo, omega3)
            return []
        cut = rtbpmodel._degeneracy_cut(
            d2_tolerance, lambda: statistics.median(abs(r.d2) for r in rows))
        assert len(rows) == steps
        for row in rows:
            assert row.flag == rtbpmodel._status(row.d2, row.omega1, omega3, cut)[1], row
        return rows

    @pytest.mark.parametrize("d2_tolerance", [None, 1e24])
    @pytest.mark.parametrize("omega3, lo, hi, steps", FLAG_GRIDS)
    def test_flags_match_status(self, omega3, lo, hi, steps, d2_tolerance):
        self.assert_flags_match_status(omega3, lo, hi, steps, d2_tolerance)

    @pytest.mark.parametrize("seed", range(4))
    def test_flags_match_status_on_seeded_grids(self, seed):
        # narrow and wide grids around each void relation and anywhere else
        rng = random.Random(seed)
        for _ in range(15):
            omega3 = rng.choice((1.0, 1e-3, 50.0, rng.uniform(0.1, 10.0)))
            centre = rng.choice((0.0, omega3 / 2, 2 * omega3, omega3, omega3 / 3,
                                 3 * omega3, rng.uniform(0.0, 4 * omega3)))
            width = omega3 * rng.choice((1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 3.0))
            lo = max(centre - width * rng.random(), omega3 * 1e-6)
            hi = lo + width * rng.uniform(0.01, 1.0)
            if lo < hi:
                self.assert_flags_match_status(omega3, lo, hi, rng.choice((2, 3, 17, 400)),
                                               rng.choice((None, 1e22, 1e26)))

    @pytest.mark.parametrize("lo, hi, steps", [(0.05, 4.0, 2001), (0.4995, 0.5005, 64),
                                               (0.3333, 0.3334, 100)])
    def test_a_size_tie_at_the_cut_is_degenerate(self, lo, hi, steps):
        # a tolerance equal to some row's |D2| flags that row degenerate,
        # whether the row lies in a void relation's window or not
        rows = list(scan_omega1(REFERENCE_POINT, 1.0, lo, hi, steps))
        for k in (0, steps // 2, steps - 1):
            tied = self.assert_flags_match_status(1.0, lo, hi, steps, abs(rows[k].d2))
            if rows[k].flag in ("ok", "degenerate"):
                assert tied[k].flag == "degenerate"

    def test_a_block_s_smallest_size_as_the_cut_is_degenerate(self):
        # every block of this grid is clear of the windows; a tolerance equal
        # to a block's smallest |D2| is not above it, so that row is
        # degenerate and the block is not all "ok"
        lo, hi, steps = 0.6, 0.9, 3 * rtbpmodel.FLAG_BLOCK
        assert rtbpmodel._void_windows(1.0, lo, hi, steps) == []
        at = 0
        for _, d2s, _ in scan_blocks(REFERENCE_POINT, 1.0, lo, hi, steps):
            least = min(map(abs, d2s))
            tied = self.assert_flags_match_status(1.0, lo, hi, steps, least)
            assert tied[at + list(map(abs, d2s)).index(least)].flag == "degenerate"
            at += len(d2s)
        assert at == steps

    @pytest.mark.parametrize("lo, hi, steps, most", [
        (0.05, 4.0, 100_000, 1000),  # about 760 rows near a void relation
        (0.4995, 0.5005, 5000, 5000),  # every row inside the pole band at 0.5
    ])
    def test_status_runs_only_near_a_void_relation(self, monkeypatch, lo, hi, steps, most):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return status(*args)

        status = rtbpmodel._status
        monkeypatch.setattr(rtbpmodel, "_status", counted)
        rows = scan_omega1(REFERENCE_POINT, 1.0, lo, hi, steps)
        flagged = [r.omega1 for r in rows if r.flag in ("pole", "resonant")]
        assert len(calls) <= most
        assert set(flagged) <= set(calls)
        if most == steps:
            assert len(calls) == steps
