import random
import re

import pytest

from birkhoff import (
    CubicQuarticCoefficients,
    Frequencies,
    ModelParams,
    PoleError,
    coefficients,
    d2_closed,
    d2_from_k,
    k0022,
    k1111,
    k2200,
)
from birkhoff.closedform import DeterminantOverflowError, d2_expanded
from conftest import CANCELLATION_POINT, REFUSED_NUMBERS, scaled_coefficients


def coeffs(**kw):
    return CubicQuarticCoefficients(**kw)


def random_coeffs(rng):
    return CubicQuarticCoefficients(*[rng.uniform(-2, 2) for _ in range(7)])


def term_scale(c, freqs):
    """|K2200 w3^2| + |K1111 w1 w3| + |K0022 w1^2|, the size of the terms of D2."""
    w1, w3 = freqs.omega1, freqs.omega3
    return (abs(k2200(c, freqs) * w3 ** 2) + abs(k1111(c, freqs) * w1 * w3)
            + abs(k0022(c, freqs) * w1 ** 2))


class TestK2200:
    def test_pure_quartic_is_constant(self):
        # the frequency-dependent factors cancel for a1 = a2 = 0
        for w in ((1.0, 3.0), (0.7, 0.9), (2.4, 1.1)):
            assert k2200(coeffs(b1=1.0), Frequencies(*w)) == pytest.approx(-1.5)

    def test_mixed_cubic_value(self):
        got = k2200(coeffs(a2=1.0), Frequencies(1.0, 3.0))
        assert got == pytest.approx(1.0 / 15.0)

    def test_pole_on_doubled_planar_frequency(self):
        with pytest.raises(PoleError) as err:
            k2200(coeffs(b1=1.0), Frequencies(1.0, 2.0))
        assert err.value.relation == "omega3 = 2*omega1"


    def test_underflowing_denominator_is_not_a_pole(self):
        # both terms of 16*w1^3*w3 - 4*w1*w3^3 are 0, and omega3 != 2*omega1
        with pytest.raises(DeterminantOverflowError, match="K2200 underflows"):
            k2200(coeffs(a1=1.0), Frequencies(1e-100, 1e-100))


class TestK1111:
    def test_pure_quartic_value(self):
        assert k1111(coeffs(b3=1.0), Frequencies(1.3, 0.6)) == pytest.approx(-1.0)

    def test_mixed_cubic_value(self):
        got = k1111(coeffs(a2=1.0), Frequencies(1.0, 3.0))
        assert got == pytest.approx((1.0 / (2.0 - 3.0) + 1.0 / (2.0 + 3.0)) / 8.0)
        assert got == pytest.approx(-0.1)

    def test_pole_on_doubled_vertical_frequency(self):
        with pytest.raises(PoleError) as err:
            k1111(coeffs(a3=1.0), Frequencies(2.0, 1.0))
        assert err.value.relation == "omega1 = 2*omega3"


class TestK0022:
    def test_pure_quartic_value(self):
        for w in ((1.0, 3.0), (0.7, 0.9)):
            assert k0022(coeffs(b5=1.0), Frequencies(*w)) == pytest.approx(-1.5)

    def test_vertical_cubic_value(self):
        assert k0022(coeffs(a4=1.0), Frequencies(0.9, 1.0)) == pytest.approx(1.25)

    def test_coupled_cubic_value(self):
        got = k0022(coeffs(a3=1.0), Frequencies(1.0, 1.0))
        assert got == pytest.approx((4.0 + 2.0 / (1.0 - 4.0)) / 8.0)
        assert got == pytest.approx(5.0 / 12.0)

    def test_pole(self):
        with pytest.raises(PoleError):
            k0022(coeffs(a3=1.0), Frequencies(2.0, 1.0))

    def test_underflowing_denominator_is_not_a_pole(self):
        # w1^2 and 4*w3^2 are both 0, and omega1 != 2*omega3
        with pytest.raises(DeterminantOverflowError, match="K0022 underflows"):
            k0022(coeffs(b5=1.0), Frequencies(1e-200, 1e-200))


class TestDeterminant:
    def test_zero_for_zero_coefficients(self):
        assert d2_closed(coeffs(), Frequencies(0.8, 1.7)) == 0.0

    def test_pure_quartic_composition(self):
        got = d2_closed(coeffs(b1=1.0, b3=1.0, b5=1.0), Frequencies(1.0, 3.0))
        assert got == pytest.approx(-(-1.5 * 9.0 + -1.0 * 3.0 + -1.5 * 1.0))
        assert got == pytest.approx(18.0)

    def test_composition_identity(self):
        rng = random.Random(41)
        for _ in range(50):
            c = random_coeffs(rng)
            w1 = rng.uniform(0.2, 4.0)
            w3 = rng.uniform(0.2, 4.0)
            if min(abs(2 * w1 - w3), abs(w1 - 2 * w3)) < 0.05:
                continue
            freqs = Frequencies(w1, w3)
            composed = d2_from_k(k2200(c, freqs), k1111(c, freqs), k0022(c, freqs),
                                 *freqs)
            assert d2_closed(c, freqs) == composed

    def test_expanded_form_agrees(self):
        # The two spellings agree to rounding in the terms of D2.  Next to a
        # root of D2 those terms cancel, so |D2| is no scale for the gap.
        cases = []
        rng = random.Random(42)
        for _ in range(100):
            c = random_coeffs(rng)
            w1 = rng.uniform(0.2, 4.0)
            w3 = rng.uniform(0.2, 4.0)
            if min(abs(2 * w1 - w3), abs(w1 - 2 * w3)) < 0.05:
                continue
            cases.append((c, Frequencies(w1, w3)))
        # model coefficients over the supported domain (A <= 0.01)
        rng = random.Random(45)
        for _ in range(100):
            params = ModelParams(mu=10.0 ** rng.uniform(-4.0, -1.0),
                                 q=rng.uniform(0.01, 1.0),
                                 Q=10.0 ** rng.uniform(-4.0, 0.0),
                                 A=rng.uniform(0.0, 0.01))
            c = coefficients(params).cubic_quartic()
            for _ in range(10):
                w1 = rng.uniform(0.05, 4.0)
                if min(abs(2 * w1 - 1.0), abs(w1 - 2.0)) < 0.01:
                    continue
                cases.append((c, Frequencies(w1, 1.0)))
        mu, q, Q, A, w1 = CANCELLATION_POINT
        near_root = (coefficients(ModelParams(mu, q, Q, A)).cubic_quartic(),
                     Frequencies(w1, 1.0))
        cases.append(near_root)
        for c, freqs in cases:
            gap = abs(d2_closed(c, freqs) - d2_expanded(c, freqs))
            assert gap <= 5e-14 * term_scale(c, freqs)
        # while next to the root the gap is large against |D2| itself
        value = d2_closed(*near_root)
        assert abs(value - d2_expanded(*near_root)) > 1e-9 * max(abs(value), 1.0)

    def test_finite_away_from_poles(self):
        # with omega3 = 1 the only poles are omega1 in {1/2, 2} and omega1 -> 0
        rng = random.Random(43)
        c = random_coeffs(rng)
        for k in range(1, 300):
            w1 = 0.02 + (3.0 - 0.02) * k / 300.0
            if min(abs(w1 - 0.5), abs(w1 - 2.0)) < 1e-9:
                continue
            value = d2_closed(c, Frequencies(w1, 1.0))
            assert value == value and abs(value) != float("inf")

    def test_block_dependence(self):
        freqs = Frequencies(1.21, 0.44)
        a = k2200(coeffs(a1=0.3, a2=-0.8, b1=0.5), freqs)
        b = k2200(coeffs(a1=0.3, a2=-0.8, b1=0.5, a3=2.0, a4=-1.0, b3=0.7, b5=0.1),
                  freqs)
        assert a == b
        a = k0022(coeffs(a3=0.3, a4=-0.8, b5=0.5), freqs)
        b = k0022(coeffs(a3=0.3, a4=-0.8, b5=0.5, a1=2.0, a2=-1.0, b1=0.7, b3=0.4),
                  freqs)
        assert a == b

    def test_quadratic_scaling(self):
        rng = random.Random(44)
        freqs = Frequencies(0.77, 1.83)
        for _ in range(20):
            c = random_coeffs(rng)
            base = d2_closed(c, freqs)
            for lam in (0.5, 2.0):
                assert d2_closed(scaled_coefficients(c, lam), freqs) == pytest.approx(
                    lam ** 2 * base, rel=1e-12)

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            CubicQuarticCoefficients(a1=float("nan"))

    def test_overflowing_determinant_raises_domain_error(self):
        # omega1 = 1e-320 is subnormal: the composed value comes out nan
        with pytest.raises(DeterminantOverflowError):
            d2_closed(coeffs(a1=1.0), Frequencies(1e-320, 1.0))
        assert issubclass(DeterminantOverflowError, ValueError)

    @pytest.mark.parametrize("ks, freqs", [
        ((1.0, 0.0, 0.0), (1.0, 1e200)),  # omega3**2 overflows: it raised errno text
        ((1e300, 0.0, 0.0), (1.0, 1e10)),  # the product is inf
    ])
    def test_overflowing_composition_raises_domain_error(self, ks, freqs):
        # d2_from_k is the engine's route too, so normalize cannot report an inf D2
        with pytest.raises(DeterminantOverflowError, match="determinant overflows"):
            d2_from_k(*ks, *Frequencies(*freqs))

    @pytest.mark.parametrize("bad", [*REFUSED_NUMBERS, 0.0, -1.0], ids=repr)
    @pytest.mark.parametrize("name", ["omega1", "omega3"])
    def test_frequencies_must_be_positive_finite_reals(self, name, bad):
        # checked before the formula, which would return a value for -1.0,
        # report nan as an overflow and raise a bare TypeError for "x"
        freqs = {"omega1": 1.0, "omega3": 1.0, name: bad}
        message = f"^{name} must be a positive finite real, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            d2_from_k(1.0, 1.0, 1.0, **freqs)
