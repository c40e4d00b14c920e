import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy import special

from pdm_oscillator import DomainError, hermite_function, integrate, laguerre


def hermite_norm(n: int) -> float:
    """sqrt(2^n n! sqrt(pi)), the norm of H_n under exp(-x^2)."""
    return math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))


def hermite_sum_oracle(n: int, x: float) -> float:
    """Explicit summation formula, independent of the recurrence.

    Evaluated in exact rational arithmetic (the float argument converts
    exactly), so the oracle is correctly rounded and the comparison probes
    the recurrence alone.
    """
    xf = Fraction(x)
    total = Fraction(0)
    for m in range(n // 2 + 1):
        coeff = Fraction(
            (-1) ** m * math.factorial(n) * 2 ** (n - 2 * m),
            math.factorial(m) * math.factorial(n - 2 * m),
        )
        total += coeff * xf ** (n - 2 * m)
    return float(total)


def laguerre_sum_oracle(k: int, alpha: Fraction, x: float) -> float:
    """Summation formula with binomial products, exact for rational alpha."""
    xf = Fraction(x)
    alpha = Fraction(alpha)
    total = Fraction(0)
    for m in range(k + 1):
        binom = Fraction(1)
        for j in range(1, k - m + 1):
            binom *= (alpha + m + j) / j
        total += (-1) ** m * binom * xf**m / math.factorial(m)
    return float(total)


class TestHermite:
    """hermite_function against H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi))."""

    def test_order_zero(self):
        assert hermite_function(0, 7.3) == pytest.approx(
            math.exp(-0.5 * 7.3**2) / math.pi**0.25, rel=1e-14
        )

    def test_order_one(self):
        # H_1(x) = 2x
        assert hermite_function(1, 0.5) == pytest.approx(
            1.0 * math.exp(-0.125) / hermite_norm(1), rel=1e-15
        )

    def test_explicit_cubic(self):
        # H_3(x) = 8 x^3 - 12 x
        assert hermite_function(3, 1.0) == pytest.approx(
            -4.0 * math.exp(-0.5) / hermite_norm(3), rel=1e-15
        )

    def test_against_summation_oracle(self):
        for n in range(31):
            for x in (0.217, 0.9, 1.7, 3.1, 5.3):
                expected = hermite_sum_oracle(n, x) * math.exp(-0.5 * x * x) / hermite_norm(n)
                assert hermite_function(n, x) == pytest.approx(expected, rel=1e-10)

    def test_against_scipy(self):
        x = np.linspace(-4, 4, 17)
        for n in (2, 7, 15, 24):
            expected = special.eval_hermite(n, x) * np.exp(-0.5 * x * x) / hermite_norm(n)
            assert np.allclose(hermite_function(n, x), expected, rtol=1e-10)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            hermite_function(-1, 0.0)

    def test_array_input(self):
        # H_2(x) = 4x^2 - 2
        x = np.array([0.0, 1.0])
        expected = np.array([-2.0, 2.0 * math.exp(-0.5)]) / hermite_norm(2)
        assert hermite_function(2, x) == pytest.approx(expected)


class TestHermiteFunction:
    def test_matches_plain_form_at_low_order(self):
        x = np.linspace(-3, 3, 11)
        for n in range(21):
            expected = special.eval_hermite(n, x) * np.exp(-0.5 * x * x) / hermite_norm(n)
            assert np.allclose(hermite_function(n, x), expected, rtol=1e-12, atol=1e-300)

    def test_stays_finite_at_large_order(self):
        x = np.linspace(-30, 30, 101)
        values = hermite_function(400, x)
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values)) < 1.0

    def test_beyond_the_gaussian_underflow(self):
        # exp(-x^2/2) underflows past |x| = 38.6, where h_1000 is still O(0.1)
        for x in (-44.1, 38.9, 44.6, 46.0):
            with mpmath.workdps(40):
                expected = float(
                    mpmath.hermite(1000, x) * mpmath.exp(-mpmath.mpf(x) ** 2 / 2)
                    / mpmath.sqrt(2 ** mpmath.mpf(1000) * mpmath.factorial(1000) * mpmath.sqrt(mpmath.pi))
                )
            assert hermite_function(1000, x) == pytest.approx(expected, rel=1e-11, abs=1e-15)

    def test_unit_norm(self):
        # numpy's Gauss-Hermite rule, independent of `integrate`
        for n in (0, 5, 60):
            x, w = hermgauss(n + 1)
            assert w @ (np.exp(x * x) * hermite_function(n, x) ** 2) == pytest.approx(
                1.0, rel=1e-12
            )


class TestLaguerre:
    def test_order_zero(self):
        assert laguerre(0, 1.3, 9.0) == 1.0

    def test_order_one(self):
        # L_1^(a)(x) = 1 + a - x
        assert laguerre(1, 0.5, 2.0) == pytest.approx(-0.5, rel=1e-15)

    def test_explicit_quadratic(self):
        # L_2(x) = x^2/2 - 2x + 1
        assert laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, rel=1e-15)

    def test_against_summation_oracle(self):
        for k in range(31):
            for alpha in (Fraction(0), Fraction(1, 2), Fraction(3, 2)):
                for x in (0.37, 1.9, 6.4, 14.2):
                    assert laguerre(k, float(alpha), x) == pytest.approx(
                        laguerre_sum_oracle(k, alpha, x), rel=1e-10, abs=1e-13
                    )

    def test_against_scipy(self):
        x = np.linspace(0, 20, 23)
        for k in (3, 9, 17):
            for alpha in (0.0, 0.5, 1.5):
                assert np.allclose(
                    laguerre(k, alpha, x),
                    special.eval_genlaguerre(k, alpha, x),
                    rtol=1e-9,
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laguerre(-2, 0.5, 1.0)
        with pytest.raises(DomainError):
            laguerre(2, -1.0, 1.0)
        with pytest.raises(DomainError):
            laguerre(2, 0.5, -1.0)


class TestIntegrate:
    def test_gaussian(self):
        assert integrate(lambda x: np.exp(-x * x), 0) == pytest.approx(
            math.sqrt(math.pi), rel=1e-14
        )

    def test_second_moment(self):
        assert integrate(lambda x: x * x * np.exp(-x * x), 2) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-14
        )

    def test_gaussian_moments_exact(self):
        # integral of x^(2j) exp(-x^2) is Gamma(j + 1/2); odd moments vanish
        for j in range(40):
            value = integrate(lambda x, j=j: x ** (2 * j) * np.exp(-x * x), 2 * j)
            assert value == pytest.approx(math.gamma(j + 0.5), rel=1e-12)
            odd = integrate(lambda x, j=j: x ** (2 * j + 1) * np.exp(-x * x), 2 * j + 1)
            assert abs(odd) < 1e-12 * math.gamma(j + 1.0)

    def test_half_line(self):
        assert integrate(lambda x: np.exp(-x), 0, alpha=0.0) == pytest.approx(1.0, rel=1e-14)

    def test_laguerre_moments_exact(self):
        # integral of x^(alpha+j) exp(-x) over (0, inf) is Gamma(alpha+j+1)
        for alpha in (-0.5, 0.0, 0.5, 1.5, 3.0):
            for j in range(25):
                value = integrate(
                    lambda x, j=j, a=alpha: x ** (a + j) * np.exp(-x), j, alpha=alpha
                )
                assert value == pytest.approx(math.gamma(alpha + j + 1.0), rel=1e-12)

    def test_bad_rule_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: np.exp(-x * x), -1)
        with pytest.raises(DomainError):
            integrate(lambda x: np.exp(-x * x), 1.5)
        with pytest.raises(DomainError):
            integrate(lambda x: np.exp(-x), 2, alpha=-1.0)


class TestOrthogonality:
    def test_hermite_weighted(self):
        for m in range(9):
            for n in range(m + 1, 9):
                value = integrate(
                    lambda x, m=m, n=n: hermite_function(m, x) * hermite_function(n, x),
                    m + n,
                )
                assert abs(value) < 1e-14

    def test_laguerre_weighted(self):
        for alpha in (0.0, 0.5, 1.5):
            for j in range(9):
                for k in range(j + 1, 9):
                    norm = math.sqrt(
                        math.gamma(j + alpha + 1)
                        / math.factorial(j)
                        * math.gamma(k + alpha + 1)
                        / math.factorial(k)
                    )
                    value = integrate(
                        lambda x, j=j, k=k, a=alpha: x**a
                        * np.exp(-x)
                        * laguerre(j, a, x)
                        * laguerre(k, a, x),
                        j + k,
                        alpha=alpha,
                    )
                    assert abs(value) < 1e-12 * norm
