"""Tests of the benchmark's closed-form reference.

Run with `python3 -m pytest perfbench/test_reference.py`. Orthonormality is
checked with Gauss rules that are exact for polynomial-times-Gaussian
integrands, so no adaptive quadrature is involved.
"""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import eval_hermite, roots_genlaguerre

import reference as ref

LAMS = (0.0, 0.003, 0.05, 0.4)


def test_energies_lambda_zero_limit():
    n = np.arange(50)
    for dim in (1, 2, 3, 5):
        np.testing.assert_allclose(
            ref.energies(n, 0.0, 1.7, 0.6, dim), 0.6 * 1.7 * (n + dim / 2.0), rtol=1e-15
        )
        assert ref.beta(7, 0.0, 1.7, 0.6, dim) == pytest.approx(math.sqrt(1.7 / 0.6), rel=1e-15)


@pytest.mark.parametrize("lam", LAMS[1:])
def test_energies_match_high_precision_textbook_root(lam):
    # E^2 + 2 lam hbar^2 nu^2 E - hbar^2 nu^2 omega^2 = 0, solved in 50 digits
    omega, hbar, dim = 1.3, 0.8, 3
    n = np.array([0, 1, 2, 7, 40, 300, 2000, 99999])
    e = ref.energies(n, lam, omega, hbar, dim)
    mpmath.mp.dps = 50
    for level, value in zip(n, e):
        nu = mpmath.mpf(int(level)) + mpmath.mpf(dim) / 2
        a = mpmath.mpf(lam) * mpmath.mpf(hbar) ** 2 * nu**2
        exact = -a + mpmath.sqrt(a * a + (mpmath.mpf(hbar) * nu * mpmath.mpf(omega)) ** 2)
        assert abs(value - float(exact)) <= 4e-16 * float(exact)
    assert np.all(np.diff(e) > 0)
    assert np.all(e < ref.threshold(lam, omega))


def test_extreme_scale_stays_finite():
    e = ref.energies(np.arange(11), 1e20, 1e160, 1.0, 3)
    assert np.all(np.isfinite(e))
    np.testing.assert_allclose(e, 1e160 * (np.arange(11) + 1.5), rtol=1e-12)
    assert ref.threshold(1e20, 1e160) == pytest.approx(5e299, rel=1e-15)


def test_threshold_and_degeneracy():
    assert ref.threshold(0.0, 1.0) == math.inf
    assert ref.threshold(0.02, 1.0) == pytest.approx(25.0)
    for n in range(12):
        assert ref.degeneracy(n, 1) == 1
        assert ref.degeneracy(n, 2) == n + 1
        assert ref.degeneracy(n, 3) == (n + 1) * (n + 2) // 2


def test_cartesian_state_lambda_zero_is_textbook_oscillator():
    omega, hbar = 1.4, 0.7
    x = np.linspace(-4.0, 4.0, 41)
    s = math.sqrt(omega / hbar)
    for n in range(8):
        textbook = (
            (s / math.sqrt(math.pi)) ** 0.5
            / math.sqrt(2.0**n * math.factorial(n))
            * eval_hermite(n, s * x)
            * np.exp(-0.5 * (s * x) ** 2)
        )
        np.testing.assert_allclose(ref.cartesian_state((n,), 0.0, omega, hbar, x), textbook, atol=1e-13)


def test_radial_state_lambda_zero_matches_cartesian_ground_state():
    # the N-dimensional ground state is the product of 1D ground states
    r = np.linspace(0.0, 5.0, 21)
    for dim in (1, 2, 3, 4):
        product = ref.cartesian_state((0,) * dim, 0.0, 1.0, 1.0, np.outer(r, np.eye(dim)[0]))
        # radial factor carries the full angular measure; divide it out
        area = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
        np.testing.assert_allclose(
            ref.radial_state(0, 0, 0.0, 1.0, 1.0, dim, r) / math.sqrt(area), product, atol=1e-13
        )


def _gauss_hermite_overlap(a, b, lam, omega, hbar, nodes=120):
    width_sq = 0.5 * (ref.beta(a, lam, omega, hbar, 1) ** 2 + ref.beta(b, lam, omega, hbar, 1) ** 2)
    x, w = hermgauss(nodes)
    q = x / math.sqrt(width_sq)
    fa = ref.cartesian_state((a,), lam, omega, hbar, q)
    fb = ref.cartesian_state((b,), lam, omega, hbar, q)
    return float(np.sum(w * np.exp(x * x) * fa * fb * (1.0 + lam * q * q))) / math.sqrt(width_sq)


@pytest.mark.parametrize("lam", LAMS)
def test_cartesian_orthonormality_gauss_hermite(lam):
    levels = range(0, 30, 3)
    gram = np.array([[_gauss_hermite_overlap(a, b, lam, 1.1, 0.9) for b in levels] for a in levels])
    np.testing.assert_allclose(gram, np.eye(len(levels)), atol=1e-12)


def _gauss_laguerre_overlap(ka, kb, l, dim, lam, omega, hbar, nodes=80):
    alpha = l + (dim - 2) / 2.0
    scale = 0.5 * (
        ref.beta(2 * ka + l, lam, omega, hbar, dim) ** 2 + ref.beta(2 * kb + l, lam, omega, hbar, dim) ** 2
    )
    x, w = roots_genlaguerre(nodes, alpha)
    r = np.sqrt(x / scale)
    fa = ref.radial_state(ka, l, lam, omega, hbar, dim, r)
    fb = ref.radial_state(kb, l, lam, omega, hbar, dim, r)
    # x = scale r^2 turns (1 + lam r^2) r^(N-1) dr into x^alpha e^-x dx / (2 scale^(alpha+1))
    integrand = fa * fb * (1.0 + lam * r * r) * np.exp(x) / r ** (2 * l)
    return float(np.sum(w * integrand)) / (2.0 * scale ** (alpha + 1.0))


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("dim", (1, 2, 3, 4))
def test_radial_orthonormality_gauss_laguerre(lam, dim):
    for l in (0, 1, 3):
        ks = range(5)
        gram = np.array(
            [[_gauss_laguerre_overlap(a, b, l, dim, lam, 0.8, 1.2) for b in ks] for a in ks]
        )
        np.testing.assert_allclose(gram, np.eye(len(ks)), atol=1e-12)


def test_geometry_formulas():
    r = np.linspace(0.1, 8.0, 30)
    lam, omega = 0.05, 1.3
    np.testing.assert_allclose(ref.potential(r, lam, omega), ref.effective_potential(r, 0.0, lam, omega))
    assert ref.scalar_curvature(np.array([0.0]), lam, 3)[0] == pytest.approx(-2.0 * lam * 3 * 2)
    np.testing.assert_array_equal(ref.scalar_curvature(r, lam, 1), 0.0)
    assert ref.hamiltonian(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.0, 1.0)[0] == 1.0
