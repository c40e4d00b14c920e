import math
import timeit
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pdm_oscillator import (
    CartesianEigenfunction,
    DomainError,
    ModelParams,
    RadialEigenfunction,
    continuum_threshold,
    effective_frequency,
    energy_closed_form,
    hermite_function,
    integrate,
    normalize,
    specfun,
    verify,
    wavefunctions,
    weighted_inner_product,
)
from pdm_oscillator.oracle import second_derivative

P1 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=1)
P3 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)


def count_sign_changes(values, floor=1e-9):
    core = values[np.abs(values) > floor * np.max(np.abs(values))]
    return int(np.sum(np.diff(np.sign(core)) != 0))


class TestCartesianEigenfunction:
    def test_ground_state_gaussian_ratio(self):
        f = CartesianEigenfunction.from_occupations((0, 0, 0), P3)
        beta = f.beta
        q = np.array([0.4, -0.3, 0.7])
        ratio = f(q) / f(np.zeros(3))
        assert ratio == pytest.approx(math.exp(-0.5 * beta**2 * float(q @ q)), rel=1e-12)

    def test_single_excitation_is_odd(self):
        f = CartesianEigenfunction.from_occupations((1, 0, 0), P3)
        assert f(np.zeros(3)) == 0.0
        left = f(np.array([-0.5, 0.2, 0.1]))
        right = f(np.array([0.5, 0.2, 0.1]))
        assert left == pytest.approx(-right, rel=1e-12)

    def test_second_state_zeros(self):
        # H_2 roots at x = +-1/sqrt(2) scaled by the self-consistent width
        f = CartesianEigenfunction.from_occupations((2,), P1)
        beta = f.beta
        expected = 1.0 / (beta * math.sqrt(2.0))
        root = brentq(lambda q: f(q), 0.1 / beta, 1.2 / beta, xtol=1e-14)
        assert root == pytest.approx(expected, rel=1e-10)

    def test_node_counts_match_occupations(self):
        for n in range(6):
            f = CartesianEigenfunction.from_occupations((n,), P1)
            beta = f.beta
            q = np.linspace(-8.0 / beta, 8.0 / beta, 4001)
            assert count_sign_changes(f(q)) == n

    def test_vectorized_evaluation(self):
        f = CartesianEigenfunction.from_occupations((1, 2, 0), P3)
        pts = np.random.default_rng(1).normal(size=(7, 5, 3))
        values = f(pts)
        assert values.shape == (7, 5)
        assert values[2, 3] == pytest.approx(f(pts[2, 3]), rel=1e-14)

    def test_large_order_is_finite(self):
        f = CartesianEigenfunction.from_occupations((80,), P1)
        beta = f.beta
        q = np.linspace(-20.0 / beta, 20.0 / beta, 101)
        assert np.all(np.isfinite(f(q)))

    def test_continuum_state_rejected(self):
        with pytest.raises(DomainError):
            CartesianEigenfunction(n_tuple=(0,), params=P1, energy=30.0, beta=1.0)

    def test_nonpositive_width_rejected(self):
        for beta in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="beta must be > 0"):
                CartesianEigenfunction(n_tuple=(0,), params=P1, energy=0.5, beta=beta)

    def test_level_rounded_to_the_threshold_is_bound(self):
        # at lam = 1e8 every closed-form level rounds to the threshold 5e-9,
        # though for lam > 0 every level lies below it
        p = ModelParams(lam=1e8, omega=1.0, hbar=1.0, dim=3)
        f = CartesianEigenfunction.from_occupations((2, 1, 0), p)
        assert f.energy == continuum_threshold(p)
        f = normalize(f)
        assert math.isfinite(f.norm_constant) and f.norm_constant > 0


class TestConstructors:
    def test_cartesian_invariants(self):
        f = CartesianEigenfunction.from_occupations((2, 0, 1), P3)
        assert f.n_tuple == (2, 0, 1)
        assert f.energy == energy_closed_form(3, P3)
        omega_eff = effective_frequency(f.energy, P3)
        assert f.beta**2 == pytest.approx(omega_eff / P3.hbar, rel=1e-14)

    def test_radial_principal_number(self):
        f = RadialEigenfunction.from_quantum_numbers(2, 1, P3)
        assert (f.k, f.l) == (2, 1)
        assert f.energy == energy_closed_form(5, P3)
        assert 0.0 < f.energy < continuum_threshold(P3)

    def test_wrong_tuple_length(self):
        with pytest.raises(DomainError):
            CartesianEigenfunction.from_occupations((1, 2), P3)

    def test_negative_occupation(self):
        with pytest.raises(DomainError):
            CartesianEigenfunction.from_occupations((1, -1, 0), P3)

    @pytest.mark.parametrize("k,l", [(-1, 0), (0, -1), (0.5, 0), (0, 1.5)])
    def test_bad_radial_numbers(self, k, l):
        with pytest.raises(DomainError, match="integers >= 0"):
            RadialEigenfunction.from_quantum_numbers(k, l, P3)


class TestRadialEigenfunction:
    def test_level_rounded_to_the_threshold_is_bound(self):
        p = ModelParams(lam=1e8, omega=1.0, hbar=1.0, dim=3)
        f = RadialEigenfunction.from_quantum_numbers(2, 1, p)
        assert f.energy == continuum_threshold(p)
        f = normalize(f)
        assert np.all(np.isfinite(f(np.linspace(0.0, 10.0 / f.beta, 51))))

    def test_energy_above_the_threshold_rejected(self):
        with pytest.raises(DomainError):
            RadialEigenfunction(k=0, l=0, params=P3, energy=30.0, beta=1.0)

    def test_nodeless_gaussian_ground_state(self):
        f = RadialEigenfunction.from_quantum_numbers(0, 0, P3)
        r = np.linspace(0.0, 10.0 / f.beta, 2001)
        values = f(r)
        assert count_sign_changes(values) == 0
        assert values[0] == pytest.approx(f.norm_constant, rel=1e-14)

    def test_first_radial_node_location(self):
        # L_1^(alpha)(x) = 1 + alpha - x vanishes at x = beta^2 r^2 = l + N/2
        f = RadialEigenfunction.from_quantum_numbers(1, 0, P3)
        expected = math.sqrt(1.5) / f.beta
        root = brentq(lambda r: f(r), 0.5 / f.beta, 2.5 / f.beta, xtol=1e-14)
        assert root == pytest.approx(expected, rel=1e-10)

    def test_origin_power_law(self):
        f = RadialEigenfunction.from_quantum_numbers(0, 2, P3)
        r = np.logspace(-4, -2, 20)
        slope = np.polyfit(np.log(r), np.log(f(r)), 1)[0]
        assert slope == pytest.approx(2.0, abs=1e-4)

    def test_node_count_matches_k(self):
        for k in range(4):
            f = RadialEigenfunction.from_quantum_numbers(k, 1, P3)
            r = np.linspace(1e-4, 12.0 / f.beta, 6001)
            assert count_sign_changes(f(r)) == k

    def test_negative_radius_rejected(self):
        f = RadialEigenfunction.from_quantum_numbers(0, 0, P3)
        with pytest.raises(DomainError):
            f(-0.5)

    def test_width_where_its_square_is_subnormal(self):
        # Omega = 1e-222 and hbar = 1e100 give beta = 1e-161; beta^2 = 1e-322 is
        # subnormal, so the root of Omega/hbar keeps about two digits (9.94e-162)
        def beta(hbar):
            p = ModelParams(lam=0.0, hbar=hbar, omega=1e-222, dim=1)
            return RadialEigenfunction.from_quantum_numbers(0, 0, p).beta

        assert beta(1e100) == pytest.approx(1e-161, rel=4 * np.finfo(float).eps, abs=0)
        # hbar -> 4^j hbar scales beta by 2^-j bit for bit, where beta^2 is
        # normal (j <= -24) and where it is subnormal (-23 <= j <= 2) alike
        assert [beta(1e100 * 4.0**j) for j in range(-40, 3)] == [
            beta(1e100) * 2.0**-j for j in range(-40, 3)
        ]

    def test_width_where_its_square_overflows(self):
        # Omega = 1e222 and hbar = 1e-100 give beta = 1e161, whose square 1e322
        # overflows a double
        def beta(hbar):
            p = ModelParams(lam=0.0, hbar=hbar, omega=1e222, dim=1)
            return RadialEigenfunction.from_quantum_numbers(0, 0, p).beta

        assert beta(1e-100) == pytest.approx(1e161, rel=4 * np.finfo(float).eps, abs=0)
        # hbar -> 4^j hbar scales beta by 2^-j bit for bit, where beta^2
        # overflows (j <= 22) and where it is normal (j >= 23) alike
        assert [beta(1e-100 * 4.0**j) for j in range(-40, 41)] == [
            beta(1e-100) * 2.0**-j for j in range(-40, 41)
        ]

    @pytest.mark.parametrize(
        "lam, hbar, omega",
        [(0.0, 1e100, 1e-222), (0.0, 1e-100, 1e222), (0.3, 1e-100, 1e222)],
        ids=["beta-1e-161", "beta-1e161", "beta-1e161-deformed"],
    )
    @pytest.mark.parametrize("dim, k, l", [(1, 0, 0), (1, 2, 1), (2, 1, 0), (3, 0, 0)])
    def test_unit_self_product_where_beta_squared_leaves_the_doubles(
        self, lam, hbar, omega, dim, k, l
    ):
        # neither the norm nor the inner product squares beta there
        p = ModelParams(lam=lam, hbar=hbar, omega=omega, dim=dim)
        f = normalize(RadialEigenfunction.from_quantum_numbers(k, l, p))
        assert weighted_inner_product(f, f, p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_nonpositive_width_rejected(self, beta):
        # normalize would take log(beta)
        with pytest.raises(DomainError):
            RadialEigenfunction(k=0, l=0, params=P3, energy=1.0, beta=beta)


class TestWeightedInnerProduct:
    def test_normalized_ground_state(self):
        f = normalize(CartesianEigenfunction.from_occupations((0,), P1))
        assert weighted_inner_product(f, f, P1) == pytest.approx(1.0, abs=1e-10)

    def test_parity_orthogonality(self):
        f = normalize(CartesianEigenfunction.from_occupations((0,), P1))
        g = normalize(CartesianEigenfunction.from_occupations((1,), P1))
        assert abs(weighted_inner_product(f, g, P1)) < 1e-10

    def test_distinct_energy_orthogonality(self):
        # n=0 and n=2 carry different Gaussian widths yet must be orthogonal
        f = normalize(CartesianEigenfunction.from_occupations((0,), P1))
        g = normalize(CartesianEigenfunction.from_occupations((2,), P1))
        assert f.beta != g.beta
        assert abs(weighted_inner_product(f, g, P1)) < 1e-8

    def test_two_dimensional_norm(self):
        p2 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=2)
        f = normalize(CartesianEigenfunction.from_occupations((0, 1), p2))
        assert weighted_inner_product(f, f, p2) == pytest.approx(1.0, abs=1e-7)

    def test_unknown_kind_rejected(self):
        f = normalize(CartesianEigenfunction.from_occupations((0,), P1))
        g = normalize(RadialEigenfunction.from_quantum_numbers(0, 0, P1))
        with pytest.raises(DomainError):
            weighted_inner_product(f, g, P1)
        with pytest.raises(DomainError):
            weighted_inner_product(f, lambda q: np.exp(-q * q), P1)

    @pytest.mark.parametrize(
        "lam,omega,hbar,dim,k,l",
        [(5.0, 0.05, 12.0, 3, 3, 3), (1.0, 0.1, 10.0, 8, 1, 2)],
    )
    def test_narrow_radial_state_unit_norm(self, lam, omega, hbar, dim, k, l):
        # beta ~ 4e-4 for the first state: the integrand is ~1e-38 at r = 1,
        # so a quadrature that truncates where it falls below an absolute
        # cutoff returns ~1e-36 instead of 1
        p = ModelParams(lam=lam, omega=omega, hbar=hbar, dim=dim)
        f = normalize(RadialEigenfunction.from_quantum_numbers(k, l, p))
        assert weighted_inner_product(f, f, p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "dim,lam,order",
        [(1, 1e-7, 369), (1, 1e-7, 739), (1, 1e-7, 740), (1, 1e-7, 1000),
         (3, 1e-6, 185), (3, 1e-6, 1000)],
    )
    def test_high_order_is_orthonormal(self, dim, lam, order):
        # numpy's hermgauss overflows from 372 nodes, exp(-x^2/2) alone
        # underflows at the outer Hermite nodes from n = 739, and scipy's
        # Gauss-Laguerre weights times exp(x) overflow from k = 185
        p = ModelParams(lam=lam, omega=1.0, hbar=1.0, dim=dim)
        if dim == 1:
            f, g = (CartesianEigenfunction.from_occupations((n,), p) for n in (order, order + 2))
        else:
            f, g = (RadialEigenfunction.from_quantum_numbers(k, 0, p) for k in (order, order + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, g = normalize(f), normalize(g)
            assert weighted_inner_product(f, f, p) == pytest.approx(1.0, abs=1e-12)
            assert abs(weighted_inner_product(f, g, p)) < 1e-12

    def test_gauss_rule_matches_high_precision_quadrature(self):
        # near the continuum edge (lam*hbar/omega ~ 2000) a width from
        # sqrt(omega^2 - 2 lam E) made distinct levels overlap by ~6e-8; with
        # Omega from the closed form they are orthogonal, and a 50-digit
        # adaptive quadrature of the same states confirms the Gauss rule's value
        p = ModelParams(lam=8.0, omega=0.015, hbar=4.0, dim=4)
        f = normalize(RadialEigenfunction.from_quantum_numbers(1, 1, p))
        g = normalize(RadialEigenfunction.from_quantum_numbers(3, 1, p))

        def state(h, r):
            x = (mpmath.mpf(h.beta) * r) ** 2
            return (
                mpmath.mpf(h.norm_constant) * r**h.l * mpmath.exp(-x / 2)
                * mpmath.laguerre(h.k, h.laguerre_parameter, x)
            )

        with mpmath.workdps(50):
            s = mpmath.sqrt((mpmath.mpf(f.beta) ** 2 + mpmath.mpf(g.beta) ** 2) / 2)
            exact = mpmath.quad(
                lambda r: state(f, r) * state(g, r) * (1 + mpmath.mpf(p.lam) * r * r)
                * r ** (p.dim - 1),
                [0, 1 / s, 3 / s, 6 / s, 10 / s, mpmath.inf],
            )
        value = weighted_inner_product(f, g, p)
        assert abs(float(exact)) < 1e-14
        assert value == pytest.approx(float(exact), abs=1e-14)

    def test_high_order_self_product_is_fast(self):
        # each run builds its Gauss rule anew, as a cold cache would
        f = CartesianEigenfunction.from_occupations((200,), P1)

        def run():
            specfun._rule.cache_clear()
            return weighted_inner_product(normalize(f), normalize(f), P1)

        assert run() == pytest.approx(1.0, abs=1e-12)
        assert min(timeit.repeat(run, number=1, repeat=3)) < 0.1

class TestNormalize:
    def test_idempotent(self):
        f = normalize(CartesianEigenfunction.from_occupations((2,), P1))
        g = normalize(f)
        assert g.norm_constant == pytest.approx(f.norm_constant, rel=1e-9)

    def test_flat_ground_state_constant(self):
        p = ModelParams(lam=0.0, omega=1.0, hbar=1.0, dim=1)
        f = normalize(CartesianEigenfunction.from_occupations((0,), p))
        beta = f.beta
        assert f(0.0) == pytest.approx((beta**2 / math.pi) ** 0.25, rel=1e-10)

    def test_radial_unit_norm(self):
        f = normalize(RadialEigenfunction.from_quantum_numbers(1, 2, P3))
        assert weighted_inner_product(f, f, P3) == pytest.approx(1.0, abs=1e-9)


class TestRadialGram:
    @pytest.mark.parametrize("l,k_count", [(0, 3), (1, 2), (2, 2)])
    def test_fixed_l_orthonormal(self, l, k_count):
        # all (k, l) with 2k + l <= 4 at fixed l
        states = [
            normalize(RadialEigenfunction.from_quantum_numbers(k, l, P3))
            for k in range(k_count)
        ]
        gram = np.array(
            [[weighted_inner_product(a, b, P3) for b in states] for a in states]
        )
        assert np.abs(gram - np.eye(k_count)).max() < 1e-6


class TestFactorEquation:
    def test_one_particle_reduction(self):
        # each Cartesian factor solves a flat oscillator problem at the
        # energy-shifted frequency: -hbar^2 psi'' + (omega^2 - 2 lam E) q^2 psi
        # = 2 mu psi with mu = hbar*Omega*(n_i + 1/2)
        f = CartesianEigenfunction.from_occupations((3,), P1)
        beta = f.beta
        omega_eff = effective_frequency(f.energy, P1)
        q = np.linspace(-11.0 / beta, 11.0 / beta, 3001)
        h = q[1] - q[0]
        psi = f(q)
        lhs = -P1.hbar**2 * second_derivative(psi, h) + (
            P1.omega**2 - 2.0 * P1.lam * f.energy
        ) * q**2 * psi
        mu = P1.hbar * omega_eff * (3 + 0.5)
        interior = slice(4, -4)
        residual = np.linalg.norm((lhs - 2.0 * mu * psi)[interior]) / np.linalg.norm(
            psi[interior]
        )
        assert residual < 1e-6


class TestGramIndependence:
    def test_orthonormality_check_catches_a_wrong_norm(self, monkeypatch):
        # the Gram check integrates the states itself, so a closed-form norm
        # that is 1% off shows up as a diagonal entry 1% away from 1
        closed_form = wavefunctions._log_norm_squared
        monkeypatch.setattr(
            wavefunctions, "_log_norm_squared", lambda f: closed_form(f) + math.log(1.01)
        )
        result = verify.check_orthonormality()
        assert not result.passed
        assert result.measured == pytest.approx(0.01 / 1.01, rel=1e-6)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


MODELS = st.builds(
    ModelParams,
    lam=log_uniform(1e-3, 10.0),
    omega=log_uniform(1e-2, 10.0),
    hbar=log_uniform(1e-2, 10.0),
    dim=st.integers(1, 8),
)
QUANTA = st.integers(0, 3)
EPS = np.finfo(float).eps


@st.composite
def same_family_pairs(draw):
    """Two unnormalized states of one family at one set of parameters."""
    p = draw(MODELS)
    if draw(st.booleans()):
        occupations = st.tuples(*[QUANTA] * p.dim)
        return p, [CartesianEigenfunction.from_occupations(draw(occupations), p) for _ in "fg"]
    l = draw(QUANTA)
    return p, [RadialEigenfunction.from_quantum_numbers(draw(QUANTA), l, p) for _ in "fg"]


class TestProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(same_family_pairs())
    def test_normalized_self_product_is_one(self, pair):
        p, (f, _) = pair
        f = normalize(f)
        assert weighted_inner_product(f, f, p) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(same_family_pairs())
    def test_distinct_levels_are_orthogonal(self, pair):
        # States carry beta = sqrt(Omega/hbar) with Omega = E/(hbar (n + N/2)),
        # exact by the self-consistent equation even at the continuum edge, so
        # what remains is the rounding of the Gauss sums: at most 9 eps over
        # these 300 examples.
        p, (f, g) = pair
        assume(f.energy != g.energy)
        f, g = normalize(f), normalize(g)
        assert abs(weighted_inner_product(f, g, p)) < 16 * EPS

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(1, 8),
        lam=st.just(0.0) | log_uniform(1e-4, 0.5),
        levels=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        data=st.data(),
    )
    def test_one_level_in_both_families(self, dim, lam, levels, data):
        # A level n <= 6 in dims 1-8: a Cartesian tuple and every radial (k, l)
        # with 2k + l = n carry one energy and one width, bit for bit; each
        # normalized state has unit norm, and is orthogonal to a distinct
        # tuple (of any level) and to the radial states of its l at every
        # other k
        p = ModelParams(lam=lam, omega=1.0, hbar=1.0, dim=dim)

        def cartesian(n):
            # the gaps between dim - 1 sorted cuts in [0, n]
            cuts = data.draw(st.lists(st.integers(0, n), min_size=dim - 1, max_size=dim - 1))
            occupations = np.diff([0, *sorted(cuts), n])
            return normalize(CartesianEigenfunction.from_occupations(occupations, p))

        n = levels[0]
        f, g = cartesian(n), cartesian(levels[1])
        radial = {
            (k, l): normalize(RadialEigenfunction.from_quantum_numbers(k, l, p))
            for l in range(7) for k in range((6 - l) // 2 + 1)
        }
        level = [h for (k, l), h in radial.items() if 2 * k + l == n]
        assert all((h.energy, h.beta) == (f.energy, f.beta) for h in level)
        for h in [f, *level]:
            assert abs(weighted_inner_product(h, h, p) - 1.0) <= 1e-12
        if g.n_tuple != f.n_tuple:
            assert abs(weighted_inner_product(f, g, p)) <= 1e-12
        for h in level:
            for (k, l), h2 in radial.items():
                if l == h.l and k != h.k:
                    assert abs(weighted_inner_product(h, h2, p)) <= 1e-12

    @pytest.mark.parametrize("family", [CartesianEigenfunction, RadialEigenfunction])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        order=st.integers(0, 300), lam=log_uniform(1e-8, 1e-4), dim=st.integers(1, 8), l=QUANTA
    )
    def test_high_order_self_product_is_one(self, family, order, lam, dim, l):
        p = ModelParams(lam=lam, omega=1.0, hbar=1.0, dim=dim)
        if family is CartesianEigenfunction:
            f = CartesianEigenfunction.from_occupations((order,) + (l,) * (dim - 1), p)
        else:
            f = RadialEigenfunction.from_quantum_numbers(order, l, p)
        f = normalize(f)
        assert weighted_inner_product(f, f, p) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        occupations=st.lists(st.integers(0, 8), min_size=1, max_size=4),
        lam=st.just(0.0) | log_uniform(1e-4, 1.0),
    )
    def test_tensor_grid_matches_pointwise(self, occupations, lam):
        # the residual check builds psi on the grid from its N axis factors;
        # it must equal the state evaluated at every point of the mesh
        dim = len(occupations)
        p = ModelParams(lam=lam, omega=1.0, hbar=1.0, dim=dim)
        f = normalize(CartesianEigenfunction.from_occupations(tuple(occupations), p))
        axes = [np.linspace(-6.0 / f.beta, 6.0 / f.beta, 9 - dim + i) for i in range(dim)]
        grid = math.prod(np.ix_(*f.factors(axes)))
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        pointwise = f(points if dim > 1 else points[..., 0])
        assert grid.shape == pointwise.shape == tuple(len(a) for a in axes)
        assert np.all(np.abs(grid - pointwise) <= 2 * np.spacing(np.abs(pointwise)))


def two_rule_product(f, g, p: ModelParams) -> float:
    """<f|g> as weighted_inner_product took it with two rules per factor
    pair: the pair on the rule of degree n_f + n_g, and the pair times q^2 on
    that of degree n_f + n_g + 2."""
    beta_f, beta_g = f.beta, g.beta
    s = math.sqrt(0.5 * (beta_f**2 + beta_g**2))
    flat, second = [], []
    for a, b in zip(f.n_tuple, g.n_tuple):
        pair = lambda x, a=a, b=b: (
            hermite_function(a, beta_f / s * x) * hermite_function(b, beta_g / s * x) / s
        )
        flat.append(integrate(pair, a + b))
        second.append(integrate(lambda x, pair=pair: (x / s) ** 2 * pair(x), a + b + 2))
    total = math.prod(flat)
    for j, b in enumerate(second):
        total += p.lam * b * math.prod(flat[:j] + flat[j + 1 :])
    return f.norm_constant * g.norm_constant * total


class TestOneRulePerPair:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n_f=st.lists(st.integers(0, 200), min_size=1, max_size=3),
        shifts=st.lists(st.integers(0, 2), min_size=3, max_size=3),
        lam=st.just(0.0) | log_uniform(1e-7, 0.3),
    )
    @example(n_f=[200], shifts=[2, 0, 0], lam=1e-6)
    @example(n_f=[60, 3, 1], shifts=[0, 0, 0], lam=1e-5)
    @example(n_f=[40, 7], shifts=[2, 0, 0], lam=1e-4)
    def test_matches_two_rules(self, n_f, shifts, lam):
        # both routes are exact, so they differ by rounding only: each Gauss
        # sum of m terms, at weights and Hermite values a few ulps off, errs
        # by about 2 m eps on factors of size at most 1 (normalized states).
        # Seen: up to 71 eps at (65, 193, 111) in dim 3 and 23 eps in dim 1,
        # so no fixed bound of a few eps holds up to order 200
        n_g = [n + d for n, d in zip(n_f, shifts)]
        p = ModelParams(lam=lam, omega=1.0, hbar=1.0, dim=len(n_f))
        f, g = (normalize(CartesianEigenfunction.from_occupations(tuple(n), p)) for n in (n_f, n_g))
        rule_sizes = sum((a + b) // 2 + 2 for a, b in zip(n_f, n_g))
        difference = abs(weighted_inner_product(f, g, p) - two_rule_product(f, g, p))
        assert difference <= 4 * rule_sizes * EPS


def ulps_apart(a: float, b: float) -> float:
    """|a - b| in units of the last place of the larger magnitude."""
    return 0.0 if a == b else abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestFloatAndArrayPaths:
    # a float or a list goes through Python floats and math, an array through
    # numpy: the recurrence takes the same steps, and only exp, math's or
    # numpy's, may differ in its last place. The recurrence rescales on a
    # schedule set by the largest |x| of its argument, so a float is compared
    # with the array of that one point; in the radial states below (k <= 8,
    # beta r <= 12) no rescale is due. r^l for l <= 2 is exact in both (numpy
    # squares for ** 2); numpy's pow of l >= 3 is its own libm's
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(0, 300),
        alpha=st.integers(-1, 13).map(lambda twice: twice / 2.0),
        x=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=10),
    )
    def test_laguerre_of_a_float_matches_the_array(self, k, alpha, x):
        for v in x:
            got = specfun._laguerre(k, alpha, v, -v / 2)
            want = specfun._laguerre(k, alpha, np.array([v]), np.array([-v / 2]))
            assert isinstance(got, float) and ulps_apart(got, float(want[0])) <= 2

    @pytest.mark.parametrize(
        "k, alpha, x", [(600, 600.0, 0.0), (601, 600.0, 0.0), (600, 0.5, 1e300), (601, 0.5, 1e300)]
    )
    def test_laguerre_of_a_float_overflows_to_the_arrays_inf(self, k, alpha, x):
        # L_600^(600)(0) is about 1e360 and L_601^(1/2)(1e300) about -1e178000:
        # a float gives the signed inf the array path gives, not OverflowError
        got = specfun.laguerre(k, alpha, x)
        with np.errstate(over="ignore"):
            want = float(specfun.laguerre(k, alpha, np.array([x]))[0])
        assert math.isinf(got) and got == want

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lam=st.just(0.0) | log_uniform(1e-100, 1e100),
        omega=log_uniform(1e-100, 1e100),
        hbar=log_uniform(1e-100, 1e100),
        dim=st.integers(1, 8),
        k=st.integers(0, 8),
        l=st.integers(0, 2),
        t=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=20),
    )
    def test_radial_state_of_a_list_matches_the_array(self, lam, omega, hbar, dim, k, l, t):
        try:
            p = ModelParams(lam=lam, omega=omega, hbar=hbar, dim=dim)
            f = RadialEigenfunction.from_quantum_numbers(k, l, p)
        except DomainError:
            return
        r = [v / f.beta for v in t]
        arrayed = f(np.array(r))
        listed = f(r)
        assert isinstance(listed, list)
        for got, one, want in zip(listed, map(f, r), arrayed.tolist()):
            assert got == one and ulps_apart(got, want) <= 2
