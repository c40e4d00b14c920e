import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_oscillator import (
    DomainError,
    ModelParams,
    effective_minimum,
    effective_potential,
    metric_factor,
    potential,
    scalar_curvature,
)

P3 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestModelParams:
    def test_rejects_negative_lam(self):
        with pytest.raises(DomainError):
            ModelParams(lam=-0.1)

    def test_rejects_negative_omega(self):
        with pytest.raises(DomainError):
            ModelParams(lam=0.1, omega=-1.0)

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(DomainError):
            ModelParams(lam=0.1, hbar=0.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(DomainError):
            ModelParams(lam=0.1, dim=0)

    def test_immutable(self):
        with pytest.raises(Exception):
            P3.lam = 0.5


class TestMetricFactor:
    def test_origin(self):
        assert metric_factor(0.0, P3) == 1.0

    def test_direct_substitution(self):
        # cross-check by the quadratic expansion 1 + lam*r^2
        assert metric_factor(2.0, ModelParams(lam=0.02)) == pytest.approx(1.08, abs=1e-15)

    def test_flat_limit(self):
        p = ModelParams(lam=0.0)
        assert metric_factor(17.3, p) == 1.0

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            metric_factor(-1.0, P3)

    def test_above_one_for_positive_lam(self):
        r = np.linspace(0.01, 50, 500)
        assert np.all(metric_factor(r, P3) > 1.0)


class TestScalarCurvature:
    def test_origin_value(self):
        assert scalar_curvature(0.0, P3) == pytest.approx(-0.24, abs=1e-15)

    def test_origin_formula(self):
        for lam, dim in [(0.05, 2), (0.3, 4), (1.0, 5)]:
            p = ModelParams(lam=lam, dim=dim)
            assert scalar_curvature(0.0, p) == pytest.approx(
                -2.0 * lam * dim * (dim - 1), rel=1e-14
            )

    def test_flat_space(self):
        p = ModelParams(lam=0.0, dim=3)
        assert scalar_curvature(5.0, p) == 0.0

    def test_vanishes_at_infinity(self):
        assert abs(scalar_curvature(100.0, P3)) < 1e-3

    def test_negative_and_increasing(self):
        r = np.linspace(0.0, 30, 400)
        vals = scalar_curvature(r, P3)
        assert np.all(vals < 0)
        assert np.all(np.diff(vals) > 0)

    def test_one_dimension_is_flat(self):
        p = ModelParams(lam=0.4, dim=1)
        assert scalar_curvature(2.0, p) == 0.0

    @pytest.mark.parametrize("lam", [0.02, 1.0, 37.0])
    def test_conformal_formula(self, lam):
        # an independent route: for the metric e^(2 phi) delta, phi = ln(1 + lam r^2)/2,
        # R = -e^(-2 phi) [2 (N-1) lap phi + (N-2)(N-1) |grad phi|^2], with
        # lap phi = phi'' + (N-1) phi'/r (N phi''(0) at the origin) and the
        # derivatives taken by mpmath at 40 digits
        import mpmath

        phi = lambda r: mpmath.log(1 + lam * r**2) / 2
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for r in np.linspace(0.0, 40.0, 33):
                d1, d2 = (mpmath.diff(phi, mpmath.mpf(r), n) for n in (1, 2))
                for dim in range(1, 9):
                    lap = dim * d2 if r == 0 else d2 + (dim - 1) * d1 / r
                    exact = float(-mpmath.exp(-2 * phi(mpmath.mpf(r))) * (
                        2 * (dim - 1) * lap + (dim - 2) * (dim - 1) * d1**2
                    ))
                    got = scalar_curvature(r, ModelParams(lam=lam, dim=dim))
                    assert abs(got - exact) <= 4 * eps * abs(exact), (r, dim)


class TestPotential:
    def test_origin(self):
        assert potential(0.0, P3) == 0.0

    def test_saturation_value(self):
        p = ModelParams(lam=0.04, omega=1.0)
        assert potential(1e4, p) == pytest.approx(12.5, abs=0.01)

    def test_flat_oscillator(self):
        p = ModelParams(lam=0.0, omega=2.0)
        assert potential(1.0, p) == pytest.approx(2.0, rel=1e-15)

    def test_monotone_on_sampled_pairs(self):
        rng = np.random.default_rng(0)
        for lam in (0.0, 0.02, 0.5):
            p = ModelParams(lam=lam, omega=1.3)
            pairs = np.sort(rng.uniform(0.0, 40.0, size=(1000, 2)), axis=1)
            lo = potential(pairs[:, 0], p)
            hi = potential(pairs[:, 1], p)
            assert np.all(hi >= lo - 1e-14)


class TestEffectivePotential:
    def test_far_field_limit(self):
        assert effective_potential(1e4, P3, 100.0) == pytest.approx(25.0, abs=0.01)

    def test_near_reference_minimum(self):
        assert effective_potential(3.49, P3, 100.0) == pytest.approx(8.2, abs=0.01)

    def test_pure_oscillator_term(self):
        p = ModelParams(lam=0.0, omega=1.0)
        assert effective_potential(2.0, p, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_centrifugal_singularity(self):
        with pytest.raises(DomainError):
            effective_potential(0.0, P3, 4.0)

    def test_removable_origin_without_centrifugal(self):
        assert effective_potential(0.0, P3, 0.0) == 0.0


class TestEffectiveMinimum:
    def test_reference_values(self):
        r_min, u_min = effective_minimum(P3, 100.0)
        assert r_min == pytest.approx(3.492569115591783, rel=1e-14)
        assert u_min == pytest.approx(8.198039027185569, rel=1e-14)

    def test_flat_reference(self):
        r_min, u_min = effective_minimum(ModelParams(lam=0.0, omega=1.0), 100.0)
        assert r_min == pytest.approx(math.sqrt(10.0), rel=1e-14)
        assert u_min == pytest.approx(10.0, rel=1e-14)

    def test_grid_search_oracle(self):
        # brute-force argmin of the sampled curve must land on r_min
        r = np.linspace(0.5, 20.0, 200001)
        values = effective_potential(r, P3, 100.0)
        i = int(np.argmin(values))
        r_min, u_min = effective_minimum(P3, 100.0)
        assert abs(r[i] - r_min) < 2.0 * (r[1] - r[0])
        assert values[i] == pytest.approx(u_min, abs=1e-6)

    def test_stationarity(self):
        for lam, c in [(0.02, 100.0), (0.0, 100.0), (0.3, 7.0)]:
            p = ModelParams(lam=lam, omega=1.0)
            r_min, _ = effective_minimum(p, c)
            h = 1e-5
            deriv = (
                effective_potential(r_min + h, p, c)
                - effective_potential(r_min - h, p, c)
            ) / (2 * h)
            assert abs(deriv) < 1e-8 * p.omega**2

    def test_deformation_shifts_minimum(self):
        flat = effective_minimum(ModelParams(lam=0.0, omega=1.0), 100.0)
        deformed = effective_minimum(P3, 100.0)
        assert deformed[0] > flat[0]
        assert deformed[1] < flat[1]

    def test_zero_omega_rejected(self):
        with pytest.raises(DomainError):
            effective_minimum(ModelParams(lam=0.02, omega=0.0), 1.0)

    @pytest.mark.parametrize("c_n", [-1.0, math.inf, math.nan])
    def test_bad_cn_rejected(self, c_n):
        for evaluate in (
            lambda: effective_minimum(P3, c_n),
            lambda: effective_potential(1.0, P3, c_n),
        ):
            with pytest.raises(DomainError, match="c_n must be finite and >= 0"):
                evaluate()


def ulps_from(got: float, exact) -> float:
    """|got - exact| in units of the spacing of doubles at the rounded exact value."""
    import mpmath

    return float(abs(mpmath.mpf(got) - exact) / np.spacing(abs(float(exact))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFarField:
    # r^2 overflows from r = 1.3e154 and (1 + lam r^2)^3 from lam r^2 = 5.6e102;
    # the closed forms must not: radii up to the largest double, both sides of
    # the split at sqrt(lam) r = 2^26, against mpmath at 50 digits
    LAMS = (1e-4, 0.02, 1.0, 37.0)

    @staticmethod
    def radii(lam):
        split = 2.0**26 / math.sqrt(lam)
        near_split = [np.nextafter(split, 0.0), split, np.nextafter(split, np.inf)]
        return np.concatenate([np.logspace(0, 308, 120), near_split, [1e60, 1e160]])

    def test_curvature(self):
        import mpmath

        worst = 0.0
        with mpmath.workdps(50):
            for lam in self.LAMS:
                r = self.radii(lam)
                for dim in range(1, 9):
                    got = scalar_curvature(r, ModelParams(lam=lam, dim=dim))
                    for ri, g in zip(r, got):
                        x = lam * mpmath.mpf(ri) ** 2
                        exact = -lam * (dim - 1) * (2 * dim + 3 * (dim - 2) * x) / (1 + x) ** 3
                        worst = max(worst, ulps_from(g, exact))
        assert worst <= 6, worst
        assert scalar_curvature(1e60, P3) == pytest.approx(-3e-238, rel=1e-14)

    def test_potentials(self):
        import mpmath

        worst = 0.0
        with mpmath.workdps(50):
            for lam in self.LAMS:
                r = self.radii(lam)
                for omega, c_n in [(1.0, 100.0), (0.3, 0.0), (7.0, 2.5), (0.0, 2.5)]:
                    p = ModelParams(lam=lam, omega=omega)
                    pot = potential(r, p)
                    eff = effective_potential(r, p, c_n)
                    for ri, v, u in zip(r, pot, eff):
                        r2 = mpmath.mpf(ri) ** 2
                        m = 1 + lam * r2
                        exact = mpmath.mpf(omega) ** 2 * r2 / (2 * m)
                        if omega > 0:
                            worst = max(worst, ulps_from(v, exact))
                        worst = max(worst, ulps_from(u, exact + c_n / (2 * m * r2)))
        assert worst <= 6, worst
        assert potential(1e160, P3) == 25.0

    def test_flat_potential_still_overflows(self):
        # at lam = 0 the potential omega^2 r^2/2 itself leaves the doubles
        assert potential(1e160, ModelParams(lam=0.0)) == math.inf

    def test_potentials_without_omega_squared(self):
        # omega^2 = 1e320 overflows, yet the potential saturates at 5e299
        # and the effective potential nowhere leaves the doubles
        import mpmath

        p = ModelParams(lam=1e20, omega=1e160)
        r = np.concatenate([np.logspace(-100, -2, 60), self.radii(p.lam)])
        worst = 0.0
        with mpmath.workdps(50):
            for ri, v, u in zip(r, potential(r, p), effective_potential(r, p, 100.0)):
                r2 = mpmath.mpf(ri) ** 2
                m = 1 + p.lam * r2
                exact = mpmath.mpf(p.omega) ** 2 * r2 / (2 * m)
                worst = max(worst, ulps_from(v, exact), ulps_from(u, exact + 100 / (2 * m * r2)))
        assert worst <= 6, worst
        assert potential(1e10, p) == pytest.approx(5e299, rel=1e-15)

    def test_effective_potential_without_lam_cn(self):
        # at lam = c_n = 1e200, lam*c_n = 1e400 overflows where every value
        # fits; at lam = 1e300, c_n = 1e-300 (finite lam*c_n), c_n z
        # underflows below r = 1e-54 where the centrifugal term does not
        import mpmath

        worst = 0.0
        with mpmath.workdps(50):
            for lam, c_n, r_low in [(1e200, 1e200, -50), (1e300, 1e-300, -150)]:
                r = np.logspace(r_low, 308, 120)
                for ri, u in zip(r, effective_potential(r, ModelParams(lam=lam), c_n)):
                    r2 = mpmath.mpf(ri) ** 2
                    m = 1 + lam * r2
                    worst = max(worst, ulps_from(u, r2 / (2 * m) + c_n / (2 * m * r2)))
        assert worst <= 6, worst


class TestEffectiveMinimumRange:
    # the textbook roots at 700 digits, which resolve -lam*c + sqrt(lam^2 c^2
    # + omega^2 c) even where it cancels 620 digits; at the first model
    # omega^2 overflows, at the second (lam c)^2, and at the third omega^2
    # underflows; at the fourth and fifth lam*c overflows (at the fifth
    # (omega^2 c)/sqrt(lam c) too), and at the sixth only s = lam c +
    # hypot(lam c, omega sqrt(c)) does. At the seventh sqrt(lam) sqrt(c)
    # nears the largest double; in the next four omega sqrt(c) overflows,
    # and u_min with it at three of them (inf, never NaN) while r_min fits;
    # at the last r_min truly overflows and u_min underflows. The seventh
    # to the eleventh gave an inf r_min or a NaN u_min before the minimum
    # was taken in decimal arithmetic
    @pytest.mark.parametrize(
        "lam, omega, c_n, r_min, u_min",
        [
            (1e20, 1e160, 100.0, 3.16e-80, 1e161),
            (0.02, 1.0, 1e300, 2e149, 25.0),
            (0.02, 1e-170, 100.0, 2e170, 0.0),  # u_min = 2.5e-339 underflows
            (1e200, 1.0, 1e200, 1.414e200, 5e-201),
            (1e200, 1e200, 1e200, 1.414, 5e199),
            (1e308, 1.0, 1.5, 1.732e154, 5e-309),  # u_min is subnormal
            (1e308, 1e154, 1e308, 1.414e154, 0.5),
            (1.0, 1e300, 1e100, 1e-125, math.inf),  # u_min = 1e350
            (0.0, 1e300, 1e100, 1e-125, math.inf),
            (1e-300, 1e300, 1e100, 1e-125, math.inf),
            (1e300, 1e300, 1e100, 1.414e-100, 5e299),
            (1e308, 1e-300, 1e300, math.inf, 0.0),  # r_min = 1.4e604
        ],
    )
    def test_against_mpmath(self, lam, omega, c_n, r_min, u_min):
        import mpmath

        got = effective_minimum(ModelParams(lam=lam, omega=omega), c_n)
        with mpmath.workdps(700):
            lam_c = mpmath.mpf(lam) * c_n
            root = mpmath.sqrt(lam_c**2 + mpmath.mpf(omega) ** 2 * c_n)
            exact = (mpmath.sqrt((lam_c + root) / mpmath.mpf(omega) ** 2), root - lam_c)
            for g, e in zip(got, exact):
                if math.isinf(float(e)):
                    assert g == math.inf
                else:
                    assert ulps_from(g, e) <= 2
        assert got == pytest.approx((r_min, u_min), rel=1e-3)


class TestScaleCovariance:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lam=st.one_of(st.just(0.0), log_uniform(1e-100, 1e100)),
        omega=log_uniform(1e-100, 1e100),
        dim=st.integers(1, 8),
        c_n=st.one_of(st.just(0.0), log_uniform(1e-100, 1e100)),
        r=st.lists(log_uniform(1e-100, 1e100), min_size=1, max_size=20),
        j=st.integers(-20, 20),
    )
    def test_twins_scale_every_curve_bit_for_bit(self, lam, omega, dim, c_n, r, j):
        # (lam, omega, r) -> (s lam, s omega, r/sqrt(s)) with s = 4^j keeps
        # lam r^2, so the metric factor, and multiplies the curvature and
        # both potentials by s; sqrt(s) = 2^j, so every step scales exactly
        # wherever no value leaves the normal doubles
        s = 4.0**j
        p = ModelParams(lam=lam, omega=omega, dim=dim)
        twin = ModelParams(lam=s * lam, omega=s * omega, dim=dim)
        r_twin = [v / 2.0**j for v in r]
        curves = [
            (metric_factor, 1.0),
            (scalar_curvature, s),
            (potential, s),
            (lambda r, p: effective_potential(r, p, c_n), s),
        ]
        for curve, factor in curves:
            for value, scaled in zip(curve(r, p), curve(r_twin, twin)):
                if all(v == 0 or 1e-300 <= abs(v) <= 1e300 for v in (value, scaled)):
                    assert scaled == factor * value
