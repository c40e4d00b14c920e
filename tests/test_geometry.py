import math

import numpy as np
import pytest

from pdm_oscillator import (
    DomainError,
    EffectivePotentialSpec,
    ModelParams,
    effective_minimum,
    effective_potential,
    metric_factor,
    potential,
    scalar_curvature,
)

P3 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)


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
        spec = EffectivePotentialSpec(P3, 100.0)
        assert effective_potential(1e4, spec) == pytest.approx(25.0, abs=0.01)

    def test_near_reference_minimum(self):
        spec = EffectivePotentialSpec(P3, 100.0)
        assert effective_potential(3.49, spec) == pytest.approx(8.2, abs=0.01)

    def test_pure_oscillator_term(self):
        spec = EffectivePotentialSpec(ModelParams(lam=0.0, omega=1.0), 0.0)
        assert effective_potential(2.0, spec) == pytest.approx(2.0, rel=1e-15)

    def test_centrifugal_singularity(self):
        spec = EffectivePotentialSpec(P3, 4.0)
        with pytest.raises(DomainError):
            effective_potential(0.0, spec)

    def test_removable_origin_without_centrifugal(self):
        spec = EffectivePotentialSpec(P3, 0.0)
        assert effective_potential(0.0, spec) == 0.0


class TestEffectiveMinimum:
    def test_reference_values(self):
        r_min, u_min = effective_minimum(EffectivePotentialSpec(P3, 100.0))
        assert r_min == pytest.approx(3.492569115591783, rel=1e-14)
        assert u_min == pytest.approx(8.198039027185569, rel=1e-14)

    def test_flat_reference(self):
        spec = EffectivePotentialSpec(ModelParams(lam=0.0, omega=1.0), 100.0)
        r_min, u_min = effective_minimum(spec)
        assert r_min == pytest.approx(math.sqrt(10.0), rel=1e-14)
        assert u_min == pytest.approx(10.0, rel=1e-14)

    def test_grid_search_oracle(self):
        # brute-force argmin of the sampled curve must land on r_min
        spec = EffectivePotentialSpec(P3, 100.0)
        r = np.linspace(0.5, 20.0, 200001)
        values = effective_potential(r, spec)
        i = int(np.argmin(values))
        r_min, u_min = effective_minimum(spec)
        assert abs(r[i] - r_min) < 2.0 * (r[1] - r[0])
        assert values[i] == pytest.approx(u_min, abs=1e-6)

    def test_stationarity(self):
        for lam, c in [(0.02, 100.0), (0.0, 100.0), (0.3, 7.0)]:
            p = ModelParams(lam=lam, omega=1.0)
            spec = EffectivePotentialSpec(p, c)
            r_min, _ = effective_minimum(spec)
            h = 1e-5
            deriv = (
                effective_potential(r_min + h, spec)
                - effective_potential(r_min - h, spec)
            ) / (2 * h)
            assert abs(deriv) < 1e-8 * p.omega**2

    def test_deformation_shifts_minimum(self):
        flat = effective_minimum(
            EffectivePotentialSpec(ModelParams(lam=0.0, omega=1.0), 100.0)
        )
        deformed = effective_minimum(EffectivePotentialSpec(P3, 100.0))
        assert deformed[0] > flat[0]
        assert deformed[1] < flat[1]

    def test_zero_omega_rejected(self):
        with pytest.raises(DomainError):
            effective_minimum(
                EffectivePotentialSpec(ModelParams(lam=0.02, omega=0.0), 1.0)
            )
