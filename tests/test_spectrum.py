import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pdm_oscillator.spectrum as spectrum_module
from pdm_oscillator import (
    BracketingError,
    ConvergenceError,
    DomainError,
    ModelParams,
    SpectrumTable,
    angular_multiplicity,
    continuum_threshold,
    degeneracy,
    effective_frequency,
    effective_potential,
    energy_closed_form,
    energy_implicit,
    harmonic_base,
    metric_factor,
    potential,
    scalar_curvature,
    solve_deformed_spectrum,
    spectrum_table,
    threshold_gap,
)
P3 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def bisection_oracle(n, params, iterations=200):
    """Plain scalar bisection of E = hbar*Omega(E)*(n+N/2), written blind."""
    nu = n + params.dim / 2.0
    top = params.omega**2 / (2.0 * params.lam)
    f = lambda e: params.hbar * math.sqrt(max(params.omega**2 - 2 * params.lam * e, 0.0)) * nu - e
    lo, hi = 0.0, top
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestContinuumThreshold:
    def test_reference_values(self):
        assert continuum_threshold(P3) == pytest.approx(25.0, rel=1e-15)
        assert continuum_threshold(ModelParams(lam=0.1, omega=1.0)) == pytest.approx(5.0)
        assert continuum_threshold(ModelParams(lam=0.5, omega=2.0)) == pytest.approx(4.0)

    def test_flat_is_unbounded(self):
        assert continuum_threshold(ModelParams(lam=0.0)) == math.inf


class TestEffectiveFrequency:
    def test_zero_energy(self):
        assert effective_frequency(0.0, P3) == pytest.approx(1.0)

    def test_flat(self):
        p = ModelParams(lam=0.0, omega=1.7)
        assert effective_frequency(123.0, p) == pytest.approx(1.7)

    def test_vanishes_at_threshold(self):
        e = continuum_threshold(P3) * (1.0 - 1e-12)
        assert 0.0 < effective_frequency(e, P3) < 1e-5

    def test_continuum_rejected(self):
        with pytest.raises(DomainError):
            effective_frequency(continuum_threshold(P3), P3)
        with pytest.raises(DomainError):  # omega = 0: no energy has Omega > 0
            effective_frequency(0.5, ModelParams(lam=0.0, omega=0.0))


class TestClosedForm:
    def test_flat_ground_state(self):
        p = ModelParams(lam=0.0, omega=1.0, hbar=1.0, dim=3)
        assert energy_closed_form(0, p) == pytest.approx(1.5, rel=1e-15)

    def test_ground_state_against_bisection_oracle(self):
        oracle = bisection_oracle(0, P3)
        assert oracle == pytest.approx(1.455674848193305, rel=1e-13)
        assert energy_closed_form(0, P3) == pytest.approx(oracle, abs=1e-12)

    def test_high_level_against_oracle(self):
        oracle = bisection_oracle(100, P3)
        assert oracle == pytest.approx(23.64346733129637, rel=1e-13)
        value = energy_closed_form(100, P3)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value < 25.0

    def test_strictly_increasing_and_confined(self):
        levels = np.arange(2001)
        energy = energy_closed_form(levels, P3)
        assert np.all(np.diff(energy) > 0)
        assert np.all(energy > 0)
        assert np.all(energy < continuum_threshold(P3))

    def test_huge_scale_stays_finite(self):
        # omega^2 and hbar*nu*omega overflow, but g = lam*hbar/omega = 1e50
        # puts every level at the threshold omega^2/(2 lam) = 5e299, with a
        # gap omega^4/(8 lam^3 hbar^2 nu^2) = 1e200/(8 nu^2)
        p = ModelParams(lam=1e100, omega=1e200, hbar=1e150, dim=3)
        levels = np.arange(4)
        nu = levels + 1.5
        assert continuum_threshold(p) == pytest.approx(5e299, rel=1e-15)
        np.testing.assert_allclose(energy_closed_form(levels, p), 5e299, rtol=1e-15)
        np.testing.assert_allclose(threshold_gap(levels, p), 1e200 / (8.0 * nu**2), rtol=1e-14)

    def test_rejects_zero_omega(self):
        with pytest.raises(DomainError):
            energy_closed_form(0, ModelParams(lam=0.1, omega=0.0))

    def test_rejects_negative_level(self):
        with pytest.raises(DomainError):
            energy_closed_form(-1, P3)


class TestElementwise:
    # each closed form is one formula for one value: a list of inputs gives a
    # list, an array an array of its shape, and every element is bit for bit
    # the call on that element alone
    RADII = np.concatenate([np.linspace(0.0, 40.0, 41), np.logspace(-5, 300, 62)])
    MODELS = [
        ModelParams(lam=0.0, omega=1.3, dim=3),
        ModelParams(lam=0.02, omega=1.0, dim=3),
        ModelParams(lam=37.0, omega=1e100, hbar=1e-20, dim=5),
    ]
    CALLS = {
        "energy_closed_form": (energy_closed_form, np.arange(0, 3000, 7)),
        "threshold_gap": (threshold_gap, np.arange(0, 3000, 7)),
        "metric_factor": (metric_factor, RADII),
        "scalar_curvature": (scalar_curvature, RADII),
        "potential": (potential, RADII),
        "effective_potential": (lambda r, p: effective_potential(r, p, 2.5), RADII[1:]),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_scalar_list_and_array_calls_agree_bit_for_bit(self, name):
        fn, inputs = self.CALLS[name]
        for p in self.MODELS:
            scalars = np.array([fn(x, p) for x in inputs.tolist()])
            listed = fn(inputs.tolist(), p)
            arrayed = fn(inputs, p)
            assert isinstance(listed, list) and isinstance(arrayed, np.ndarray)
            for values in (np.array(listed), arrayed):
                assert np.array_equal(values.view(np.uint64), scalars.view(np.uint64)), p
            assert fn(inputs[:6].reshape(2, 3), p).shape == (2, 3)
            assert isinstance(fn(inputs[3], p), float)


class TestImplicitSolver:
    def test_agrees_with_closed_form(self):
        for n in (0, 1, 7, 50, 300):
            assert energy_implicit(n, P3) == pytest.approx(
                energy_closed_form(n, P3), abs=1e-10
            )

    def test_tiny_lam_continuity(self):
        p = ModelParams(lam=1e-10, omega=1.0, hbar=1.0, dim=3)
        assert energy_implicit(4, p) == pytest.approx(5.5, abs=1e-6)

    def test_flat_lam_branch(self):
        p = ModelParams(lam=0.0, omega=2.0, hbar=1.0, dim=2)
        assert energy_implicit(3, p) == pytest.approx(8.0, rel=1e-14)

    def test_vectorized(self):
        levels = np.arange(150)
        values = energy_implicit(levels, P3)
        assert values.shape == (150,)
        assert np.max(np.abs(values - energy_closed_form(levels, P3))) < 1e-10

    def test_self_consistency_residual(self):
        levels = np.arange(401)
        energy = energy_closed_form(levels, P3)
        nu = levels + 1.5
        residual = np.abs(energy - np.sqrt(1.0 - 0.04 * energy) * nu)
        assert residual.max() < 1e-10

    def test_high_level_approaches_threshold(self):
        value = energy_implicit(300, P3)
        threshold = continuum_threshold(P3)
        assert threshold - value < 0.01 * threshold

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        lam=st.one_of(st.just(0.0), log_uniform(1e-100, 1e100)),
        omega=log_uniform(1e-100, 1e100),
        hbar=log_uniform(1e-100, 1e100),
        dim=st.integers(1, 8),
        n=st.lists(st.integers(-1, 10**6), min_size=1, max_size=4),
    )
    def test_matches_closed_form_at_any_scale(self, lam, omega, hbar, dim, n):
        # the bisection is a root of the computed equation, against the
        # closed form's handful of roundings; 2.9 eps was the worst over
        # 3000 random models in this range. energy_implicit raises
        # DomainError exactly where energy_closed_form does
        p = ModelParams(lam=lam, omega=omega, hbar=hbar, dim=dim)
        levels = np.array(n)
        try:
            closed = energy_closed_form(levels, p)
        except DomainError:
            with pytest.raises(DomainError):
                energy_implicit(levels, p)
            return
        np.testing.assert_allclose(
            energy_implicit(levels, p), closed, rtol=8 * np.finfo(float).eps, atol=0
        )


class TestThresholdGap:
    def test_matches_direct_difference(self):
        for n in (0, 3, 20):
            direct = continuum_threshold(P3) - energy_closed_form(n, P3)
            assert threshold_gap(n, P3) == pytest.approx(direct, rel=1e-12)

    def test_strictly_decreasing_far_out(self):
        gaps = threshold_gap(np.arange(5001), P3)
        assert np.all(gaps > 0)
        assert np.all(np.diff(gaps) < 0)

    def test_asymptotic_deficit(self):
        # gap ~ omega^4 / (8 lam^3 hbar^2 nu^2) far above the well
        n = 100000
        nu = n + 1.5
        predicted = 1.0 / (8.0 * 0.02**3 * nu**2)
        assert threshold_gap(n, P3) == pytest.approx(predicted, rel=1e-3)

    def test_flat_sentinel(self):
        assert threshold_gap(3, ModelParams(lam=0.0)) == math.inf

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lam=log_uniform(1e-100, 1e100),
        omega=log_uniform(1e-100, 1e100),
        hbar=log_uniform(1e-100, 1e100),
        dim=st.integers(1, 8),
        n=st.integers(0, 10_000),
    )
    def test_equals_the_difference_where_it_is_well_conditioned(self, lam, omega, hbar, dim, n):
        # threshold T and E_n share the rounding of ratio = omega/(hypot(a,
        # omega) + a), at most 3 eps, and T's own, at most eps; the gap is
        # T ratio^2. To first order the two sides then differ by 3 eps (T +
        # gap) + eps E from those, and by eps gap (the squares), 1.5 eps E
        # (E's last products) and eps/2 gap (the difference) beyond them:
        # at most 7.5 eps T/gap, since E = T - gap and T >= gap
        p = ModelParams(lam=lam, omega=omega, hbar=hbar, dim=dim)
        threshold = continuum_threshold(p)
        gap = threshold_gap(n, p)
        assume(gap >= 1e-6 * threshold)
        difference = threshold - energy_closed_form(n, p)
        bound = 8 * np.finfo(float).eps * threshold / gap
        assert abs(difference - gap) <= bound * gap


def in_range(values) -> bool:
    """Whether each value is 0, infinite, or of magnitude in [1e-300, 1e300]."""
    return all(v == 0 or math.isinf(v) or 1e-300 <= abs(v) <= 1e300 for v in values)


class TestScaleCovariance:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lam=st.one_of(st.just(0.0), log_uniform(1e-100, 1e100)),
        omega=log_uniform(1e-100, 1e100),
        hbar=log_uniform(1e-100, 1e100),
        dim=st.integers(1, 8),
        n=st.lists(st.integers(0, 199), min_size=1, max_size=4, unique=True),
        j=st.integers(-20, 20),
    )
    # a = hbar lam nu = 1.5e150, and its twin's 1.6e162, lie on both sides of
    # where a^2 overflows
    @example(lam=1e100, omega=1e100, hbar=1e50, dim=3, n=[0], j=20)
    def test_twins_scale_every_energy_bit_for_bit(self, lam, omega, hbar, dim, n, j):
        # (lam, omega) -> (s lam, s omega) and (lam, hbar) -> (lam/s, s hbar)
        # keep g = lam hbar/omega and multiply every energy by s = 4^j, a
        # power of two whose root is one too: a layer written in scale-free
        # form gives the scaled bits, wherever no step leaves the normal doubles
        s = 4.0**j
        p = ModelParams(lam=lam, omega=omega, hbar=hbar, dim=dim)
        twins = [ModelParams(lam=s * lam, omega=s * omega, hbar=hbar, dim=dim),
                 ModelParams(lam=lam / s, omega=omega, hbar=s * hbar, dim=dim)]
        levels = sorted(n)

        def energies(q):
            try:
                values = [energy_closed_form(levels, q), threshold_gap(levels, q),
                          energy_implicit(levels, q)]
            except DomainError:
                return None
            return values if all(in_range(v) for v in values) else None

        base = energies(p)
        assume(base is not None)
        for twin in twins:
            scaled = energies(twin)
            if scaled is not None:
                assert scaled == [[s * v for v in values] for values in base]


class TestDegeneracy:
    def count_tuples(self, n, dim):
        return sum(
            1
            for tup in itertools.product(range(n + 1), repeat=dim)
            if sum(tup) == n
        )

    def test_ground_state(self):
        for dim in (1, 2, 3, 7):
            assert degeneracy(0, dim) == 1

    def test_enumeration_small(self):
        assert degeneracy(2, 3) == self.count_tuples(2, 3) == 6
        assert degeneracy(3, 2) == self.count_tuples(3, 2) == 4

    def test_enumeration_sweep(self):
        for dim in (1, 2, 3, 4):
            for n in range(9):
                assert degeneracy(n, dim) == self.count_tuples(n, dim)

    def test_large_arguments_exact(self):
        assert degeneracy(1000, 3) == (1002 * 1001) // 2


class TestAngularMultiplicity:
    def test_counting_identity(self):
        # sum over radial pairs 2k+l = n of the angular dimensions matches
        # the Cartesian tuple count
        for dim in (2, 3, 4):
            for n in range(13):
                total = sum(
                    angular_multiplicity(n - 2 * k, dim) for k in range(n // 2 + 1)
                )
                assert total == degeneracy(n, dim)

    def test_three_dimensions(self):
        assert [angular_multiplicity(l, 3) for l in range(4)] == [1, 3, 5, 7]

    def test_two_dimensions(self):
        assert [angular_multiplicity(l, 2) for l in range(4)] == [1, 2, 2, 2]


class TestGenericDeformation:
    def test_harmonic_base_matches_closed_form(self):
        levels = np.array([0, 1, 5, 20])
        np.testing.assert_allclose(
            solve_deformed_spectrum(harmonic_base(P3), levels, P3),
            energy_closed_form(levels, P3), rtol=0, atol=1e-10,
        )

    def test_one_dimensional_cross_check(self):
        p = ModelParams(lam=0.05, omega=1.0, hbar=1.0, dim=1)
        base = harmonic_base(p)
        assert solve_deformed_spectrum(base, 2, p) == pytest.approx(
            energy_closed_form(2, p), abs=1e-10
        )

    def test_tiny_lam_returns_base(self):
        p = ModelParams(lam=1e-12, omega=1.0, hbar=1.0, dim=3)
        base = harmonic_base(p)
        assert solve_deformed_spectrum(base, 6, p) == pytest.approx(7.5, abs=1e-6)

    def test_nonharmonic_base(self):
        # quartic-like solvable family, still increasing in frequency
        p = ModelParams(lam=0.03, omega=1.0, hbar=1.0, dim=1)
        base = lambda w, n: w ** 1.5 * (n + 0.7)
        energy = solve_deformed_spectrum(base, 3, p)
        omega_eff = effective_frequency(energy, p)
        assert energy == pytest.approx(base(omega_eff, 3), abs=1e-10)

    def test_non_monotone_base_rejected(self):
        base = lambda w, n: np.sin(20.0 * w)
        with pytest.raises(BracketingError):
            solve_deformed_spectrum(base, 0, P3)

    def test_base_is_checked_per_level(self):
        # the base decreases in frequency at n = 7 alone, by far less than
        # the other levels' scale, so one check on all levels together
        # would miss it
        levels = np.arange(10)
        base = lambda w, n: np.where(n == 7, 2.0 - 1e-6 * w, 1e9 * w * (n + 1.5))
        assert np.all(np.isfinite(solve_deformed_spectrum(base, np.delete(levels, 7), P3)))
        with pytest.raises(BracketingError, match="not increasing"):
            solve_deformed_spectrum(base, levels, P3)

    def test_no_sign_change_rejected(self):
        base = lambda w, n: -1.0 - 0.0 * w + 1e-9 * w
        with pytest.raises(BracketingError):
            solve_deformed_spectrum(base, 0, P3)

    def test_flat_lam_rejected(self):
        base = harmonic_base(ModelParams(lam=0.0))
        with pytest.raises(DomainError):
            solve_deformed_spectrum(base, 0, ModelParams(lam=0.0))

    def test_bracket_has_exactly_one_sign_change(self):
        # fine sampling of the fixed-point defect for the harmonic base
        base = harmonic_base(P3)
        top = continuum_threshold(P3) * (1.0 - 1e-12)
        for n in (0, 3, 40):
            e = np.linspace(0.0, top, 2000)
            g = base(np.sqrt(1.0 - 0.04 * e), n) - e
            assert int(np.sum(np.diff(np.sign(g)) != 0)) == 1


class TestOneSolver:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lam=log_uniform(1e-5, 1e5),
        omega=log_uniform(1e-5, 1e5),
        hbar=log_uniform(1e-5, 1e5),
        dim=st.integers(1, 8),
        n=st.integers(0, 100_000),
    )
    def test_both_solvers_match_closed_form(self, lam, omega, hbar, dim, n):
        p = ModelParams(lam=lam, omega=omega, hbar=hbar, dim=dim)
        levels = np.array([n, n + 1])
        closed = energy_closed_form(levels, p)
        implicit = energy_implicit(levels, p)
        fixed = solve_deformed_spectrum(harmonic_base(p), levels, p)
        per_level = [solve_deformed_spectrum(harmonic_base(p), int(k), p) for k in levels]
        assert np.array_equal(fixed, per_level) and np.array_equal(fixed, implicit)
        assert np.all(closed <= continuum_threshold(p))
        np.testing.assert_allclose(fixed, closed, rtol=1e-12, atol=0)
        # threshold - E_n, evaluated stably, resolves the order of levels
        # whose spacing is below the rounding of E_n itself
        gap = threshold_gap(levels, p)
        assert 0 < gap[1] < gap[0]
        spacing = gap[0] - gap[1]
        for energy in (closed, implicit, fixed):
            assert energy[1] > energy[0] or spacing < 4 * np.finfo(float).eps * energy[1]

    def test_tiny_lam_ground_state(self):
        # a bracket as wide as the threshold 5e29 cannot resolve E_0 = 1.5
        p = ModelParams(lam=1e-30, omega=1.0, hbar=1.0, dim=3)
        assert energy_implicit(0, p) == pytest.approx(1.5, rel=1e-15)
        assert solve_deformed_spectrum(harmonic_base(p), 0, p) == pytest.approx(1.5, rel=1e-15)

    def test_huge_scale_without_omega_squared(self):
        # omega^2 = 1e320 overflows, but every level is about 1e160
        p = ModelParams(lam=1e20, omega=1e160, hbar=1.0, dim=3)
        levels = np.arange(11)
        closed = energy_closed_form(levels, p)
        fixed = solve_deformed_spectrum(harmonic_base(p), levels, p)
        np.testing.assert_allclose(energy_implicit(levels, p), closed, rtol=1e-15, atol=0)
        np.testing.assert_allclose(fixed, closed, rtol=1e-15, atol=0)

    def test_underflowing_levels_rejected(self):
        # threshold omega^2/(2 lam) = 2.5e-399 is below the smallest double
        p = ModelParams(lam=0.02, omega=1e-200, hbar=1.0, dim=3)
        for solve in (
            lambda: energy_closed_form(0, p),
            lambda: threshold_gap(0, p),
            lambda: energy_implicit(0, p),
            lambda: solve_deformed_spectrum(harmonic_base(p), 0, p),
        ):
            with pytest.raises(DomainError, match="underflow"):
                solve()


    def test_one_bisection_per_table(self, monkeypatch, tmp_path):
        from pdm_oscillator import cli, verify

        calls = []
        bisect = spectrum_module._bisect
        monkeypatch.setattr(
            spectrum_module, "_bisect", lambda *args: calls.append(1) or bisect(*args)
        )
        assert verify.check_generic_deformation().passed
        assert len(calls) == 2
        calls.clear()
        assert cli.run(["deform", "--n-max", "20", "--out", str(tmp_path / "d.csv")]) == 0
        assert len(calls) == 1
        # the 27 models' 401 levels each, through the one fixed-point solver
        calls.clear()
        fixed_point = verify._fixed_point
        solves = []
        monkeypatch.setattr(
            verify, "_fixed_point", lambda *args: solves.append(1) or fixed_point(*args)
        )
        assert verify.check_spectrum_self_consistency().passed
        assert len(calls) == 1 and len(solves) == 1

    def test_battery_levels_are_energy_implicit(self, monkeypatch):
        # the check's one bisection returns, model by model, exactly what
        # energy_implicit returns for that model
        from pdm_oscillator import verify

        solved = []
        bisect = spectrum_module._bisect
        monkeypatch.setattr(
            spectrum_module, "_bisect", lambda *args: solved.append(bisect(*args)) or solved[-1]
        )
        assert verify.check_spectrum_self_consistency().passed
        monkeypatch.undo()
        levels = np.arange(401)
        models = [
            ModelParams(lam=lam, omega=omega, hbar=1.0, dim=dim)
            for dim in (1, 2, 3)
            for lam in (0.005, 0.02, 0.1)
            for omega in (0.5, 1.0, 2.0)
        ]
        (battery,) = solved
        assert np.array_equal(battery, [energy_implicit(levels, p) for p in models])


class TestBisectionFailure:
    # three halvings leave the bracket far wider than the residual tolerance
    def test_implicit_solver_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum_module, "_BISECT_ITERATIONS", 3)
        with pytest.raises(ConvergenceError, match="residual"):
            energy_implicit(np.arange(5), P3)

    def test_fixed_point_solver_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum_module, "_BISECT_ITERATIONS", 3)
        with pytest.raises(ConvergenceError, match="residual"):
            solve_deformed_spectrum(harmonic_base(P3), 2, P3)


class TestSpectrumTable:
    def test_single_flat_row(self):
        p = ModelParams(lam=0.0, omega=1.0, hbar=1.0, dim=3)
        table = spectrum_table(0, p)
        assert len(table["n"]) == 1
        row = {name: column[0] for name, column in table.items()}
        assert row["energy"] == pytest.approx(1.5, rel=1e-15)
        assert row["degeneracy"] == 1
        assert row["gap_to_threshold"] == math.inf
        assert row["residual"] == 0.0

    def test_monotone_energies_with_small_residuals(self):
        table = spectrum_table(5, P3)
        assert np.all(np.diff(table["energy"]) > 0)
        assert np.all(np.array(table["residual"]) < 1e-10)

    @pytest.mark.parametrize("lam, n_max", [(1e8, 8), (1e8, 2000), (0.02, 2000)])
    def test_residual_column_at_rounding(self, lam, n_max):
        # at lam = 1e8 every level rounds to the threshold, where Omega from
        # threshold - E is 0 or off by up to 20x; Omega from the gap is not
        table = spectrum_table(n_max, ModelParams(lam=lam, omega=1.0, hbar=1.0, dim=3))
        assert np.all(np.array(table["residual"]) <= 4.0 * np.finfo(float).eps * np.array(table["energy"]))

    def test_gap_column_strictly_decreasing(self):
        table = spectrum_table(400, P3)
        assert np.all(np.diff(table["gap_to_threshold"]) < 0)

    def test_csv_round_trip(self):
        table = spectrum_table(3, P3)
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "n,energy,degeneracy,gap_to_threshold,residual"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(energy_closed_form(0, P3), rel=1e-16)

    def test_json_rows(self):
        table = spectrum_table(2, ModelParams(lam=0.0, omega=1.0, dim=2))
        rows = table.to_json_rows()
        assert rows[0]["gap_to_threshold"] is None  # inf serialized as null
        assert rows[1]["degeneracy"] == 2

    def test_cap(self):
        with pytest.raises(DomainError):
            spectrum_table(100_001, P3)


class TestColumnWriter:
    COLUMNS = SpectrumTable(n=np.arange(2), x=[1.5, math.inf])

    def test_csv(self):
        assert self.COLUMNS.to_csv() == "n,x\n0,1.5\n1,inf\n"

    def test_json_rows(self):
        rows = self.COLUMNS.to_json_rows()
        assert json.dumps(rows) == '[{"n": 0, "x": 1.5}, {"n": 1, "x": null}]'

    def test_floats_round_trip_bit_for_bit(self):
        bits = np.random.default_rng(11).integers(0, 2**64, size=2000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        cells = SpectrumTable(x=values).to_csv().splitlines()[1:]
        back = np.array([float(cell) for cell in cells])
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            SpectrumTable(n=np.arange(2), x=[1.5]).to_csv()
        with pytest.raises(ValueError):
            SpectrumTable(n=np.arange(2), x=[1.5]).to_json_rows()


class TestFloatAndArrayPaths:
    # a list or a number of levels goes through Python floats and math, an
    # array through numpy; both take the same midpoints and reach the same
    # verdict on the bracket
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lam=log_uniform(1e-100, 1e100),
        omega=log_uniform(1e-100, 1e100),
        hbar=log_uniform(1e-100, 1e100),
        dim=st.integers(1, 8),
        n=st.lists(st.integers(0, 10**5), min_size=1, max_size=5),
    )
    def test_list_and_array_levels_agree_bit_for_bit(self, lam, omega, hbar, dim, n):
        p = ModelParams(lam=lam, omega=omega, hbar=hbar, dim=dim)
        base = harmonic_base(p)
        try:
            arrayed = solve_deformed_spectrum(base, np.array(n), p)
        except DomainError:
            with pytest.raises(DomainError):
                solve_deformed_spectrum(base, n, p)
            return
        listed = solve_deformed_spectrum(base, n, p)
        assert isinstance(listed, list) and isinstance(arrayed, np.ndarray)
        assert np.array_equal(np.array(listed).view(np.uint64), arrayed.view(np.uint64))
        single = solve_deformed_spectrum(base, n[0], p)
        assert isinstance(single, float) and single.hex() == listed[0].hex()
        assert energy_implicit(n, p) == listed
        # a base falling in frequency, and one below 0, fail on both paths
        # with the same message and the same g values in it
        for bad in (lambda w, k: base(p.omega, k) - 0.5 * base(w, k),
                    lambda w, k: 0.0 * w - base(p.omega, k)):
            messages = []
            for levels in (n, np.array(n)):
                with pytest.raises(BracketingError) as caught:
                    solve_deformed_spectrum(bad, levels, p)
                messages.append(str(caught.value))
            assert messages[0] == messages[1]

    def test_base_of_numpy_scalars_on_numbers_and_lists(self):
        # a base written with numpy gives numpy scalars on one float and
        # level; a number and a list of levels still give Python floats, with
        # the array path's bits
        p = ModelParams(lam=0.1)
        base = lambda w, n: np.sqrt(w) * (n + 1.5)
        levels = [0, 1, 5, 40]
        arrayed = solve_deformed_spectrum(base, np.array(levels), p).tolist()
        listed = solve_deformed_spectrum(base, levels, p)
        single = solve_deformed_spectrum(base, 5, p)
        assert all(type(v) is float for v in [*listed, single])
        assert [v.hex() for v in listed] == [v.hex() for v in arrayed]
        assert single.hex() == arrayed[2].hex()

    def test_nested_lists_give_nested_lists(self):
        # a list of lists is solved row by row, as the closed form maps it
        p = ModelParams(lam=0.1)
        levels = [[0, 1], [2, 3, 4]]
        assert energy_implicit(levels, p) == [energy_implicit(row, p) for row in levels]
        assert solve_deformed_spectrum(harmonic_base(p), levels, p) == [
            energy_implicit(row, p) for row in levels
        ]
