import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_oscillator import (
    ConvergenceError,
    DomainError,
    EffectivePotentialSpec,
    ModelParams,
    PhaseState,
    Trajectory,
    classical,
    closure_check,
    conserved_series,
    continuum_threshold,
    effective_minimum,
    estimate_radial_period,
    exact_orbit,
    hamiltonian,
    integrate_orbit,
    verify,
)
from pdm_oscillator.classical import hamilton_rhs, integrate_orbits

P3 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)
P2 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=2)


def analytic_full_period(energy, params):
    """Orbit period from the flat-time reparametrization dt = (1+lam q^2) ds.

    On shell the phase curve coincides with a flat oscillator of frequency
    Omega(E) and energy E, whose mean square radius over a cycle is E/Omega^2,
    so the full period is (2 pi / Omega) * (1 + lam E / Omega^2).
    """
    omega_eff_sq = params.omega**2 - 2.0 * params.lam * energy
    omega_eff = math.sqrt(omega_eff_sq)
    return 2.0 * math.pi / omega_eff * (1.0 + params.lam * energy / omega_eff_sq)


class TestHamiltonian:
    def test_rest_at_origin(self):
        assert hamiltonian(PhaseState(q=np.zeros(3), p=np.zeros(3)), P3) == 0.0

    def test_flat_oscillator(self):
        p = ModelParams(lam=0.0, omega=2.0, dim=2)
        state = PhaseState(q=np.array([1.0, 0.5]), p=np.array([0.3, -0.4]))
        expected = 0.5 * (0.3**2 + 0.4**2) + 0.5 * 4.0 * (1.0 + 0.25)
        assert hamiltonian(state, p) == pytest.approx(expected, rel=1e-15)

    def test_reference_point(self):
        state = PhaseState(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]))
        assert hamiltonian(state, P3) == pytest.approx(0.9803921568627451, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            hamiltonian(PhaseState(q=np.zeros(2), p=np.zeros(2)), P3)


class TestPhaseState:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            PhaseState(q=np.zeros(3), p=np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            PhaseState(q=np.array([np.inf, 0.0]), p=np.zeros(2))


def conserved_at(state, params):
    """Every conserved quantity at one phase point, by label: conserved_series
    on a one-point Trajectory."""
    traj = Trajectory(
        t=np.array([state.t]), q=state.q[None, :], p=state.p[None, :], params=params
    )
    return {label: float(v[0]) for label, v in conserved_series(traj, params).items()}


def labelled(values, prefix, indices):
    return np.array([values[f"{prefix}_{i}"] for i in indices])


class TestConservedSet:
    def test_flat_separation_constants(self):
        p = ModelParams(lam=0.0, omega=1.3, dim=3)
        state = PhaseState(q=np.array([0.5, -1.0, 2.0]), p=np.array([1.0, 0.2, -0.7]))
        i_vals = labelled(conserved_at(state, p), "i", range(1, 4))
        expected = state.p**2 + 1.3**2 * state.q**2
        assert i_vals == pytest.approx(expected, rel=1e-14)

    def test_radial_motion_has_zero_angular_blocks(self):
        state = PhaseState(q=np.array([1.0, 2.0, -0.5]), p=np.array([2.0, 4.0, -1.0]))
        values = conserved_at(state, P3)
        assert labelled(values, "c_upper", (2, 3)) == pytest.approx([0.0, 0.0], abs=1e-14)
        assert labelled(values, "c_lower", (2, 3)) == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_reference_point_values(self):
        state = PhaseState(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]))
        values = conserved_at(state, P3)
        assert values["c_upper_2"] == pytest.approx(1.0, rel=1e-14)  # pairs within {1,2}
        assert values["i_1"] == pytest.approx(0.9607843137254902, rel=1e-14)
        assert values["i_2"] == pytest.approx(1.0, rel=1e-14)
        assert values["i_3"] == 0.0

    def test_sum_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            state = PhaseState(q=rng.normal(size=3), p=rng.normal(size=3))
            i_vals = labelled(conserved_at(state, P3), "i", range(1, 4))
            assert sum(i_vals) == pytest.approx(2.0 * hamiltonian(state, P3), rel=1e-13)

    def test_total_angular_momentum_consistency(self):
        state = PhaseState(q=np.array([1.0, -0.3, 0.4]), p=np.array([0.2, 0.9, -1.1]))
        values = conserved_at(state, P3)
        assert values["c_upper_3"] == pytest.approx(values["c_lower_3"], rel=1e-14)

    def test_labels_cover_full_set(self):
        values = conserved_at(PhaseState(q=np.ones(3), p=np.ones(3)), P3)
        assert list(values) == [
            "energy", "c_upper_2", "c_lower_2", "c_upper_3", "c_lower_3",
            "i_1", "i_2", "i_3",
        ]
        assert all(math.isfinite(v) for v in values.values())


class TestIntegrateOrbit:
    def test_flat_oscillator_returns(self):
        p = ModelParams(lam=0.0, omega=1.0, dim=2)
        state = PhaseState(q=np.array([1.0, 0.0]), p=np.array([0.0, 1.0]))
        traj = integrate_orbit(state, p, t_end=2.0 * math.pi, tol=1e-10, samples=101)
        z0 = np.concatenate([state.q, state.p])
        z1 = np.concatenate([traj.q[-1], traj.p[-1]])
        assert np.linalg.norm(z1 - z0) < 1e-9

    def test_circular_orbit_radius_constant(self):
        c_n = 4.0
        r_min, _ = effective_minimum(EffectivePotentialSpec(P2, c_n))
        state = PhaseState(
            q=np.array([r_min, 0.0]), p=np.array([0.0, math.sqrt(c_n) / r_min])
        )
        traj = integrate_orbit(state, P2, t_end=30.0, tol=1e-10, samples=600)
        radii = np.linalg.norm(traj.q, axis=1)
        assert np.max(np.abs(radii - r_min)) < 1e-8

    def test_bounded_below_threshold(self):
        state = PhaseState(q=np.array([2.0, 1.0, -1.0]), p=np.array([1.5, -1.0, 0.5]))
        energy = hamiltonian(state, P3)
        assert energy < continuum_threshold(P3)
        traj = integrate_orbit(state, P3, t_end=100.0, tol=1e-9, samples=2001)
        omega_eff_sq = 1.0 - 2.0 * P3.lam * energy
        r_turn = math.sqrt(2.0 * energy / omega_eff_sq)
        assert np.max(np.linalg.norm(traj.q, axis=1)) <= r_turn * (1 + 1e-6)

    def test_pointwise_sum_identity_along_orbit(self):
        state = PhaseState(q=np.array([1.2, -0.4, 0.3]), p=np.array([0.2, 0.8, -0.5]))
        traj = integrate_orbit(state, P3, t_end=40.0, tol=1e-10, samples=1001)
        series = conserved_series(traj, P3)
        total = sum(series[f"i_{i}"] for i in (1, 2, 3))
        assert np.max(np.abs(total - 2.0 * series["energy"])) < 1e-12

    def test_conservation_drift_small(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            state = PhaseState(q=rng.uniform(-2, 2, 3), p=rng.uniform(-1.5, 1.5, 3))
            period = estimate_radial_period(state, P3)
            traj = integrate_orbit(state, P3, t_end=10 * period, tol=1e-10, samples=1501)
            series = conserved_series(traj, P3)
            qp = np.max(np.linalg.norm(traj.q, axis=1)) * np.max(
                np.linalg.norm(traj.p, axis=1)
            )
            for vals in series.values():
                denom = abs(vals[0]) if abs(vals[0]) > 1e-10 * qp else qp
                assert np.max(np.abs(vals - vals[0])) / denom < 1e-8

    def test_invalid_inputs(self):
        state = PhaseState(q=np.zeros(3), p=np.zeros(3))
        with pytest.raises(DomainError):
            integrate_orbit(state, P3, t_end=-1.0)
        with pytest.raises(DomainError):
            integrate_orbit(state, P3, t_end=1.0, tol=0.0)
        for t_end in (math.inf, math.nan):
            with pytest.raises(DomainError):
                integrate_orbit(state, P3, t_end=t_end)


class TestRadialPeriod:
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.1])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_half_the_analytic_period(self, lam, dim):
        params = ModelParams(lam=lam, omega=1.0, dim=dim)
        # energy scale: the escape threshold, or a finite stand-in at lam = 0
        scale = continuum_threshold(params) if lam > 0 else 5.0
        rng = np.random.default_rng(dim)
        for fraction in (0.01, 0.3, 0.6, 0.9):
            q = rng.normal(size=dim)
            q *= 0.1 / np.linalg.norm(q)
            u = rng.normal(size=dim)
            u /= np.linalg.norm(u)
            # pick |p| so that H = fraction * scale
            speed = math.sqrt(2.0 * fraction * scale * (1.0 + lam * 0.01) - 0.01)
            state = PhaseState(q=q, p=speed * u)
            energy = hamiltonian(state, params)
            assert energy == pytest.approx(fraction * scale, rel=1e-12)
            assert estimate_radial_period(state, params) == pytest.approx(
                0.5 * analytic_full_period(energy, params), rel=1e-12
            )

    def test_circular_orbit(self):
        c_n, lam = 9.0, 0.05
        p = ModelParams(lam=lam, omega=1.0, dim=2)
        r_min, _ = effective_minimum(EffectivePotentialSpec(p, c_n))
        state = PhaseState(
            q=np.array([r_min, 0.0]), p=np.array([0.0, math.sqrt(c_n) / r_min])
        )
        t_ang = 2.0 * math.pi * (1.0 + lam * r_min**2) * r_min**2 / math.sqrt(c_n)
        half = estimate_radial_period(state, p)
        energy = hamiltonian(state, p)
        assert half == pytest.approx(0.5 * analytic_full_period(energy, p), rel=1e-12)
        assert half == pytest.approx(0.5 * t_ang, rel=1e-12)

    def test_threshold_and_rest_rejected(self):
        p = ModelParams(lam=0.25, omega=1.0, dim=2)  # threshold exactly 2
        at_threshold = PhaseState(q=np.zeros(2), p=np.array([2.0, 0.0]))
        assert hamiltonian(at_threshold, p) == continuum_threshold(p)
        above = PhaseState(q=np.zeros(2), p=np.array([2.0, 0.5]))
        rest = PhaseState(q=np.zeros(2), p=np.zeros(2))
        for state in (at_threshold, above, rest):
            with pytest.raises(DomainError):
                estimate_radial_period(state, p)
        free = ModelParams(lam=0.0, omega=0.0, dim=2)  # no orbit is bounded
        with pytest.raises(DomainError):
            estimate_radial_period(above, free)


class TestStackedIntegration:
    def test_rhs_on_stacked_state(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 3):
            rhs = hamilton_rhs(ModelParams(lam=0.07, omega=1.3, dim=dim))
            orbits = rng.normal(size=(5, 2 * dim))
            stacked = rhs(0.0, orbits.ravel())
            single = np.concatenate([rhs(0.0, z) for z in orbits])
            np.testing.assert_allclose(stacked, single, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_matches_single_orbits(self, dim):
        params = ModelParams(lam=0.05, omega=1.0, dim=dim)
        rng = np.random.default_rng(11 + dim)
        tol = 1e-10
        states, t_ends = [], []
        for t0, periods in ((0.0, 3.0), (-2.0, 5.5), (1.5, 1.2), (10.0, 4.0)):
            state = PhaseState(
                q=rng.uniform(-2.0, 2.0, dim), p=rng.uniform(-1.0, 1.0, dim), t=t0
            )
            states.append(state)
            t_ends.append(t0 + periods * estimate_radial_period(state, params))
        batch = integrate_orbits(states, params, t_ends, tol=tol, samples=301)
        assert len(batch) == len(states)
        samples_only = integrate_orbits(
            states, params, t_ends, tol=tol, samples=301, dense=False
        )
        for traj, plain in zip(batch, samples_only):
            np.testing.assert_array_equal(plain.q, traj.q)
            np.testing.assert_array_equal(plain.p, traj.p)
            with pytest.raises(DomainError):
                plain.phase_point(plain.t[1])
        for state, t_end, traj in zip(states, t_ends, batch):
            alone = integrate_orbit(state, params, t_end, tol=tol, samples=301)
            np.testing.assert_allclose(traj.t, alone.t, rtol=0, atol=1e-12 * abs(t_end))
            assert np.max(np.abs(traj.q - alone.q)) < 10 * tol
            assert np.max(np.abs(traj.p - alone.p)) < 10 * tol
            for time in rng.uniform(state.t, t_end, 7):
                gap = traj.phase_point(time) - alone.phase_point(time)
                assert np.max(np.abs(gap)) < 10 * tol

    def test_invalid_batches(self):
        state = PhaseState(q=np.array([1.0, 0.0]), p=np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            integrate_orbits([state, state], P2, [5.0])
        with pytest.raises(DomainError):
            integrate_orbits([state], P2, [5.0], samples=1)
        # a batch of two would need a step control under the 2.5e-14 floor
        integrate_orbits([state], P2, [1.0], tol=1e-13)
        with pytest.raises(DomainError):
            integrate_orbits([state, state], P2, [1.0, 1.0], tol=1e-13)


def counting_rhs(monkeypatch, after=None):
    """Make classical.hamilton_rhs count the calls of its callable; from call
    number `after` on, the callable returns NaN. A call budget stands in for
    a timeout, so an integrator that never stops fails instead of hanging."""
    calls = [0]
    make_rhs = classical.hamilton_rhs

    def patched(params):
        rhs = make_rhs(params)

        def counted(t, y):
            calls[0] += 1
            if calls[0] > 100_000:
                raise RuntimeError("integration did not stop")
            out = rhs(t, y)
            return out if after is None or calls[0] <= after else np.full_like(out, np.nan)

        return counted

    monkeypatch.setattr(classical, "hamilton_rhs", patched)
    return calls


class TestDormandPrince:
    @staticmethod
    def scipy_rk45(states, params, t_ends, tol, samples, dense):
        """The same stacked, rescaled system through scipy's RK45, with the
        step control integrate_orbits derives from tol."""
        from scipy.integrate import solve_ivp

        n = params.dim
        t0 = np.array([state.t for state in states])
        scale = np.repeat(np.asarray(t_ends) - t0, 2 * n)
        rhs = hamilton_rhs(params)
        control = max(0.1 * tol, classical._CONTROL_FLOOR) / math.sqrt(len(states))
        y0 = np.concatenate([np.concatenate([state.q, state.p]) for state in states])
        return solve_ivp(
            lambda s, y: scale * rhs(s, y),
            (0.0, 1.0),
            y0,
            method="RK45",
            rtol=control,
            atol=control,
            dense_output=dense,
            t_eval=np.linspace(0.0, 1.0, samples),
        )

    @pytest.mark.parametrize("case", ["batch-of-20", "single-dense"])
    def test_matches_scipy_rk45(self, monkeypatch, case):
        rng = np.random.default_rng(29)
        if case == "batch-of-20":
            params, tol, samples, dense = P3, 1e-10, 401, False
            states = [
                PhaseState(q=rng.uniform(-2.5, 2.5, 3), p=rng.uniform(-2.0, 2.0, 3))
                for _ in range(20)
            ]
            t_ends = [3.0 * estimate_radial_period(state, params) for state in states]
        else:
            # a loose tol and a strongly deformed orbit, so that steps get rejected
            params, tol, samples, dense = ModelParams(lam=0.5, omega=1.0, dim=2), 1e-6, 101, True
            states = [PhaseState(q=np.array([3.0, 0.0]), p=np.array([0.0, 0.3]), t=1.5)]
            t_ends = [21.5]
        sol = self.scipy_rk45(states, params, t_ends, tol, samples, dense)
        calls = counting_rhs(monkeypatch)
        trajs = integrate_orbits(states, params, t_ends, tol=tol, samples=samples, dense=dense)
        stats = trajs[0].stats
        assert all(traj.stats is stats for traj in trajs)
        assert stats.nfev == sol.nfev == calls[0]
        # 6 evaluations per attempted step, 2 at the start
        assert stats.nfev == 2 + 6 * (stats.accepted + stats.rejected)
        if dense:
            assert stats.rejected > 0
            assert stats.accepted == len(sol.sol.ts) - 1
        else:
            assert stats.rejected == 0
        n = params.dim
        for i, (state, t_end, traj) in enumerate(zip(states, t_ends, trajs)):
            rows = slice(2 * n * i, 2 * n * (i + 1))
            ref = sol.y[rows].T
            bound = 1e-13 * np.max(np.abs(ref))
            assert np.max(np.abs(np.hstack([traj.q, traj.p]) - ref)) <= bound
            if dense:
                for time in rng.uniform(state.t, t_end, 5):
                    want = sol.sol((time - state.t) / (t_end - state.t))[rows]
                    assert np.max(np.abs(traj.phase_point(time) - want)) <= bound

    @pytest.mark.parametrize("after", [0, 5])
    def test_nan_rhs_raises(self, monkeypatch, after):
        calls = counting_rhs(monkeypatch, after=after)
        state = PhaseState(q=np.array([1.3, 0.2]), p=np.array([-0.1, 0.9]))
        with pytest.raises(ConvergenceError):
            integrate_orbits([state], P2, [10.0], tol=1e-10, samples=11)
        assert calls[0] > after


class TestClosure:
    def test_flat_control(self):
        p = ModelParams(lam=0.0, omega=1.0, dim=2)
        state = PhaseState(q=np.array([1.0, 0.2]), p=np.array([-0.1, 0.9]))
        traj = integrate_orbit(state, p, t_end=4.5 * math.pi, tol=1e-11, samples=3001)
        closed, period = closure_check(traj, tol=1e-6)
        assert closed
        assert abs(period - 2.0 * math.pi) < 1e-5

    def test_deformed_orbit_closes_at_analytic_period(self):
        state = PhaseState(q=np.array([1.3, 0.2]), p=np.array([-0.1, 0.9]))
        p = ModelParams(lam=0.01, omega=1.0, dim=2)
        t_r = estimate_radial_period(state, p)
        traj = integrate_orbit(state, p, t_end=9 * t_r, tol=1e-11, samples=4001)
        closed, period = closure_check(traj, tol=1e-6)
        assert closed
        expected = analytic_full_period(hamiltonian(state, p), p)
        assert period == pytest.approx(expected, abs=1e-6)

    def test_circular_orbit_period(self):
        c_n = 9.0
        lam = 0.05
        p = ModelParams(lam=lam, omega=1.0, dim=2)
        r_min, _ = effective_minimum(EffectivePotentialSpec(p, c_n))
        state = PhaseState(
            q=np.array([r_min, 0.0]), p=np.array([0.0, math.sqrt(c_n) / r_min])
        )
        t_ang = (
            2.0 * math.pi * (1.0 + lam * r_min**2) * r_min**2 / math.sqrt(c_n)
        )
        traj = integrate_orbit(state, p, t_end=2.5 * t_ang, tol=1e-11, samples=4001)
        closed, period = closure_check(traj, tol=1e-6)
        assert closed
        assert period == pytest.approx(t_ang, abs=1e-6)

    def test_unbounded_orbit_reports_open(self):
        p = ModelParams(lam=0.1, omega=1.0, dim=2)
        state = PhaseState(q=np.array([1.0, 0.0]), p=np.array([4.0, 1.0]))
        assert hamiltonian(state, p) > continuum_threshold(p)
        traj = integrate_orbit(state, p, t_end=30.0, tol=1e-9, samples=1001)
        closed, period = closure_check(traj, tol=1e-6)
        assert not closed
        assert period is None

    def test_short_trajectory_rejected(self):
        state = PhaseState(q=np.array([1.3, 0.2]), p=np.array([-0.1, 0.9]))
        traj = integrate_orbit(state, P2, t_end=0.5, tol=1e-9, samples=101)
        with pytest.raises(DomainError):
            closure_check(traj, tol=1e-6)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def bounded_states(draw):
    """A model over six decades of lam, omega and hbar, and a state on it
    with energy up to 0.9 of the escape threshold, starting at a time within
    ten periods of 0."""
    params = ModelParams(
        lam=draw(log_uniform(1e-3, 1e3)),
        omega=draw(log_uniform(1e-3, 1e3)),
        hbar=draw(log_uniform(1e-3, 1e3)),
        dim=draw(st.integers(1, 8)),
    )
    energy = draw(st.floats(1e-3, 0.9)) * continuum_threshold(params)
    omega_eff_sq = params.omega**2 - 2.0 * params.lam * energy
    # |q0| up to the turning radius, where all energy is potential
    radius = draw(st.floats(0.0, 1.0)) * math.sqrt(2.0 * energy / omega_eff_sq)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = rng.normal(size=(2, params.dim))
    speed_sq = 2.0 * energy * (1.0 + params.lam * radius**2) - (params.omega * radius) ** 2
    q = radius * u / np.linalg.norm(u)
    p = math.sqrt(max(speed_sq, 0.0)) * v / np.linalg.norm(v)
    # the start time is given in periods, so that t0 + T rounds no worse than T
    period = 2.0 * estimate_radial_period(PhaseState(q=q, p=p), params)
    return params, PhaseState(q=q, p=p, t=draw(st.floats(-10.0, 10.0)) * period)


class TestExactOrbit:
    def test_flat_limit(self):
        omega = 1.7
        p = ModelParams(lam=0.0, omega=omega, dim=3)
        state = PhaseState(q=np.array([0.5, -1.0, 2.0]), p=np.array([1.0, 0.2, -0.7]))
        t = np.linspace(0.0, 50.0, 997)
        q, mom = exact_orbit(state, p, t)
        c, s = np.cos(omega * t)[:, None], np.sin(omega * t)[:, None]
        np.testing.assert_allclose(q, c * state.q + s * state.p / omega, rtol=0, atol=1e-14)
        np.testing.assert_allclose(mom, c * state.p - s * omega * state.q, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.3])
    def test_returns_after_closed_form_period(self, lam):
        p = ModelParams(lam=lam, omega=1.0, dim=2)
        state = PhaseState(q=np.array([1.3, 0.2]), p=np.array([-0.1, 0.9]), t=1.5)
        period = 2.0 * estimate_radial_period(state, p)
        q, mom = exact_orbit(state, p, [state.t, state.t + period])
        z0 = np.concatenate([state.q, state.p])
        for z in (np.concatenate([q[0], mom[0]]), np.concatenate([q[1], mom[1]])):
            assert np.linalg.norm(z - z0) < 1e-12 * np.linalg.norm(z0)

    def test_escape_energy_rejected(self):
        p = ModelParams(lam=0.25, omega=1.0, dim=2)  # threshold exactly 2
        free = ModelParams(lam=0.0, omega=0.0, dim=2)  # no orbit is bounded
        for params, speed in ((p, 2.0), (p, 2.5), (free, 1.0)):
            state = PhaseState(q=np.zeros(2), p=np.array([speed, 0.0]))
            with pytest.raises(DomainError):
                exact_orbit(state, params, [1.0])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(bounded_states())
    def test_conserved_along_orbit_and_closed(self, case):
        params, state = case
        period = 2.0 * estimate_radial_period(state, params)
        t = state.t + np.linspace(0.0, period, 65)
        q, mom = exact_orbit(state, params, t)
        series = conserved_series(Trajectory(t=t, q=q, p=mom, params=params), params)
        energy = hamiltonian(state, params)
        r_max = np.max(np.linalg.norm(q, axis=1))
        p_max = np.max(np.linalg.norm(mom, axis=1))
        # scale of each constant: H; angular momenta squared; the I_i sum to 2H
        scales = {"energy": energy, "c": (r_max * p_max) ** 2, "i": 2.0 * energy}
        # H, C^(m) and C_(m) for m = 2..N, and I_1..I_N: they hold 2N-1
        # independent constants
        assert len(series) == 3 * params.dim - 1
        for name, values in series.items():
            scale = scales[name.split("_")[0]]
            assert np.max(np.abs(values - values[0])) <= 1e-11 * scale, name
        assert np.linalg.norm(q[-1] - state.q) <= 1e-12 * r_max
        assert np.linalg.norm(mom[-1] - state.p) <= 1e-12 * p_max


class TestCrossCheckIndependence:
    def test_closure_criterion_sees_a_wrong_period(self, monkeypatch):
        true_period = verify.estimate_radial_period
        monkeypatch.setattr(
            verify, "estimate_radial_period", lambda s, p: 1.001 * true_period(s, p)
        )
        result = verify.check_orbit_closure()
        assert not result.passed
        assert result.measured > 0

    def test_integrator_never_reads_exact_orbit(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the exact orbit was read")

        monkeypatch.setattr(classical, "exact_orbit", forbidden)
        monkeypatch.setattr(verify, "exact_orbit", forbidden)
        state = PhaseState(q=np.array([1.3, 0.2]), p=np.array([-0.1, 0.9]))
        period = 2.0 * estimate_radial_period(state, P2)
        (traj,) = integrate_orbits([state], P2, [period], tol=1e-11, samples=2)
        assert np.linalg.norm(traj.q[-1] - state.q) < 1e-8
        assert verify.check_orbit_closure().passed

    def test_global_error_criterion_sees_a_shifted_orbit(self, monkeypatch):
        def shifted(state, params, times):
            q, p = exact_orbit(state, params, times)
            return q + 1e-6, p

        monkeypatch.setattr(verify, "exact_orbit", shifted)
        conservation, global_error = verify.check_classical_conservation()
        assert global_error.name == "classical-global-error"
        assert conservation.passed
        assert not global_error.passed


class TestFunctionalIndependence:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_jacobian_has_full_rank(self, dim):
        # {H, C^(2..N), C_(2..N-1), I_1} are 2N-1 independent functions;
        # the gradient matrix at generic points must have full rank
        params = ModelParams(lam=0.02, omega=1.0, dim=dim)
        rng = np.random.default_rng(99)

        def invariants(z):
            state = PhaseState(q=z[:dim], p=z[dim:])
            values = conserved_at(state, params)
            vals = [hamiltonian(state, params)]
            vals.extend(labelled(values, "c_upper", range(2, dim + 1)))
            vals.extend(labelled(values, "c_lower", range(2, dim)))
            vals.append(values["i_1"])
            return np.array(vals)

        for _ in range(20):
            z = rng.uniform(-2, 2, 2 * dim)
            h = 1e-6
            jac = np.zeros((2 * dim - 1, 2 * dim))
            for j in range(2 * dim):
                dz = np.zeros(2 * dim)
                dz[j] = h
                jac[:, j] = (invariants(z + dz) - invariants(z - dz)) / (2 * h)
            sv = np.linalg.svd(jac, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]
