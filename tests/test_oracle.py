import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdm_oscillator import (
    CartesianEigenfunction,
    ConvergenceError,
    DomainError,
    GridSizeError,
    ModelParams,
    RadialEigenfunction,
    RadialGrid,
    angular_multiplicity,
    default_radial_grid,
    discretize_radial,
    grid_eigen_residual,
    oracle_report,
    solve_generalized_eigen,
)
from pdm_oscillator import oracle, wavefunctions
from pdm_oscillator.oracle import _eigenpairs_near, second_derivative
from pdm_oscillator.verify import check_eigenfunction_residual

P3 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)


def full_grid_residual(f, energy, params, half_width, num_points):
    """|H psi - E psi| / |psi| of a CartesianEigenfunction with psi, its
    Laplacian and |q|^2 formed on the whole N-cube grid, and the size of its
    terms |hbar^2 lap psi| + |omega^2 q^2 psi|, over 2 (1 + lam q^2), plus
    |E psi|, in the same norm."""
    axis = np.linspace(-half_width, half_width, num_points)
    factors = f.factors([axis] * params.dim)
    psi = math.prod(np.ix_(*factors))
    laplacian = sum(
        math.prod(np.ix_(*factors[:i], second_derivative(factor, axis[1] - axis[0]),
                         *factors[i + 1 :]))
        for i, factor in enumerate(factors)
    )
    q_sq = sum(np.ix_(*[axis**2] * params.dim))
    mass = 2.0 * (1.0 + params.lam * q_sq)
    kinetic, potential = -params.hbar**2 * laplacian, params.omega**2 * q_sq * psi
    residual = (kinetic + potential) / mass - energy * psi
    terms = (np.abs(kinetic) + np.abs(potential)) / mass + np.abs(energy * psi)
    trim = (slice(4, -4),) * params.dim
    norm = np.linalg.norm(psi[trim])
    return np.linalg.norm(residual[trim]) / norm, np.linalg.norm(terms[trim]) / norm


class TestRadialGrid:
    def test_validation(self):
        # the inner face may be r = 0, where every default grid starts
        assert RadialGrid(0.0, 10.0, 100).r_min == 0.0
        with pytest.raises(DomainError):
            RadialGrid(-1e-6, 10.0, 100)
        with pytest.raises(DomainError):
            RadialGrid(2.0, 1.0, 100)
        with pytest.raises(DomainError):
            RadialGrid(0.0, math.inf, 100)
        with pytest.raises(DomainError, match="cells must be >= 100"):
            RadialGrid(0.0, 10.0, 99)

    def test_spacing_and_nodes(self):
        # 100 cells of width 0.1 from r = 0: the unknowns at the centres
        # (i + 1/2) h, between the faces i h
        grid = RadialGrid(0.0, 10.0, 100)
        assert grid.spacing == 0.1
        centres = discretize_radial(P3, 0, grid).nodes
        assert len(centres) == 100
        np.testing.assert_allclose(centres, (np.arange(100) + 0.5) * 0.1, rtol=1e-15)
        assert centres[0] == 0.05 and centres[-1] == pytest.approx(9.95, rel=1e-15)

    def test_refinement_halves_spacing(self):
        # each cell split in two: every centre of the grid lies on a face of
        # its refinement, midway between two of its centres
        grid = RadialGrid(0.0, 10.0, 101)
        fine = grid.refined()
        assert fine.cells == 202
        assert fine.spacing == pytest.approx(grid.spacing / 2.0, rel=1e-15)
        assert fine.r_min == grid.r_min and fine.r_max == grid.r_max
        coarse_nodes = discretize_radial(P3, 0, grid).nodes
        fine_nodes = discretize_radial(P3, 0, fine).nodes
        np.testing.assert_allclose(0.5 * (fine_nodes[::2] + fine_nodes[1::2]), coarse_nodes,
                                   rtol=1e-14)

    @pytest.mark.parametrize("lam", [0.0, 0.02, 1e8])
    def test_default_cells_follow_the_top_level(self, lam):
        # one rule: C cells per shortest local wavelength 2 pi/sqrt(2 top) of
        # the top level, across the whole box
        p = ModelParams(lam=lam, dim=3)
        for k_max in (0, 2, 40):
            grid = default_radial_grid(p, 2, k_max)
            nu = 2 * k_max + 2 + 1.5
            top = min(nu, 1.0 / (2.0 * lam)) if lam else nu
            width = 2.0 * math.pi / math.sqrt(2.0 * top)
            assert grid.r_min == 0.0
            assert grid.cells == math.ceil(oracle._CELLS_PER_WAVELENGTH * grid.r_max / width)


class TestDiscretization:
    def test_flat_one_dimensional_reduces_to_textbook(self):
        # lam = 0, N = 1: -(hbar^2/2) phi'' + (omega^2/2) r^2 phi at the cell
        # centres; the ghost u_0 = (-1)^l u_1 makes the origin face flux-free
        # for even l and doubles its flux for odd l
        p = ModelParams(lam=0.0, omega=1.0, hbar=1.0, dim=1)
        grid = RadialGrid(0.0, 10.0, 500)
        for l in (0, 1):
            op = discretize_radial(p, l, grid)
            h, r = grid.spacing, op.nodes
            np.testing.assert_allclose(r, (np.arange(500) + 0.5) * h, rtol=1e-15)
            assert np.allclose(op.offdiag, -0.5 / h**2)
            assert np.allclose(op.diag[1:], 1.0 / h**2 + 0.5 * r[1:] ** 2)
            assert op.diag[0] == pytest.approx((0.5 + l) / h**2 + 0.5 * r[0] ** 2, rel=1e-14)
            assert np.all(op.weight == 1.0)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_no_flux_through_the_origin(self, dim):
        # for N >= 2, p = r^(N-1)/2 vanishes at r = 0: the first row is the
        # same for every parity of l, less the centrifugal term
        grid = RadialGrid(0.0, 10.0, 200)
        p = ModelParams(lam=0.02, dim=dim)
        even, odd = discretize_radial(p, 0, grid), discretize_radial(p, 1, grid)
        r = 0.5 * grid.spacing
        centrifugal = (dim - 1) / (2.0 * r**2) * r ** (dim - 1)
        assert odd.diag[0] - centrifugal == pytest.approx(even.diag[0], rel=1e-12)

    def test_weight_matches_measure(self):
        op = discretize_radial(P3, 2, RadialGrid(1e-6, 8.0, 300))
        expected = (1.0 + P3.lam * op.nodes**2) * op.nodes**2
        assert np.allclose(op.weight, expected, rtol=1e-14)

    def test_rejects_negative_l(self):
        with pytest.raises(DomainError):
            discretize_radial(P3, -1, RadialGrid(1e-6, 8.0, 300))


class TestGeneralizedEigen:
    def test_flat_oscillator_levels(self):
        p = ModelParams(lam=0.0, omega=1.0, hbar=1.0, dim=3)
        op = discretize_radial(p, 0, default_radial_grid(p, 0, 2))
        values = solve_generalized_eigen(op, 3)
        assert values == pytest.approx([1.5, 3.5, 5.5], abs=2e-4)

    def test_count_bound(self):
        op = discretize_radial(P3, 0, RadialGrid(1e-6, 8.0, 300))
        with pytest.raises(DomainError):
            solve_generalized_eigen(op, op.size())

    def test_nonpositive_weight_rejected(self):
        op = discretize_radial(P3, 0, RadialGrid(1e-6, 8.0, 300))
        bad = type(op)(
            diag=op.diag,
            offdiag=op.offdiag,
            weight=np.zeros_like(op.weight),
            nodes=op.nodes,
        )
        with pytest.raises(DomainError):
            solve_generalized_eigen(bad, 2)

    @pytest.mark.parametrize("routine", ["stebz", "stein"])
    def test_lapack_failure_is_convergence_error(self, monkeypatch, routine):
        # info > 0: not converged; info < 0: an argument LAPACKE rejected
        stebz, stein = oracle._lapack()
        op = discretize_radial(P3, 0, RadialGrid(1e-6, 8.0, 300))
        for info in (1, -6):
            failing = lambda *args: info
            binding = (failing, stein) if routine == "stebz" else (stebz, failing)
            monkeypatch.setattr(oracle, "_lapack", lambda: binding)
            with pytest.raises(ConvergenceError, match=f"{routine} info={info}"):
                if routine == "stebz":
                    solve_generalized_eigen(op, 2)
                else:
                    _eigenpairs_near(op, [1.5, 3.5])

    def test_stebz_finding_too_few_is_convergence_error(self, monkeypatch):
        stebz, stein = oracle._lapack()

        def one_short(*args):
            info = stebz(*args)
            args[10]._obj.value -= 1  # m, passed by reference
            return info

        monkeypatch.setattr(oracle, "_lapack", lambda: (one_short, stein))
        op = discretize_radial(P3, 0, RadialGrid(1e-6, 8.0, 300))
        with pytest.raises(ConvergenceError, match="stebz found 2 of 3 eigenvalues"):
            solve_generalized_eigen(op, 3)

    def test_malformed_operator_rejected_before_lapack(self):
        op = discretize_radial(P3, 0, RadialGrid(0.0, 8.0, 300))
        short = oracle.DiscretizedOperator(
            diag=op.diag, offdiag=op.offdiag[:1], weight=op.weight[:1], nodes=op.nodes
        )
        with pytest.raises(DomainError, match="off-diagonal"):
            solve_generalized_eigen(short, 2)

    @pytest.mark.parametrize("n", [100, 1342, 20000])
    def test_binding_matches_scipy(self, n):
        # the binding against scipy's own LAPACK on a random symmetric
        # tridiagonal with entries in (-1, 1), so the reduction is exact: unit
        # weight, and a scale of 1 (largest entry in [1/2, 1))
        from scipy.linalg import eigh_tridiagonal
        from scipy.linalg.lapack import dstein

        rng = np.random.default_rng(n)
        d, e = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - 1)
        op = oracle.DiscretizedOperator(
            diag=d, offdiag=e, weight=np.ones(n), nodes=np.arange(n)
        )
        assert oracle._reduced(op)[2] == 1.0
        count = min(n // 4, 40)
        values = solve_generalized_eigen(op, count)
        ref = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, count - 1))
        assert np.array_equal(values, ref)

        _, vectors = _eigenpairs_near(op, values)
        isplit = np.zeros(n, dtype=np.int32)
        isplit[0] = n
        ref_vectors, info = dstein(d, e, values, np.ones(n, dtype=np.int32), isplit)
        assert info == 0
        signs = np.sign(np.sum(vectors * ref_vectors, axis=0))
        assert np.max(np.abs(signs * vectors - ref_vectors)) <= 100 * np.finfo(float).eps

    def test_eigenvector_node_structure(self):
        grid = default_radial_grid(P3, 0, 3)
        shifts = solve_generalized_eigen(discretize_radial(P3, 0, grid), 4)
        _, vectors = _eigenpairs_near(discretize_radial(P3, 0, grid.refined()), shifts)
        for j in range(4):
            v = vectors[:, j]
            core = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
            assert int(np.sum(np.diff(np.sign(core)) != 0)) == j

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        lam=st.just(0.0) | st.floats(1e-4, 0.5),
        dim=st.integers(1, 4),
        l=st.integers(0, 3),
        k_max=st.integers(0, 3),
    )
    def test_inverse_iteration_matches_bisection(self, lam, dim, l, k_max):
        # the refined grid's eigenpairs come from stein at the given grid's
        # eigenvalues; they must be the ones bisection finds on the refined grid
        from scipy.linalg import eigh_tridiagonal

        p = ModelParams(lam=lam, omega=1.0, hbar=1.0, dim=dim)
        grid = default_radial_grid(p, l, k_max)
        shifts = solve_generalized_eigen(discretize_radial(p, l, grid), k_max + 1)
        op = discretize_radial(p, l, grid.refined())
        values, vectors = _eigenpairs_near(op, shifts)

        inv_sqrt_w = 1.0 / np.sqrt(op.weight)
        ref_values, ref_vectors = eigh_tridiagonal(
            op.diag * inv_sqrt_w**2,
            op.offdiag * inv_sqrt_w[:-1] * inv_sqrt_w[1:],
            select="i",
            select_range=(0, k_max),
        )
        assert values == pytest.approx(ref_values, rel=1e-9, abs=0)
        for v, ref in zip(vectors.T, ref_vectors.T):
            sign = np.sign(v @ ref)
            assert np.max(np.abs(sign * v - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_equal_shifts_rejected(self):
        # stein orthogonalizes the second vector against the first, so it
        # lands on the next eigenpair, which lies no nearer its own shift
        grid = default_radial_grid(P3, 0, 1)
        e0 = solve_generalized_eigen(discretize_radial(P3, 0, grid), 1)[0]
        with pytest.raises(ConvergenceError):
            _eigenpairs_near(discretize_radial(P3, 0, grid.refined()), [e0, e0])

    def test_traced_peak_is_stein_block_and_a_chunk(self):
        # Rayleigh quotients and the returned vectors are formed on stein's
        # block in place, a chunk of columns at a time: the traced peak
        # (numpy buffers included) stays near one block
        grid = default_radial_grid(P3, 0, 40)
        shifts = solve_generalized_eigen(discretize_radial(P3, 0, grid), 41)
        op = discretize_radial(P3, 0, grid.refined())
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            values, vectors = _eigenpairs_near(op, shifts)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert vectors.shape == (op.size(), 41)
        assert peak <= 2.1 * vectors.nbytes

    def test_one_bisection_per_l(self, monkeypatch):
        # the given grid is bisected, and the refined grid gets one inverse
        # iteration at those eigenvalues: 3 + 3 LAPACK calls for l <= 2
        calls = {"stebz": 0, "stein": 0}

        def counted(name, routine):
            def wrapper(*args):
                calls[name] += 1
                return routine(*args)

            return wrapper

        stebz, stein = oracle._lapack()
        binding = (counted("stebz", stebz), counted("stein", stein))
        monkeypatch.setattr(oracle, "_lapack", lambda: binding)
        oracle_report(P3, l_max=2, k_max=2)
        assert calls == {"stebz": 3, "stein": 3}


class TestOracleReport:
    def test_flat_baseline(self):
        p = ModelParams(lam=0.0, omega=1.0, hbar=1.0, dim=3)
        report = oracle_report(p, l_max=2, k_max=2)
        assert report["energy"] == pytest.approx(1.0 * (report["n"] + 1.5), rel=1e-5)
        assert report["rel_error"].max() < 1e-5

    def test_degenerate_multiplet(self):
        report = oracle_report(P3, l_max=2, k_max=1)
        by_kl = {
            (int(k), int(l)): e
            for k, l, e in zip(report["k"], report["l"], report["energy"])
        }
        rel = abs(by_kl[(1, 0)] - by_kl[(0, 2)]) / by_kl[(0, 2)]
        assert rel < 1e-5

    def test_second_order_convergence(self):
        report = oracle_report(P3, l_max=1, k_max=1)
        orders = report["convergence_order"]
        orders = orders[np.isfinite(orders)]
        assert np.all(np.abs(orders - 2.0) <= 0.2)

    def test_no_boundary_flags_on_default_grid(self):
        report = oracle_report(P3, l_max=1, k_max=1)
        assert np.all(report["boundary_contaminated"] == 0.0)

    def test_cramped_box_flags_states(self):
        # squeezing the box leaves visible mass at the wall for excited states
        grid = RadialGrid(1e-6, 3.2, 400)
        report = oracle_report(P3, l_max=0, k_max=2, grid=grid)
        assert report["boundary_contaminated"].max() == 1.0

    def test_energies_below_threshold(self):
        report = oracle_report(P3, l_max=2, k_max=2)
        assert np.all(report["gap_to_threshold"] > 0)

    def test_dim_one_reports_only_its_parity_sectors(self):
        # dim 1 has states at l = 0 and 1 only; the rows kept at l_max = 2 are
        # those of l_max = 1 on the same box (at hbar = omega = 1 the grid's
        # units are the model's), bit for bit
        p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=1)
        report = oracle_report(p, l_max=2, k_max=1)
        kept = oracle_report(p, l_max=1, k_max=1, grid=default_radial_grid(p, 2, 1))
        assert sorted(set(report["l"])) == [0.0, 1.0]
        assert list(report) == list(kept)
        for got, want in zip(report.values(), kept.values()):
            np.testing.assert_array_equal(got, want)

    def test_schema_extends_spectrum_table(self):
        report = oracle_report(P3, l_max=0, k_max=0)
        # keyword order sets the artifact's header: the five spectrum columns,
        # then the oracle's six
        assert list(report) == [
            "n", "energy", "degeneracy", "gap_to_threshold", "residual",
            "k", "l", "closed_form", "rel_error", "convergence_order", "boundary_contaminated",
        ]
        assert list(report) == list(report.to_json_rows()[0])


class TestCellsFromOrigin:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("lam", [0.0, 0.02])
    def test_richardson_error_falls_as_h4(self, dim, lam):
        # with no inner cutoff to set a floor, the extrapolated error of each
        # state (l <= 2, k <= 2) falls 2^4 = 16 times when the cells double;
        # 250 and 500 cells keep every error above 4e-11, clear of rounding
        p = ModelParams(lam=lam, dim=dim)
        box = default_radial_grid(p, 2, 2)
        coarse, fine = (
            oracle_report(p, 2, 2, RadialGrid(box.r_min, box.r_max, cells))["rel_error"]
            for cells in (250, 500)
        )
        np.testing.assert_allclose(coarse / fine, 16.0, rtol=0.15)

    def test_uniform_accuracy_in_k(self):
        # the default cell count follows the top level, so the levels up to
        # k = 40 (n = 80) are as accurate as the lowest
        report = oracle_report(P3, l_max=0, k_max=40)
        assert len(report["n"]) == 41
        assert report["rel_error"].max() <= 1e-8

    def test_vector_bound_before_any_operator(self, monkeypatch):
        # the refined eigenvector block is bounded before the first operator
        # is assembled: at k = 999 the default grid passes 2^24 / 2000 cells
        def unreachable(*args, **kwargs):
            raise AssertionError("discretize_radial was called")

        monkeypatch.setattr(oracle, "discretize_radial", unreachable)
        with pytest.raises(GridSizeError, match="1000 levels allow at most 8388 cells, got"):
            oracle_report(P3, l_max=0, k_max=999)

    def test_four_cells_per_level_before_any_eigensolve(self, monkeypatch):
        def unreachable():
            raise AssertionError("the LAPACK binding was called")

        monkeypatch.setattr(oracle, "_lapack", unreachable)
        with pytest.raises(GridSizeError, match=r"count must be in \[1, 100\] for 400 cells"):
            oracle_report(P3, l_max=0, k_max=100, grid=RadialGrid(0.0, 12.0, 400))

    @pytest.mark.parametrize("lam", [0.0, 10.0])
    def test_box_holds_the_top_level(self, lam):
        # the wall lies 4.5 Gaussian widths beyond the outer turning radius
        # of the top level, with the width bounded by the oscillator at
        # frequency sqrt(1 - 2 g top) or by E >= top/2: at g = 0 it is
        # sqrt(2 nu) + 4.5; at g = 10, top = 1/(2g) and the bound is sqrt(2 nu/top)
        for l, k_max in ((0, 0), (2, 2), (0, 40)):
            nu = 2 * k_max + l + 1.5
            width = 1.0 if lam == 0 else math.sqrt(2.0 * nu * 2.0 * lam)
            box = default_radial_grid(ModelParams(lam=lam, dim=3), l, k_max)
            assert box.r_max == pytest.approx(width * (math.sqrt(2.0 * nu) + 4.5), rel=1e-15)


class TestScaleFree:
    def test_reads_no_closed_form(self, monkeypatch):
        # the box, the assembly and both eigensolves run with the closed form
        # and the fixed-point levels unreadable; oracle_report reads the
        # closed form for the table's comparison columns
        from pdm_oscillator import spectrum

        class ClosedFormRead(Exception):
            pass

        def unreadable(*args, **kwargs):
            raise ClosedFormRead

        for module, name in [(oracle, "energy_closed_form"), (spectrum, "energy_closed_form"),
                             (spectrum, "energy_implicit")]:
            monkeypatch.setattr(module, name, unreadable)
        grid = default_radial_grid(P3, 2, 2)
        shifts = solve_generalized_eigen(discretize_radial(P3, 2, grid), 3)
        values, _ = _eigenpairs_near(discretize_radial(P3, 2, grid.refined()), shifts)
        assert np.all(np.diff(values) > 0)
        with pytest.raises(ClosedFormRead):
            oracle_report(P3, l_max=2, k_max=2)

    def test_one_box_per_table(self, monkeypatch):
        boxes = []
        sized = oracle.default_radial_grid

        def recording(params, l, k_max):
            boxes.append((l, k_max))
            return sized(params, l, k_max)

        monkeypatch.setattr(oracle, "default_radial_grid", recording)
        oracle_report(P3, l_max=2, k_max=1)
        assert boxes == [(2, 1)]

    @pytest.mark.parametrize(
        "lam,hbar,omega,g",
        [(0.0, 1e200, 1e-200, 0.0), (1e-300, 1e200, 1e-200, 1e100), (1e300, 1e-200, 1e200, 1e-100)],
    )
    def test_g_where_hbar_over_omega_leaves_the_doubles(self, lam, hbar, omega, g):
        # hbar/omega overflows or underflows, g = lam hbar/omega does not
        scaled = oracle._dimensionless(ModelParams(lam=lam, omega=omega, hbar=hbar, dim=3))
        assert scaled.lam == pytest.approx(g, rel=1e-15, abs=0)
        assert scaled.hbar == scaled.omega == 1.0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        log_g=st.none() | st.floats(math.log(1e-30), math.log(1e8)),
        log_omega=st.floats(math.log(1e-100), math.log(1e100)),
        log_hbar=st.floats(math.log(1e-100), math.log(1e100)),
        dim=st.integers(1, 8),
        l=st.integers(0, 1),
        k=st.integers(0, 1),
    )
    def test_only_g_reaches_the_grid(self, log_g, log_omega, log_hbar, dim, l, k):
        # lam is 0 or log-uniform with g = lam hbar/omega <= 1e8: the table is
        # the one at ModelParams(lam=g, dim=N), its energies times hbar omega
        omega, hbar = math.exp(log_omega), math.exp(log_hbar)
        lam = 0.0 if log_g is None else math.exp(log_g) * omega / hbar
        p = ModelParams(lam=lam, omega=omega, hbar=hbar, dim=dim)
        g = ModelParams(lam=lam * (hbar / omega), dim=dim)
        box = default_radial_grid(p, l, k)
        grid = RadialGrid(box.r_min, box.r_max, 400)
        report, scaled = oracle_report(p, l, k, grid), oracle_report(g, l, k, grid)
        assert np.all(report["rel_error"] < 1e-4)
        for name in ("rel_error", "convergence_order"):
            np.testing.assert_array_equal(report[name], scaled[name])
        expected = hbar * omega * scaled["energy"]
        assert np.all(np.abs(report["energy"] - expected) <= 2 * np.spacing(expected))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        log_g=st.none() | st.floats(math.log(1e-30), math.log(1e8)),
        log_omega=st.floats(math.log(1e-100), math.log(1e100)),
        log_hbar=st.floats(math.log(1e-100), math.log(1e100)),
        dim=st.integers(1, 8),
    )
    def test_twin_at_four_lam_and_omega_scales_the_energies_bit_for_bit(
        self, log_g, log_omega, log_hbar, dim
    ):
        # (lam, omega) -> (4 lam, 4 omega) keeps g and the grid, and
        # multiplies hbar omega, and with it every energy column, by 4
        omega, hbar = math.exp(log_omega), math.exp(log_hbar)
        lam = 0.0 if log_g is None else math.exp(log_g) * omega / hbar
        report = oracle_report(ModelParams(lam=lam, omega=omega, hbar=hbar, dim=dim), 2, 2)
        twin = oracle_report(ModelParams(lam=4 * lam, omega=4 * omega, hbar=hbar, dim=dim), 2, 2)
        assert list(twin) == list(report)
        for name, values in report.items():
            factor = 4.0 if name in ("energy", "gap_to_threshold", "residual", "closed_form") else 1.0
            np.testing.assert_array_equal(twin[name], factor * np.asarray(values, dtype=float))


def radial_misalignment(dim, lam, l, k_max=3):
    """1 - cos between stein's refined vectors and the closed-form radial
    functions of k = 0..k_max, and its bound, at hbar = omega = 1.

    The cosine is taken in the B-weighted inner product at the cell
    centres: stein's z is B^(1/2) phi. The three-point stencil leaves an
    error of about (kappa h)^2/12 in a vector, kappa = sqrt(2 E) its largest
    local wavenumber, at the origin; 1 - cos is half the square of that
    error's part across the vector, about (kappa h)^4/288, so (kappa h)^4
    bounds it with room for the constant. h is the refined grid's spacing.
    """
    p = ModelParams(lam=lam, dim=dim)
    grid = default_radial_grid(p, l, k_max)
    energies = solve_generalized_eigen(discretize_radial(p, l, grid), k_max + 1)
    op = discretize_radial(p, l, grid.refined())
    _, z = _eigenpairs_near(op, energies)
    closed = np.sqrt(op.weight)[:, None] * np.stack(
        [RadialEigenfunction.from_quantum_numbers(k, l, p)(op.nodes) for k in range(k_max + 1)],
        axis=1,
    )
    cos = np.abs(np.einsum("ij,ij->j", z, closed))
    cos /= np.linalg.norm(z, axis=0) * np.linalg.norm(closed, axis=0)
    return 1.0 - cos, (2.0 * energies * grid.refined().spacing**2) ** 2


class TestRadialEigenvectors:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(1, 8),
        lam=st.sampled_from([0.0, 0.02, 0.3]) | st.floats(0.0, 0.3),
        l=st.integers(0, 3),
    )
    def test_closed_form_matches_the_oracle_vectors(self, dim, lam, l):
        assume(angular_multiplicity(l, dim))
        miss, bound = radial_misalignment(dim, lam, l)
        assert np.all(miss <= bound), (miss, bound)

    @pytest.mark.parametrize("mutation", ["laguerre-parameter", "flat-width"])
    def test_catches_a_wrong_closed_form(self, monkeypatch, mutation):
        if mutation == "laguerre-parameter":  # off by one
            monkeypatch.setattr(RadialEigenfunction, "laguerre_parameter",
                                property(lambda f: f.l + f.params.dim / 2.0))
        else:  # beta = sqrt(omega/hbar), the width at lam = 0
            level = wavefunctions._level
            monkeypatch.setattr(wavefunctions, "_level",
                                lambda n, p: (level(n, p)[0], math.sqrt(p.omega / p.hbar)))
        miss, bound = radial_misalignment(3, 0.02, 1)
        assert np.any(miss > bound)


class TestSecondDerivative:
    def test_matches_analytic_on_smooth_function(self):
        x = np.linspace(-3, 3, 601)
        h = x[1] - x[0]
        d2 = second_derivative(np.sin(x), h)
        interior = slice(4, -4)
        # error is rounding-limited at ~eps/h^2, far below truncation needs
        assert np.max(np.abs(d2[interior] + np.sin(x)[interior])) < 5e-11

    @pytest.mark.parametrize("block", [1, 7, 40, 1 << 16], ids=lambda b: f"block{b}")
    @pytest.mark.parametrize("shape", [(11, 13), (6, 3)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_edges_match_zero_padded_stencil(self, block, shape, axis):
        # applied line by line along `axis` of a 2-D sample array, the 1-D
        # stencil gives the bits of the zero-padded 2-D stencil, summed term
        # by term in coefficient order, edges included; an axis shorter than
        # the stencil reads padding at both ends. The array is a view whose
        # rows lie `block` values apart beyond their length, so the lines
        # along axis 0 reach the stencil as strided views
        values = np.random.default_rng(7).standard_normal(shape)
        buffer = np.zeros((shape[0], shape[1] + block))
        buffer[:, : shape[1]] = values
        view = buffer[:, : shape[1]]
        pad = [(0, 0), (0, 0)]
        pad[axis] = (4, 4)
        padded = np.pad(values, pad)
        expected = np.zeros(shape)
        for j, c in enumerate(oracle._D2_COEFFS):
            expected += c * np.take(padded, range(j, j + shape[axis]), axis=axis)
        expected /= 0.3**2
        np.testing.assert_array_equal(
            np.apply_along_axis(second_derivative, axis, view, 0.3), expected
        )

    @pytest.mark.parametrize("size", [6, 11, 1501], ids=lambda n: f"len{n}")
    def test_samples_match_zero_padded_stencil(self, size):
        # the residual trims the four entries at each end, but direct callers
        # see them: they hold the stencil applied to the zero-padded samples,
        # summed term by term in coefficient order; samples shorter than the
        # stencil read padding at both ends
        values = np.random.default_rng(7).standard_normal(size)
        padded = np.pad(values, 4)
        expected = np.zeros(size)
        for j, c in enumerate(oracle._D2_COEFFS):
            expected += c * padded[j : j + size]
        expected /= 0.3**2
        np.testing.assert_array_equal(second_derivative(values, 0.3), expected)


class TestGridResidual:
    def test_three_dimensional_state(self):
        f = CartesianEigenfunction.from_occupations((1, 1, 0), P3)
        res = grid_eigen_residual(
            f, f.energy, P3, half_width=9.0 / f.beta, num_points=160
        )
        assert res < 1e-6

    @pytest.mark.parametrize(
        "occupations, num_points, bound",
        [((2, 1), 501, 0.5), ((1, 1, 0), 160, 0.1)],
        ids=["dim2", "dim3"],
    )
    def test_traced_peak_is_a_slab_not_a_grid(self, occupations, num_points, bound):
        # the residual is summed slab by slab from 1-D terms: the traced peak
        # (numpy buffers included) is a fraction of one grid-sized array,
        # where forming psi, its Laplacian and the mass on the grid took 3
        p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=len(occupations))
        f = CartesianEigenfunction.from_occupations(occupations, p)
        grid_array = 8 * num_points ** p.dim
        tracemalloc.start()
        try:
            res = grid_eigen_residual(
                f, f.energy, p, half_width=9.0 / f.beta, num_points=num_points
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res < 1e-6
        assert peak <= bound * grid_array

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(1, 3),
        lam=st.just(0.0) | st.floats(math.log(1e-4), math.log(0.5)).map(math.exp),
        data=st.data(),
        shift=st.sampled_from([0.0, 1e-4]),
        width=st.floats(3.0, 10.0),
        slab_points=st.sampled_from([oracle._SLAB_POINTS, 100, 1]),
    )
    @example(dim=1, lam=0.02, data=None, shift=0.0, width=9.5, slab_points=oracle._SLAB_POINTS)
    @example(dim=2, lam=0.02, data=None, shift=1e-4, width=9.5, slab_points=oracle._SLAB_POINTS)
    def test_slabs_match_full_grid(self, dim, lam, data, shift, width, slab_points):
        # against the residual formed on the whole grid. Slabs of 100 points
        # and most drawn sizes leave a shorter last slab; the explicit
        # examples are 20,011 points at N = 1 (two slabs, the second of
        # 3,619 rows) and 333^2 at N = 2 (slabs of 50 rows, the last of 25)
        if data is None:
            occupations, num_points = (3,) * dim, (20_011, 333)[dim - 1]
        else:
            occupations = data.draw(st.tuples(*[st.integers(0, 3)] * dim))
            num_points = data.draw(st.integers(11, (2_000, 300, 60)[dim - 1]))
        p = ModelParams(lam=lam, omega=1.3, hbar=0.8, dim=dim)
        f = CartesianEigenfunction.from_occupations(occupations, p)
        energy = f.energy * (1 + shift)
        grid = dict(half_width=width / f.beta, num_points=num_points)
        with mock.patch.object(oracle, "_SLAB_POINTS", slab_points):
            res = grid_eigen_residual(f, energy, p, **grid)
        ref, scale = full_grid_residual(f, energy, p, **grid)
        # a rounding per term and point, and the sums of squares
        eps = np.finfo(float).eps
        assert abs(res - ref) <= eps * (2 * (dim + 2) * scale + (num_points - 8) ** dim * ref)

    def test_wrong_energy_or_width_fails(self):
        # the (2,1) state on the grid of the eigenfunction-residual check:
        # the true level passes, a level off by 1e-4 and the flat width fail
        p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=2)
        f = CartesianEigenfunction.from_occupations((2, 1), p)
        flat = CartesianEigenfunction.from_occupations((2, 1), ModelParams(lam=0.0, dim=2))
        grid = dict(half_width=9.5 / f.beta, num_points=501)
        energy = f.energy
        assert grid_eigen_residual(f, energy, p, **grid) < 1e-6
        assert grid_eigen_residual(f, energy * (1 + 1e-4), p, **grid) > 1e-6
        assert grid_eigen_residual(flat, energy, p, **grid) > 1e-6

    @pytest.mark.parametrize(
        "occupations, dim, half_width, num_points",
        [
            ((1, 0), 3, 5.0, 20),
            ((1,), 1, 5.0, 8),
            ((1,), 1, 5.0, 1),
            ((1,), 1, 0.0, 20),
            ((1,), 1, -5.0, 20),
            ((1,), 1, math.inf, 20),
            ((1,), 1, 5.0, 9),
        ],
        ids=["dimension-mismatch", "8-points", "1-point", "zero-width", "negative-width",
             "infinite-width", "odd-state-at-9-points"],
    )
    def test_bad_input_rejected(self, occupations, dim, half_width, num_points):
        # at 9 points the odd state vanishes on the one point inside the frame
        f = CartesianEigenfunction.from_occupations(
            occupations, ModelParams(lam=0.02, dim=len(occupations))
        )
        p = ModelParams(lam=0.02, dim=dim)
        with pytest.raises(DomainError):
            grid_eigen_residual(f, f.energy, p, half_width, num_points)

    def test_stencil_runs_on_axis_factors_only(self, monkeypatch):
        # the work of the eigenfunction-residual check: one 1-D stencil per
        # axis factor, 4 states at N = 1 on 1501 points and 4 at N = 2 on 501
        shapes = []
        stencil = oracle.second_derivative

        def recording(values, *args, **kwargs):
            shapes.append(np.shape(values))
            return stencil(values, *args, **kwargs)

        monkeypatch.setattr(oracle, "second_derivative", recording)
        assert check_eigenfunction_residual().passed
        assert len(shapes) == 12
        assert all(len(shape) == 1 for shape in shapes)
        assert sum(math.prod(shape) for shape in shapes) == 10_012

    def test_independent_of_blas_threads(self):
        # the norms are pairwise numpy sums, not a BLAS dot that splits its
        # sum across threads
        script = (
            "from pdm_oscillator.verify import check_eigenfunction_residual\n"
            "print(repr(check_eigenfunction_residual().details))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
