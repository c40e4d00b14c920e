import numpy as np
import pytest

from pdm_oscillator import (
    CartesianEigenfunction,
    ConvergenceError,
    DomainError,
    ModelParams,
    RadialGrid,
    default_radial_grid,
    discretize_radial,
    grid_eigen_residual,
    oracle_report,
    solve_generalized_eigen,
)
from pdm_oscillator.oracle import second_derivative

P3 = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)


class TestRadialGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialGrid(r_min=0.0, r_max=10.0)
        with pytest.raises(DomainError):
            RadialGrid(r_min=2.0, r_max=1.0)
        with pytest.raises(DomainError):
            RadialGrid(r_min=1e-6, r_max=10.0, num_points=50)

    def test_spacing_and_nodes(self):
        grid = RadialGrid(r_min=1e-6, r_max=10.0, num_points=101)
        nodes = grid.nodes()
        assert len(nodes) == 101
        assert nodes[0] == 1e-6
        assert nodes[-1] == 10.0
        assert grid.spacing == pytest.approx((10.0 - 1e-6) / 100)

    def test_refinement_halves_spacing(self):
        grid = RadialGrid(r_min=1e-6, r_max=10.0, num_points=101)
        fine = grid.refined()
        assert fine.spacing == pytest.approx(grid.spacing / 2.0)
        assert fine.r_min == grid.r_min and fine.r_max == grid.r_max


class TestDiscretization:
    def test_flat_one_dimensional_reduces_to_textbook(self):
        # lam = 0, N = 1, l = 0: -(hbar^2/2) phi'' + (omega^2/2) r^2 phi
        p = ModelParams(lam=0.0, omega=1.0, hbar=1.0, dim=1)
        grid = RadialGrid(r_min=1e-9, r_max=10.0, num_points=500)
        op = discretize_radial(p, 0, grid)
        h = grid.spacing
        assert np.allclose(op.offdiag, -0.5 / h**2)
        interior = op.diag[1:]
        r = op.nodes[1:]
        assert np.allclose(interior, 1.0 / h**2 + 0.5 * r**2)
        assert np.allclose(op.weight[1:], 1.0)

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
            l=op.l,
            params=op.params,
        )
        with pytest.raises(DomainError):
            solve_generalized_eigen(bad, 2)

    @pytest.mark.parametrize("return_vectors", [False, True])
    def test_lapack_failure_is_convergence_error(self, monkeypatch, return_vectors):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("stebz (eigh_tridiagonal) err 1")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        op = discretize_radial(P3, 0, RadialGrid(1e-6, 8.0, 300))
        with pytest.raises(ConvergenceError, match="stebz"):
            solve_generalized_eigen(op, 2, return_vectors=return_vectors)

    def test_eigenvector_node_structure(self):
        op = discretize_radial(P3, 0, default_radial_grid(P3, 0, 3))
        _, vectors = solve_generalized_eigen(op, 4, return_vectors=True)
        for j in range(4):
            v = vectors[:, j]
            core = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
            assert int(np.sum(np.diff(np.sign(core)) != 0)) == j


class TestOracleReport:
    def test_flat_baseline(self):
        p = ModelParams(lam=0.0, omega=1.0, hbar=1.0, dim=3)
        report = oracle_report(p, l_max=2, k_max=2)
        assert report.energy == pytest.approx(1.0 * (report.n + 1.5), rel=1e-5)
        assert report.extra_columns["rel_error"].max() < 1e-5

    def test_degenerate_multiplet(self):
        report = oracle_report(P3, l_max=2, k_max=1)
        cols = report.extra_columns
        by_kl = {
            (int(k), int(l)): e
            for k, l, e in zip(cols["k"], cols["l"], report.energy)
        }
        rel = abs(by_kl[(1, 0)] - by_kl[(0, 2)]) / by_kl[(0, 2)]
        assert rel < 1e-5

    def test_second_order_convergence(self):
        report = oracle_report(P3, l_max=1, k_max=1)
        orders = report.extra_columns["convergence_order"]
        orders = orders[np.isfinite(orders)]
        assert np.all(np.abs(orders - 2.0) <= 0.2)

    def test_no_boundary_flags_on_default_grid(self):
        report = oracle_report(P3, l_max=1, k_max=1)
        assert np.all(report.extra_columns["boundary_contaminated"] == 0.0)

    def test_cramped_box_flags_states(self):
        # squeezing the box leaves visible mass at the wall for excited states
        grid = RadialGrid(1e-6, 3.2, 400)
        report = oracle_report(P3, l_max=0, k_max=2, grid=grid)
        assert report.extra_columns["boundary_contaminated"].max() == 1.0

    def test_energies_below_threshold(self):
        report = oracle_report(P3, l_max=2, k_max=2)
        assert np.all(report.gap_to_threshold > 0)

    def test_schema_extends_spectrum_table(self):
        report = oracle_report(P3, l_max=0, k_max=0)
        header = report.header()
        assert header[:5] == ["n", "energy", "degeneracy", "gap_to_threshold", "residual"]
        assert "rel_error" in header and "convergence_order" in header


class TestSecondDerivative:
    def test_matches_analytic_on_smooth_function(self):
        x = np.linspace(-3, 3, 601)
        h = x[1] - x[0]
        d2 = second_derivative(np.sin(x), h)
        interior = slice(4, -4)
        # error is rounding-limited at ~eps/h^2, far below truncation needs
        assert np.max(np.abs(d2[interior] + np.sin(x)[interior])) < 5e-11


class TestGridResidual:
    def test_three_dimensional_state(self):
        f = CartesianEigenfunction.from_occupations((1, 1, 0), P3)
        res = grid_eigen_residual(
            f, f.state.energy, P3, half_width=9.0 / f.state.beta, num_points=160
        )
        assert res < 1e-6

