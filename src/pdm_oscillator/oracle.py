"""Independent finite-difference oracle for the radial eigenproblem.

Discretizes the weighted radial equation in self-adjoint form,

    -(hbar^2/2) (r^(N-1) phi')' + [hbar^2 l(l+N-2)/(2 r^2)
        + omega^2 r^2 / 2] r^(N-1) phi  =  E (1 + lam r^2) r^(N-1) phi,

as a generalized symmetric-tridiagonal eigenproblem A u = E B u with
diagonal positive B, reduced by the congruence B^(-1/2) A B^(-1/2) and
solved by LAPACK Sturm-sequence bisection (stebz) plus inverse iteration
(stein). The eigensolve never reads the closed-form spectrum, so agreement
between the two routes is a genuine cross-check; only the default box size
(default_radial_grid) is taken from it.

Also provides a grid-based operator check: a high-order Hamiltonian
application for eigenfunction residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import ModelParams
from .spectrum import (
    SpectrumTable,
    _omega_eff,
    continuum_threshold,
    degeneracy,
    energy_closed_form,
)

__all__ = [
    "RadialGrid",
    "DiscretizedOperator",
    "default_radial_grid",
    "discretize_radial",
    "solve_generalized_eigen",
    "oracle_report",
    "apply_hamiltonian_grid",
    "grid_eigen_residual",
]

_BOUNDARY_TAIL_FRACTION = 0.10
_BOUNDARY_MASS_LIMIT = 0.01


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [r_min, r_max] including both endpoints."""

    r_min: float
    r_max: float
    num_points: int = 4000

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise DomainError("need 0 < r_min < r_max")
        if self.num_points < 100:
            raise DomainError("num_points must be >= 100")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.num_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.num_points)

    def refined(self) -> "RadialGrid":
        """Same interval with spacing halved (for Richardson extrapolation)."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.num_points - 1)


def default_radial_grid(params: ModelParams, l: int, k_max: int) -> RadialGrid:
    """Box sized to the slowest-decaying requested state.

    The eigenfunctions decay with the Gaussian width beta(E) of the highest
    state, so the box extends to max(12/beta, 3 * outer turning radius).
    Omega = E/(hbar (n + N/2)) is exact, also where E rounds to the threshold.
    """
    e_top = energy_closed_form(2 * k_max + l, params)
    omega_eff = e_top / (params.hbar * (2 * k_max + l + params.dim / 2.0))
    beta = math.sqrt(omega_eff / params.hbar)
    r_turn = math.sqrt(2.0 * e_top) / omega_eff
    # for N = 1 the measure does not vanish at the origin, so the inner
    # cutoff displaces the wall and shifts eigenvalues by O(r_min)
    r_min = 1e-9 if params.dim == 1 else 1e-6
    return RadialGrid(r_min=r_min, r_max=max(12.0 / beta, 3.0 * r_turn))


@dataclass(frozen=True)
class DiscretizedOperator:
    """Symmetric tridiagonal stiffness A, stored as its diagonal and its one
    off-diagonal, and diagonal weight B."""

    diag: np.ndarray
    offdiag: np.ndarray
    weight: np.ndarray
    nodes: np.ndarray
    l: int
    params: ModelParams

    def size(self) -> int:
        return len(self.diag)


def discretize_radial(params: ModelParams, l: int, grid: RadialGrid) -> DiscretizedOperator:
    """Assemble the generalized eigenproblem at angular quantum number l.

    Dirichlet at r_max always. At the inner end: Dirichlet for l >= 1
    (solutions vanish like r^l); for l = 0 the wall is flux-free
    (phi'(0) = 0). The l = 0 wall row is the natural-boundary row of the
    lumped P1 finite-element form: for N = 1 the first node keeps a
    half-size cell, while for N >= 2 the node at r_min is dropped entirely
    because its measure r^(N-1) is degenerate there (keeping it inflates
    the reduced matrix norm and ruins the bisection's absolute accuracy);
    the discarded inner flux is O(h^3).
    """
    if l < 0 or int(l) != l:
        raise DomainError(f"l must be an integer >= 0, got {l}")
    l = int(l)
    n_dim = params.dim
    h = np.float64(grid.spacing)  # so that h**2 may overflow to inf, caught below
    r = grid.nodes()

    # unknowns: drop the Dirichlet / degenerate-measure node(s)
    lo = 0 if (l == 0 and n_dim == 1) else 1
    ri = r[lo : grid.num_points - 1]

    with np.errstate(over="ignore", invalid="ignore"):
        p = lambda rr: 0.5 * params.hbar**2 * rr ** (n_dim - 1)
        p_right = p(ri + 0.5 * h)
        p_left = p(ri - 0.5 * h)

        centrifugal = params.hbar**2 * l * (l + n_dim - 2) / (2.0 * ri**2)
        well = 0.5 * params.omega**2 * ri**2
        diag = (p_right + p_left) / h**2 + (centrifugal + well) * ri ** (n_dim - 1)
        offdiag = -p_right[:-1] / h**2
        weight = (1.0 + params.lam * ri**2) * ri ** (n_dim - 1)
        if l == 0:
            if n_dim == 1:
                diag[0] = p_right[0] / h**2 + 0.5 * well[0]
                weight[0] = 0.5 * weight[0]
            else:
                diag[0] = p_right[0] / h**2 + well[0] * ri[0] ** (n_dim - 1)
    if not all(np.isfinite(v).all() for v in (diag, offdiag, weight)):
        raise DomainError(f"r_max={grid.r_max:g} overflows the discretized operator")
    return DiscretizedOperator(
        diag=diag, offdiag=offdiag, weight=weight, nodes=ri, l=l, params=params
    )


def solve_generalized_eigen(
    op: DiscretizedOperator, count: int, return_vectors: bool = False
):
    """Lowest `count` eigenvalues of A u = E B u (ascending).

    Reduces to standard form with the diagonal congruence B^(-1/2) A
    B^(-1/2), then runs LAPACK Sturm-sequence bisection (stebz) through
    scipy's eigh_tridiagonal; eigenvectors (in the original phi variables)
    come from its inverse iteration (stein) on request. A LAPACK failure
    raises ConvergenceError. Only the low-lying states are trustworthy,
    hence count <= size/4.
    """
    size = op.size()
    if count < 1 or count > size // 4:
        raise DomainError(f"count must be in [1, {size // 4}] for {size} nodes")
    if np.any(op.weight <= 0):
        raise DomainError("mass weight must be positive")

    from scipy.linalg import LinAlgError, eigh_tridiagonal

    inv_sqrt_w = 1.0 / np.sqrt(op.weight)
    d = op.diag * inv_sqrt_w**2
    e = op.offdiag * inv_sqrt_w[:-1] * inv_sqrt_w[1:]
    try:
        out = eigh_tridiagonal(
            d, e, eigvals_only=not return_vectors, select="i", select_range=(0, count - 1)
        )
    except LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    if not return_vectors:
        return out
    values, vectors = out
    return values, vectors * inv_sqrt_w[:, None]


def _boundary_contaminated(op: DiscretizedOperator, vector: np.ndarray) -> bool:
    """Weighted mass fraction in the outer tail of the box above 1%."""
    mass = op.weight * vector**2
    tail = int(math.ceil(_BOUNDARY_TAIL_FRACTION * len(mass)))
    return float(mass[-tail:].sum() / mass.sum()) > _BOUNDARY_MASS_LIMIT


def oracle_report(
    params: ModelParams,
    l_max: int,
    k_max: int,
    grid: RadialGrid | None = None,
) -> SpectrumTable:
    """Compare oracle eigenvalues against the closed form for k <= k_max, l <= l_max.

    Each l is solved on the given grid and on its half-spacing refinement;
    the reported energy is the Richardson combination (4 E_half - E_full)/3
    and the convergence order is estimated from the two errors against the
    closed form. States holding more than 1% of their weighted mass in the
    outer 10% of the box are flagged as boundary-contaminated.
    """
    if l_max < 0 or k_max < 0:
        raise DomainError(f"l_max and k_max must be >= 0, got {l_max} and {k_max}")
    parts = []
    for ell in range(l_max + 1):
        g = grid if grid is not None else default_radial_grid(params, ell, k_max)
        op_half = discretize_radial(params, ell, g.refined())
        e_full = solve_generalized_eigen(discretize_radial(params, ell, g), k_max + 1)
        e_half, vectors = solve_generalized_eigen(op_half, k_max + 1, return_vectors=True)
        flagged = [float(_boundary_contaminated(op_half, v)) for v in vectors.T]
        k = np.arange(k_max + 1)
        parts.append((2 * k + ell, k, np.full(k_max + 1, ell), e_full, e_half, flagged))
    columns = [np.concatenate(c) for c in zip(*parts)]
    by_level = np.lexsort((columns[2], columns[0]))  # by n, then by l
    n, k, l, e_full, e_half, flagged = (c[by_level] for c in columns)

    exact = energy_closed_form(n, params)
    energy = (4.0 * e_half - e_full) / 3.0
    err_full, err_half = np.abs(e_full - exact), np.abs(e_half - exact)
    floor = 1e3 * np.finfo(float).eps * exact
    order = [
        math.log2(a / b) if a > f and b > f else math.nan
        for a, b, f in zip(err_full, err_half, floor)
    ]
    flat_level = params.hbar * _omega_eff(energy, params) * (n + params.dim / 2.0)
    return SpectrumTable(
        params=params,
        n=n,
        energy=energy,
        degeneracy=[degeneracy(int(v), params.dim) for v in n],
        gap_to_threshold=continuum_threshold(params) - energy,
        residual=np.abs(energy - flat_level),
        extra_columns={
            "k": k.astype(float),
            "l": l.astype(float),
            "closed_form": exact,
            "rel_error": np.abs(energy - exact) / exact,
            "convergence_order": np.array(order),
            "boundary_contaminated": flagged,
        },
    )


# ---------------------------------------------------------------------------
# grid-based operator check: eighth-order central second-derivative stencil
_D2_COEFFS = np.array(
    [-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72, 8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560]
)


def second_derivative(values: np.ndarray, spacing: float, axis: int = 0) -> np.ndarray:
    """Eighth-order second derivative along one axis (zero-padded ends)."""
    values = np.asarray(values, dtype=float)
    pad = [(0, 0)] * values.ndim
    pad[axis] = (4, 4)
    padded = np.pad(values, pad)
    out = np.zeros_like(values)
    for j, c in enumerate(_D2_COEFFS):
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(j, j + values.shape[axis])
        out += c * padded[tuple(sl)]
    return out / spacing**2


def apply_hamiltonian_grid(psi: np.ndarray, axes: list[np.ndarray], params: ModelParams) -> np.ndarray:
    """Apply the position-dependent-mass Hamiltonian to grid samples of psi."""
    psi = np.asarray(psi, dtype=float)
    if len(axes) != params.dim or psi.ndim != params.dim:
        raise DomainError("psi and axes must match params.dim")
    lap = np.zeros_like(psi)
    q_sq = np.zeros_like(psi)
    for ax, coords in enumerate(axes):
        spacing = coords[1] - coords[0]
        lap += second_derivative(psi, spacing, axis=ax)
        shape = [1] * params.dim
        shape[ax] = len(coords)
        q_sq = q_sq + (coords**2).reshape(shape)
    mass = 1.0 + params.lam * q_sq
    return (-params.hbar**2 * lap + params.omega**2 * q_sq * psi) / (2.0 * mass)


def grid_eigen_residual(
    psi_fn, energy: float, params: ModelParams, half_width: float, num_points: int
) -> float:
    """Relative residual |H psi - E psi| / |psi| on a uniform N-cube grid.

    The boundary frame where the high-order stencil is truncated is
    excluded from both norms; psi must be negligible there.
    """
    axes = [np.linspace(-half_width, half_width, num_points) for _ in range(params.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack(mesh, axis=-1)
    psi = psi_fn(points) if params.dim > 1 else psi_fn(points[..., 0])
    h_psi = apply_hamiltonian_grid(psi, axes, params)
    trim = (slice(4, -4),) * params.dim
    num = np.linalg.norm((h_psi - energy * psi)[trim])
    den = np.linalg.norm(psi[trim])
    return float(num / den)
