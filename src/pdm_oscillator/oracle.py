"""Independent finite-difference oracle for the radial eigenproblem.

Discretizes the weighted radial equation in self-adjoint form, in units of
hbar*omega and sqrt(hbar/omega), where its one parameter is g = lam*hbar/omega,

    -(1/2) (r^(N-1) phi')' + [l(l+N-2)/(2 r^2) + r^2/2] r^(N-1) phi
        =  E (1 + g r^2) r^(N-1) phi,

by finite volumes on cells from r = 0, as a generalized symmetric-tridiagonal
eigenproblem A u = E B u with diagonal positive B, reduced by the congruence
B^(-1/2) A B^(-1/2) and scaled to unit norm. The given grid is solved by
LAPACK Sturm-sequence bisection (stebz); its refinement by inverse iteration (stein)
at those eigenvalues, each refined eigenvalue being the Rayleigh quotient of
its vector. Both routines are bound through ctypes from the LAPACK that
numpy's pip wheel bundles (scipy-openblas64; see _lapack). Neither the
eigensolve nor the default box (default_radial_grid) reads the closed-form
spectrum, so agreement between the two routes is a genuine cross-check;
only oracle_report's comparison columns read it.

Also provides a grid-based operator check: the eigenfunction residual of a
Cartesian state, a product of N one-dimensional Hermite factors, on an
N-cube grid. Its Laplacian takes an eighth-order second derivative of each
factor in 1-D, and the numerator 2 (1 + lam |q|^2)(H - E) psi is a sum of N
outer products of 1-D terms, summed one slab of the first axis at a time.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    _MIN_GRID_CELLS, ConvergenceError, DomainError, GridSizeError, LapackUnavailableError,
)
from .geometry import ModelParams
from .spectrum import (
    SpectrumTable,
    _dimensionless,
    _omega_eff,
    _scale,
    angular_multiplicity,
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
    "grid_eigen_residual",
]

_BOUNDARY_TAIL_FRACTION = 0.10
_BOUNDARY_MASS_LIMIT = 0.01
# cells per shortest local wavelength 2 pi / sqrt(2 top) of the top level: the
# relative error the three-point stencil leaves after extrapolation, about
# (kappa h)^4 / 3000 at local wavenumber kappa, is then at most 1.6e-10
_CELLS_PER_WAVELENGTH = 240
# Gaussian widths of the top level kept beyond its outer turning radius: the
# wall then moves a ground state by about 1e-12 of its energy
_TAIL_WIDTHS = 4.5
# entries of the refined grid's eigenvector block (2**24 doubles are 128 MiB)
_MAX_VECTOR_ENTRIES = 2**24
_LAPACK_COL_MAJOR = 102


@dataclass(frozen=True)
class RadialGrid:
    """`cells` uniform cells from the inner face r_min (0 in every default
    grid) to r_max; the unknowns sit at the cell centres."""

    r_min: float
    r_max: float
    cells: int

    def __post_init__(self):
        if not 0 <= self.r_min < self.r_max < math.inf:
            raise DomainError("need 0 <= r_min < r_max < inf")
        if self.cells < _MIN_GRID_CELLS:
            raise GridSizeError(f"cells must be >= {_MIN_GRID_CELLS}, got {self.cells}")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / self.cells

    def refined(self) -> "RadialGrid":
        """Same interval with each cell halved (for Richardson extrapolation)."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.cells)


def default_radial_grid(params: ModelParams, l: int, k_max: int) -> RadialGrid:
    """Cells from r = 0, in units of sqrt(hbar/omega), for every state up to
    n = 2 k_max + l.

    In units of hbar*omega, level n lies in [top/2, top], top = min(nu, 1/(2g)),
    nu = n + N/2 (the bracket of energy_implicit; no closed form is read). At
    energy E the radial equation is an oscillator of frequency
    W = sqrt(1 - 2gE) = E/nu, so the level's Gaussian width 1/sqrt(W) is at
    most w = min(sqrt(2 nu/top), (1 - 2g top)^(-1/4)), and its outer turning
    radius sqrt(2 nu/W) at most w sqrt(2 nu). The wall
    r_max = w (sqrt(2 nu) + _TAIL_WIDTHS) lies _TAIL_WIDTHS widths beyond it,
    and ceil(_CELLS_PER_WAVELENGTH r_max sqrt(2 top) / (2 pi)) cells resolve the
    level's shortest local wavelength 2 pi/sqrt(2 top), at the origin.
    """
    if l < 0 or k_max < 0:
        raise DomainError(f"l and k_max must be >= 0, got {l} and {k_max}")
    nu = 2 * k_max + l + params.dim / 2.0
    scaled = _dimensionless(params)
    top = min(nu, continuum_threshold(scaled))
    width = math.sqrt(2.0 * nu / top)
    if 2.0 * scaled.lam * top < 0.75:  # top = nu there, and this bound is below sqrt(2)
        width = (1.0 - 2.0 * scaled.lam * top) ** -0.25
    r_max = width * (math.sqrt(2.0 * nu) + _TAIL_WIDTHS)
    if r_max == math.inf:
        raise DomainError(
            f"the box for n = {2 * k_max + l} overflows a double at {_scale(params, scaled.lam)}"
        )
    cells = math.ceil(_CELLS_PER_WAVELENGTH * (r_max * math.sqrt(2.0 * top)) / (2.0 * math.pi))
    return RadialGrid(0.0, r_max, cells)


@dataclass(frozen=True)
class DiscretizedOperator:
    """Symmetric tridiagonal stiffness A, stored as its diagonal and its one
    off-diagonal, and diagonal weight B, at the cell centres `nodes`."""

    diag: np.ndarray
    offdiag: np.ndarray
    weight: np.ndarray
    nodes: np.ndarray

    def size(self) -> int:
        return len(self.diag)


def discretize_radial(params: ModelParams, l: int, grid: RadialGrid) -> DiscretizedOperator:
    """Assemble the generalized eigenproblem at angular quantum number l.

    In units of hbar*omega and sqrt(hbar/omega), the grid's too, so only
    g = lam*hbar/omega and N matter; an operator that overflows a double
    raises DomainError. Finite volumes: the unknowns sit at the cell centres
    r_c, with measure r_c^(N-1), and the fluxes at the faces, with
    p = r^(N-1)/2. Beyond the outer wall a ghost cell holds 0 (Dirichlet).
    At the inner face the ghost u_0 = (-1)^l u_1 continues the solution by
    its parity; for N >= 2 at r = 0, p = 0 there, so no flux crosses it.
    """
    if l < 0 or int(l) != l:
        raise DomainError(f"l must be an integer >= 0, got {l}")
    l = int(l)
    n_dim, g = params.dim, _dimensionless(params).lam
    h = np.float64(grid.spacing)  # so that h**2 may overflow to inf, caught below
    faces = np.linspace(grid.r_min, grid.r_max, grid.cells + 1)
    r = faces[:-1] + 0.5 * h

    with np.errstate(over="ignore", invalid="ignore"):
        p = 0.5 * faces ** (n_dim - 1)
        p[0] *= 1 - (-1) ** l  # the ghost leaves u_1 - u_0 = 0, or 2 u_1 for odd l
        measure = r ** (n_dim - 1)
        centrifugal = l * (l + n_dim - 2) / (2.0 * r**2)
        diag = (p[:-1] + p[1:]) / h**2 + (centrifugal + 0.5 * r**2) * measure
        offdiag = -p[1:-1] / h**2
        weight = (1.0 + g * r**2) * measure
    if not all(np.isfinite(v).all() for v in (diag, offdiag, weight)):
        raise DomainError(f"r_max={grid.r_max:g} sqrt(hbar/omega) overflows the operator at "
                          f"lam={params.lam:g}, hbar={params.hbar:g}, omega={params.omega:g}")
    return DiscretizedOperator(diag=diag, offdiag=offdiag, weight=weight, nodes=r)


@functools.cache
def _lapack() -> tuple:
    """LAPACKE stebz and stein from the LAPACK that numpy.linalg calls, bound once.

    numpy's pip wheels link scipy-openblas64, which exports LAPACKE with
    64-bit integers as scipy_LAPACKE_*64_; the dynamic loader finds them
    through numpy.linalg's extension module, whose dependencies it searches
    with it. A numpy linked to another LAPACK (a conda or a Linux
    distribution package) lacks them: LapackUnavailableError.
    """
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        stebz, stein = lib.scipy_LAPACKE_dstebz64_, lib.scipy_LAPACKE_dstein64_
    except (OSError, AttributeError) as exc:
        raise LapackUnavailableError(
            f"the oracle needs LAPACK stebz and stein from the scipy-openblas64 that numpy's "
            f"pip wheel bundles, and this numpy has none: {exc}"
        ) from exc
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    stebz.restype = stein.restype = i64
    stebz.argtypes = [ctypes.c_char, ctypes.c_char, i64, f64, f64, i64, i64, f64, *[ptr] * 7]
    stein.argtypes = [ctypes.c_int, i64, ptr, ptr, i64, ptr, ptr, ptr, ptr, i64, ptr]
    return stebz, stein


def _reduced(op: DiscretizedOperator) -> tuple[np.ndarray, np.ndarray, float]:
    """Standard form of A u = E B u, scaled to unit norm.

    Returns (d, e, scale): d and e are the diagonal and the
    off-diagonal of B^(-1/2) A B^(-1/2) divided by scale, the power of two
    just above the largest entry. So the scaling is exact, and the squares
    of the off-diagonal that LAPACK forms neither underflow nor overflow
    for any g at which the operator fits a double.
    """
    # LAPACK reads n doubles of d and n - 1 of e; the products below are fresh
    # contiguous arrays of these shapes
    diag, offdiag, weight = (np.asarray(a, dtype=float) for a in (op.diag, op.offdiag, op.weight))
    n = diag.size
    if diag.shape != (n,) or weight.shape != (n,) or offdiag.shape != (n - 1,):
        raise DomainError(f"need {n} diagonal and weight entries and {n - 1} off-diagonal ones")
    if np.any(weight <= 0):
        raise DomainError("mass weight must be positive")
    inv_sqrt_w = 1.0 / np.sqrt(weight)
    d = diag * inv_sqrt_w**2
    e = offdiag * inv_sqrt_w[:-1] * inv_sqrt_w[1:]
    largest = max(np.abs(d).max(), np.abs(e).max(initial=0.0))
    scale = math.ldexp(1.0, math.frexp(largest)[1])
    return d / scale, e / scale, scale


def solve_generalized_eigen(op: DiscretizedOperator, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of A u = E B u (ascending), in units of hbar*omega.

    Reduces to standard form with the diagonal congruence B^(-1/2) A
    B^(-1/2), scaled to unit norm, then runs LAPACK Sturm-sequence
    bisection (stebz), by index, in ascending order, at the default
    tolerance. A LAPACK failure, or fewer than `count` eigenvalues found,
    raises ConvergenceError. Only the low-lying states are trustworthy,
    hence count <= size/4, or GridSizeError.
    """
    size = op.size()
    if count < 1 or count > size // 4:
        raise GridSizeError(f"count must be in [1, {size // 4}] for {size} cells")
    d, e, scale = _reduced(op)
    stebz, _ = _lapack()
    found, blocks = ctypes.c_int64(), ctypes.c_int64()
    values = np.empty(size)
    block_of, block_ends = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    info = stebz(b"I", b"E", size, 0.0, 0.0, 1, count, 0.0, d.ctypes.data, e.ctypes.data,
                 ctypes.byref(found), ctypes.byref(blocks), values.ctypes.data,
                 block_of.ctypes.data, block_ends.ctypes.data)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolve failed: stebz info={info}")
    if found.value < count:
        raise ConvergenceError(
            f"tridiagonal eigensolve failed: stebz found {found.value} of {count} eigenvalues"
        )
    return values[:count] * scale


def _eigenpairs_near(op: DiscretizedOperator, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of A u = E B u by inverse iteration at ascending shifts.

    LAPACK stein iterates at each shift on the scaled standard form; each
    eigenvalue is the Rayleigh quotient z^T T z / z^T z of its vector, which
    is accurate to second order in the vector's error, formed on stein's
    block a chunk of columns at a time. Each eigenvector z is returned as
    stein gives it, of unit norm in the standard form, not in the original
    variables phi = B^(-1/2) z: z^2 is the weighted mass B phi^2. A LAPACK
    failure raises ConvergenceError. A quotient that lies no nearer its own shift than
    another shift, unless within rounding of its own (shifts that agree to
    rounding belong to a cluster that double precision holds as one
    eigenvalue), raises GridSizeError where the shifts are distinct, as they
    are then off by more than the level spacing, and ConvergenceError else.
    """
    d, e, scale = _reduced(op)
    shifts = np.asarray(shifts, dtype=float)
    n, m = len(d), len(shifts)
    _, stein = _lapack()
    w = np.zeros(n)  # LAPACKE's NaN check reads n entries of w, not m
    w[:m] = shifts / scale
    block_of, block_ends = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    block_ends[0] = n
    z = np.empty((m, n)).T  # n x m, column-major as LAPACK writes it
    failed = np.empty(m, dtype=np.int64)
    info = stein(_LAPACK_COL_MAJOR, n, d.ctypes.data, e.ctypes.data, m, w.ctypes.data,
                 block_of.ctypes.data, block_ends.ctypes.data, z.ctypes.data, n, failed.ctypes.data)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolve failed: stein info={info}")
    values = np.empty(len(shifts))
    width = math.ceil(len(shifts) / 8)  # columns per chunk: 8 chunks at most
    for j in range(0, len(shifts), width):
        chunk = z[:, j : j + width]
        # T z first, so that each term z_i (T z)_i is near E z_i^2: summing d z^2
        # and 2 e z z' directly cancels O(|T|) partial sums down to E
        tz = d[:, None] * chunk
        tz[:-1] += e[:, None] * chunk[1:]
        tz[1:] += e[:, None] * chunk[:-1]
        tz *= chunk
        values[j : j + width] = tz.sum(axis=0) / (chunk * chunk).sum(axis=0) * scale
    # a-priori bound on the rounding error of z^T T z: n terms, |T| <= 3
    rounding = 3.0 * n * np.finfo(float).eps * scale
    own = np.abs(values - shifts)
    others = np.abs(values[:, None] - shifts)
    np.fill_diagonal(others, np.inf)
    lost = ~((own < others.min(axis=1)) | (own <= rounding))
    if np.any(lost) and np.all(np.diff(shifts) > rounding):
        raise GridSizeError(
            f"grid too coarse for the level spacing: inverse iteration from its level "
            f"{np.argmax(lost)} (counted from 0) converged nearer another level"
        )
    if np.any(lost):
        raise ConvergenceError(
            "tridiagonal eigensolve failed: inverse iteration left an eigenvalue "
            "nearer another shift than its own"
        )
    return values, z


def oracle_report(
    params: ModelParams,
    l_max: int,
    k_max: int,
    grid: RadialGrid | None = None,
) -> SpectrumTable:
    """Compare oracle eigenvalues against the closed form for k <= k_max, l <= l_max.

    Solved at g = lam*hbar/omega in units of hbar*omega and sqrt(hbar/omega),
    on the grid (in those units; by default one box for every l <= l_max), and
    each l with angular states (not l >= 2 in dim 1) is bisected on it. The
    half-spacing refinement's eigenpairs come from inverse iteration at
    those eigenvalues; the reported energy is the Richardson combination
    (4 E_half - E_full)/3, times hbar*omega, and the convergence order is
    estimated from the two errors against the closed form at g. States
    holding more than 1% of their weighted mass in the outer 10% of the box
    are flagged as boundary-contaminated. One row per state, in the columns
    of spectrum_table and then k, l, closed_form, rel_error,
    convergence_order and boundary_contaminated. Levels that overflow a
    double once multiplied by hbar*omega raise DomainError; a grid with
    fewer than 4 cells per level, or so many that the refined grid's
    eigenvectors would pass _MAX_VECTOR_ENTRIES doubles, raises
    GridSizeError before any eigensolve.
    """
    if l_max < 0 or k_max < 0:
        raise DomainError(f"l_max and k_max must be >= 0, got {l_max} and {k_max}")
    scaled = _dimensionless(params)
    grid = grid if grid is not None else default_radial_grid(scaled, l_max, k_max)
    most = _MAX_VECTOR_ENTRIES // (2 * (k_max + 1))  # cells, for the refined eigenvectors
    if grid.cells > most:
        raise GridSizeError(f"{k_max + 1} levels allow at most {most} cells, "
                            f"got {grid.cells} up to r_max={grid.r_max:g}")
    parts = []
    for ell in [l for l in range(l_max + 1) if angular_multiplicity(l, params.dim)]:
        op_half = discretize_radial(params, ell, grid.refined())
        e_full = solve_generalized_eigen(discretize_radial(params, ell, grid), k_max + 1)
        e_half, z = _eigenpairs_near(op_half, e_full)
        tail = math.ceil(_BOUNDARY_TAIL_FRACTION * len(z))  # z^2 is the weighted mass B phi^2
        share = np.einsum("ij,ij->j", z[-tail:], z[-tail:]) / np.einsum("ij,ij->j", z, z)
        flagged = (share > _BOUNDARY_MASS_LIMIT).astype(float)
        k = np.arange(k_max + 1)
        parts.append((2 * k + ell, k, np.full(k_max + 1, ell), e_full, e_half, flagged))
    columns = [np.concatenate(c) for c in zip(*parts)]
    by_level = np.lexsort((columns[2], columns[0]))  # by n, then by l
    n, k, l, e_full, e_half, flagged = (c[by_level] for c in columns)

    exact = energy_closed_form(n, scaled)
    energy = (4.0 * e_half - e_full) / 3.0
    err_full, err_half = np.abs(e_full - exact), np.abs(e_half - exact)
    floor = 1e3 * np.finfo(float).eps * exact
    order = [
        math.log2(a / b) if a > f and b > f else math.nan
        for a, b, f in zip(err_full, err_half, floor)
    ]
    flat_level = _omega_eff(energy, scaled) * (n + params.dim / 2.0)
    unit = params.hbar * params.omega
    top = max(float(energy.max()), float(exact.max()))
    if not math.isfinite(unit * top):
        raise DomainError(
            f"levels overflow a double: at hbar={params.hbar:g}, omega={params.omega:g} "
            f"the top level is {top:.3g} hbar*omega"
        )
    return SpectrumTable(
        n=n,
        energy=unit * energy,
        degeneracy=[degeneracy(int(v), params.dim) for v in n],
        gap_to_threshold=unit * (continuum_threshold(scaled) - energy),
        residual=unit * np.abs(energy - flat_level),
        k=k.astype(float),
        l=l.astype(float),
        closed_form=unit * exact,
        rel_error=np.abs(energy - exact) / exact,
        convergence_order=np.array(order),
        boundary_contaminated=flagged,
    )


# ---------------------------------------------------------------------------
# grid-based operator check: eighth-order central second-derivative stencil
_D2_COEFFS = np.array(
    [-1.0 / 560, 8.0 / 315, -1.0 / 5, 8.0 / 5, -205.0 / 72, 8.0 / 5, -1.0 / 5, 8.0 / 315, -1.0 / 560]
)


def second_derivative(values: np.ndarray, spacing: float) -> np.ndarray:
    """Eighth-order second derivative of 1-D samples (zero-padded ends).

    Sums the terms c_j * values[i + j - 4] in coefficient order over a copy
    of values with four zeros on each end, so the four entries at each end
    read the padding.
    """
    size = len(values)
    padded = np.pad(values, 4)
    out = np.zeros(size)
    for j, c in enumerate(_D2_COEFFS):
        out += c * padded[j : j + size]
    out /= spacing**2
    return out


def _norm(x: np.ndarray) -> float:
    """Euclidean norm from numpy's pairwise sum of squares: no BLAS call, so
    it does not depend on the BLAS thread count."""
    return math.sqrt(np.sum(x * x))


# grid points per slab of the residual (128 kB per array), so that a slab's
# arrays stay in cache
_SLAB_POINTS = 2**14


def grid_eigen_residual(
    f, energy: float, params: ModelParams, half_width: float, num_points: int
) -> float:
    """Relative residual |H psi - E psi| / |psi| of a CartesianEigenfunction f
    on the N-cube grid of num_points >= 9 per axis over [-half_width, half_width].

    With psi the product of its N axis factors f_i, the numerator
    2 (1 + lam |q|^2)(H - E) psi is exactly sum_i g_i (x) prod_{j != i} f_j,
    where g_i = -hbar^2 f_i'' + (omega^2 - 2 lam E) x_i^2 f_i, less 2 E f_i on
    the first axis, and f_i'' is the 1-D stencil of f_i. The residual is
    summed slab by slab along the first axis, each slab about _SLAB_POINTS
    grid points (at least one row) of that numerator divided by its
    2 (1 + lam |q|^2); the tail over the other axes is formed once, so the
    memory is O(num_points^(N-1)). Both norms exclude the frame where the
    stencil reads its zero padding, and |psi| is the product of the factors'
    norms there; psi must be negligible on the frame and nonzero inside.
    """
    if f.params.dim != params.dim:
        raise DomainError(f"f is a state in {f.params.dim} dimensions, params has dim={params.dim}")
    if num_points < 9 or not 0 < half_width < math.inf:
        raise DomainError(
            f"need num_points >= 9 and a finite half_width > 0, got {num_points} and {half_width}"
        )
    axis = np.linspace(-half_width, half_width, num_points)
    inner = slice(4, -4)
    x_sq = axis[inner] ** 2
    full = f.factors([axis] * params.dim)
    factors = [factor[inner] for factor in full]
    den = math.prod(_norm(factor) for factor in factors)
    if den == 0:
        raise DomainError("psi vanishes on the grid inside the stencil frame")
    coupling = params.omega**2 - 2.0 * params.lam * energy
    terms = [
        -params.hbar**2 * second_derivative(sampled, axis[1] - axis[0])[inner]
        + coupling * x_sq * factor
        for sampled, factor in zip(full, factors)
    ]
    terms[0] -= 2.0 * energy * factors[0]
    # the tails over axes 2..N of psi, of the numerator and of |q|^2
    # (scalars at N = 1): a slab is g_1 (x) psi_tail + f_1 (x) num_tail
    psi_tail, num_tail, mass_tail = 1.0, 0.0, 0.0
    for factor, term in zip(factors[:0:-1], terms[:0:-1]):
        num_tail = np.multiply.outer(term, psi_tail) + np.multiply.outer(factor, num_tail)
        psi_tail = np.multiply.outer(factor, psi_tail)
        mass_tail = np.add.outer(x_sq, mass_tail)
    mass_tail = 2.0 * params.lam * mass_tail
    mass_head = 2.0 + 2.0 * params.lam * x_sq
    rows = max(1, _SLAB_POINTS // np.size(psi_tail))
    squares = 0.0
    for start in range(0, len(x_sq), rows):
        part = slice(start, start + rows)
        slab = np.multiply.outer(terms[0][part], psi_tail)
        slab += np.multiply.outer(factors[0][part], num_tail)
        slab /= np.add.outer(mass_head[part], mass_tail)
        slab *= slab
        squares += np.sum(slab)
    return math.sqrt(squares) / den
