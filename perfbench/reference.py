"""Closed-form reference for the deformed oscillator, independent of the package.

Everything here is computed from the paper's formulas with numpy and
scipy.special alone, so the benchmark can check the package's outputs
without trusting any of its code. Energies use the dimensionless form

    E = hbar*omega*nu / (sqrt(g^2 nu^2 + 1) + g nu),   g = lam*hbar/omega,

with nu = n + N/2, which stays finite wherever E itself fits in a double.
The self-consistent frequency of level n is Omega = E/(hbar*nu), and the
Gaussian width of its eigenfunctions is beta = sqrt(Omega/hbar).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_genlaguerre, gammaln


def _root(nu, lam: float, omega: float, hbar: float):
    g = lam * hbar / omega
    return np.sqrt((g * nu) ** 2 + 1.0) + g * nu


def energies(n, lam: float, omega: float, hbar: float, dim: int):
    """Bound-state energy of level n (scalar or array)."""
    nu = np.asarray(n, dtype=float) + dim / 2.0
    return hbar * omega * nu / _root(nu, lam, omega, hbar)


def beta(n: int, lam: float, omega: float, hbar: float, dim: int) -> float:
    """Gaussian width sqrt(Omega(E_n)/hbar) shared by all states of level n."""
    nu = n + dim / 2.0
    return math.sqrt(omega / hbar / float(_root(nu, lam, omega, hbar)))


def threshold(lam: float, omega: float) -> float:
    """Bottom omega^2/(2 lam) of the continuum; inf for lam = 0."""
    return math.inf if lam == 0 else omega / lam * omega / 2.0


def degeneracy(n: int, dim: int) -> int:
    """Number of occupation tuples of N non-negative integers summing to n."""
    return math.comb(n + dim - 1, dim - 1)


def hermite_function(n: int, x) -> np.ndarray:
    """Orthonormal Hermite function h_n(x), by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    prev = np.exp(-0.5 * x * x) / math.pi**0.25
    if n == 0:
        return prev
    cur = math.sqrt(2.0) * x * prev
    for m in range(1, n):
        cur, prev = math.sqrt(2.0 / (m + 1)) * x * cur - math.sqrt(m / (m + 1)) * prev, cur
    return cur


def cartesian_state(occupations, lam: float, omega: float, hbar: float, q) -> np.ndarray:
    """Weighted-normalized Cartesian eigenfunction at points q (last axis N).

    Product of h_{n_i}(beta q_i), whose weighted norm^2 over
    (1 + lam |q|^2) d^N q is beta^-N (1 + (lam/beta^2) sum(n_i + 1/2)).
    """
    dim = len(occupations)
    q = np.asarray(q, dtype=float).reshape(-1, dim)
    b = beta(sum(occupations), lam, omega, hbar, dim)
    norm_sq = b**-dim * (1.0 + lam / b**2 * sum(n + 0.5 for n in occupations))
    out = np.ones(len(q))
    for axis, n in enumerate(occupations):
        out *= hermite_function(n, b * q[:, axis])
    return out / math.sqrt(norm_sq)


def radial_state(k: int, l: int, lam: float, omega: float, hbar: float, dim: int, r) -> np.ndarray:
    """Weighted-normalized radial eigenfunction r^l exp(-x/2) L_k^alpha(x), x = beta^2 r^2.

    With alpha = l + (N-2)/2 the norm^2 over (1 + lam r^2) r^(N-1) dr is
    Gamma(k+alpha+1) / (2 k! beta^(2 alpha+2)) * (1 + lam (2k+alpha+1)/beta^2).
    """
    r = np.asarray(r, dtype=float)
    alpha = l + (dim - 2) / 2.0
    b = beta(2 * k + l, lam, omega, hbar, dim)
    log_norm_sq = (
        gammaln(k + alpha + 1.0)
        - math.log(2.0)
        - gammaln(k + 1.0)
        - (2.0 * alpha + 2.0) * math.log(b)
        + math.log1p(lam * (2 * k + alpha + 1.0) / b**2)
    )
    x = (b * r) ** 2
    return r**l * np.exp(-0.5 * x - 0.5 * log_norm_sq) * eval_genlaguerre(k, alpha, x)


def hamiltonian(q, p, lam: float, omega: float) -> np.ndarray:
    """Classical energy (p^2 + omega^2 q^2) / (2 (1 + lam q^2)) along rows of q, p."""
    q_sq = np.sum(np.square(q), axis=-1)
    return (np.sum(np.square(p), axis=-1) + omega**2 * q_sq) / (2.0 * (1.0 + lam * q_sq))


def potential(r, lam: float, omega: float) -> np.ndarray:
    return omega**2 * np.square(r) / (2.0 * (1.0 + lam * np.square(r)))


def metric_factor(r, lam: float) -> np.ndarray:
    return 1.0 + lam * np.square(r)


def scalar_curvature(r, lam: float, dim: int) -> np.ndarray:
    """Scalar curvature of the conformally flat metric e^(2 phi) delta, e^(2 phi) = 1 + lam r^2.

    R = -e^(-2 phi) [2 (N-1) lap(phi) + (N-2)(N-1) |grad phi|^2], with
    grad phi = lam r / m and lap(phi) = lam (N m - 2 lam r^2) / m^2.
    """
    r_sq = np.square(r)
    m = 1.0 + lam * r_sq
    lap = lam * (dim * m - 2.0 * lam * r_sq) / m**2
    grad_sq = lam**2 * r_sq / m**2
    return -(2.0 * (dim - 1) * lap + (dim - 2) * (dim - 1) * grad_sq) / m


def effective_potential(r, c_n: float, lam: float, omega: float) -> np.ndarray:
    """Radial effective potential c_n/(2 m r^2) + omega^2 r^2/(2 m), m = 1 + lam r^2."""
    r_sq = np.square(r)
    return (c_n / r_sq + omega**2 * r_sq) / (2.0 * (1.0 + lam * r_sq))
