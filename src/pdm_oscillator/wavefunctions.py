"""Bound-state eigenfunctions and the weighted inner product.

Each eigenfunction holds its quantum numbers (a Cartesian occupation tuple,
or a radial pair (k, l)) with its level's energy E_n and Gaussian width
beta = sqrt(Omega(E_n)/hbar), so every state of the same principal number
shares one width and distinct levels have distinct widths. Normalization is
taken in the weighted space L^2((1 + lam*q^2) dq) where the Hamiltonian
is self-adjoint; the measure for the radial family is
(1 + lam*r^2) r^(N-1) dr with the angular factor assumed orthonormal.

`normalize` uses the closed-form weighted norms. `weighted_inner_product`
never reads them: it integrates the product of two states, a polynomial
times a Gaussian, with an exact Gauss rule, so a Gram matrix of normalized
states is an independent check on the closed forms.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import ModelParams
from .specfun import _laguerre, hermite_function, integrate
from .spectrum import continuum_threshold, energy_closed_form

__all__ = [
    "CartesianEigenfunction",
    "RadialEigenfunction",
    "weighted_inner_product",
    "normalize",
]


def _level(n: int, params: ModelParams) -> tuple[float, float]:
    """Energy E_n and Gaussian width beta = sqrt(Omega/hbar) of level n.

    Omega = E/(hbar (n + N/2)) holds exactly by the self-consistent equation
    and involves no cancellation; sqrt(omega^2 - 2 lam E) loses a relative
    eps (omega/Omega)^2 near the continuum edge. A beta^2 = Omega/hbar that
    leaves the normal doubles, subnormal or overflowing, is formed 4^300
    times nearer 1, exactly, and its root taken 2^300 times further out, so
    beta keeps its digits. One that underflows to 0 (hbar far above omega's
    scale) raises DomainError, as the norm divides by beta^2.
    """
    energy = energy_closed_form(n, params)
    frequency = energy / (params.hbar * (n + params.dim / 2.0))
    beta_sq = frequency / params.hbar
    if not beta_sq > 0:
        raise DomainError(
            f"hbar={params.hbar:g} and omega={params.omega:g} are out of range: "
            f"the squared Gaussian width beta^2 = Omega/hbar underflows to 0"
        )
    if sys.float_info.min <= beta_sq < math.inf:
        return energy, math.sqrt(beta_sq)
    scale = 300 if beta_sq < 1.0 else -300
    return energy, math.ldexp(math.sqrt(math.ldexp(frequency, 2 * scale) / params.hbar), -scale)


def _squares_normally(*betas: float) -> bool:
    """Whether each width's square, and the sum of two, is a normal double,
    tested without forming one: a float power that overflows raises."""
    return all(2.0**-511 <= beta < 2.0**511 for beta in betas)


def _over_beta_sq(x: float, beta: float) -> float:
    """x/beta^2, dividing by beta twice where beta^2 leaves the normal doubles."""
    return x / beta**2 if _squares_normally(beta) else x / beta / beta


def _check_bound(f) -> None:
    """Reject a state in the continuum regime, or one of width beta <= 0."""
    if f.params.lam > 0 and f.energy > continuum_threshold(f.params):
        raise DomainError("state lies in the continuum regime")
    if not f.beta > 0:
        raise DomainError(f"the Gaussian width beta must be > 0, got {f.beta}")


@dataclass(frozen=True)
class CartesianEigenfunction:
    """Product eigenfunction prod_i h_{n_i}(beta q_i) of level n = sum(n_tuple).

    h_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)) is the orthonormal
    Hermite function, and energy and beta are those of level n.
    norm_constant multiplies the raw product; call `normalize` to fix it so
    the weighted norm is 1.
    """

    n_tuple: tuple[int, ...]
    params: ModelParams
    energy: float
    beta: float
    norm_constant: float = 1.0

    def __post_init__(self):
        _check_bound(self)

    @classmethod
    def from_occupations(cls, n_tuple, params: ModelParams) -> "CartesianEigenfunction":
        n_tuple = tuple(int(v) for v in n_tuple)
        if len(n_tuple) != params.dim:
            raise DomainError(f"need {params.dim} occupation numbers, got {len(n_tuple)}")
        if any(v < 0 for v in n_tuple):
            raise DomainError("occupation numbers must be >= 0")
        return cls(n_tuple, params, *_level(sum(n_tuple), params))

    def _positions(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        dim = self.params.dim
        if q.ndim and q.shape[-1] == dim:
            return q
        if dim == 1:
            return q.reshape(q.shape + (1,))
        raise DomainError(f"expected points with last axis of size {dim}")

    def __call__(self, q):
        q = self._positions(q)
        out = np.asarray(math.prod(self.factors([q[..., i] for i in range(self.params.dim)])))
        return out if out.ndim else float(out)

    def factors(self, coords) -> list[np.ndarray]:
        """The N factors h_{n_i}(beta coords[i]), norm_constant on the first.

        The state is their product, taken in factor order. coords[i] holds
        the q_i values: the columns of an array of points, or one 1-D axis
        per dimension, whose n-point factors (N * n Hermite evaluations)
        give the state on the tensor grid by broadcasting.
        """
        first, *rest = [hermite_function(n, self.beta * q) for n, q in zip(self.n_tuple, coords)]
        return [self.norm_constant * first, *rest]


@dataclass(frozen=True)
class RadialEigenfunction:
    """Radial eigenfunction r^l exp(-beta^2 r^2/2) L_k^(l+(N-2)/2)(beta^2 r^2).

    Of level n = 2k + l, whose energy and beta it carries. Behaves as r^l
    at the origin and has exactly k nodes on (0, inf).
    """

    k: int
    l: int
    params: ModelParams
    energy: float
    beta: float
    norm_constant: float = 1.0

    def __post_init__(self):
        _check_bound(self)

    @classmethod
    def from_quantum_numbers(cls, k: int, l: int, params: ModelParams) -> "RadialEigenfunction":
        if k < 0 or l < 0 or int(k) != k or int(l) != l:
            raise DomainError("radial quantum numbers k, l must be integers >= 0")
        k, l = int(k), int(l)
        return cls(k, l, params, *_level(2 * k + l, params))

    @property
    def laguerre_parameter(self) -> float:
        return self.l + (self.params.dim - 2) / 2.0

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise DomainError("radius must be >= 0")
        x = (self.beta * r) ** 2
        out = self.norm_constant * r**self.l * _laguerre(self.k, self.laguerre_parameter, x, -x / 2)
        return out if out.ndim else float(out)


def _combined_width(beta_f: float, beta_g: float) -> float:
    """sqrt((beta_f^2 + beta_g^2)/2), as hypot(beta_f, beta_g)/sqrt(2) where
    a square leaves the normal doubles."""
    if _squares_normally(beta_f, beta_g):
        return math.sqrt(0.5 * (beta_f**2 + beta_g**2))
    return math.hypot(beta_f, beta_g) / math.sqrt(2.0)


def weighted_inner_product(f, g, params: ModelParams) -> float:
    """Scalar product <f|g> in the weighted space where H is self-adjoint.

    Both operands are eigenfunctions of one family. Cartesian: the integral
    of f*g*(1 + lam*|q|^2) over R^N, taken as sums and products of
    one-dimensional Gauss-Hermite integrals; each factor pair is evaluated
    once, as a stacked integrand, and one rule gives both its integral and
    that with q_i^2. Radial: the integral of f*g*(1 + lam*r^2) r^(N-1) over
    (0, inf) by one generalized Gauss-Laguerre rule. Each rule is scaled to
    the combined width s = sqrt((beta_f^2 + beta_g^2)/2) (_combined_width)
    and sized from the polynomial degrees, so it is exact. Each radial state
    is divided by s before the two are multiplied, so widths whose squares
    leave the doubles keep their digits.
    """
    if type(f) is not type(g) or not isinstance(f, (CartesianEigenfunction, RadialEigenfunction)):
        raise DomainError("the inner product needs two eigenfunctions of one family")
    lam = params.lam
    if isinstance(f, RadialEigenfunction):
        s = _combined_width(f.beta, g.beta)

        def integrand(x):
            # x = s^2 r^2, and dr/dx = 1 / (2 s^2 r)
            r = np.sqrt(x) / s
            return (f(r) / s) * (g(r) / s) * (1.0 + lam * r * r) * r ** (params.dim - 2) / 2.0

        alpha = 0.5 * (f.l + g.l + params.dim - 2)
        return integrate(integrand, f.k + g.k + 1, alpha)

    beta_f, beta_g = f.beta, g.beta
    s = _combined_width(beta_f, beta_g)
    flat = []  # integral of the factor pair over q_i
    second = []  # the same with q_i^2
    for n_f, n_g in zip(f.n_tuple, g.n_tuple):
        # x = s q; the rule exact for the q_i^2 integrand serves both
        def pair(x, n_f=n_f, n_g=n_g):
            h = hermite_function(n_f, beta_f / s * x) * hermite_function(n_g, beta_g / s * x) / s
            return np.stack([h, (x / s) ** 2 * h])

        m0, m2 = integrate(pair, n_f + n_g + 2).tolist()
        flat.append(m0)
        second.append(m2)
    total = math.prod(flat)
    for j, b in enumerate(second):
        total += lam * b * math.prod(flat[:j] + flat[j + 1 :])
    return f.norm_constant * g.norm_constant * total


def _log_norm_squared(f) -> float:
    """Log of the closed-form weighted norm^2 of f, at norm_constant 1.

    With orthonormal Hermite factors a Cartesian state has norm^2
    beta^-N (1 + (lam/beta^2) sum(n_i + 1/2)); a radial state with
    alpha = l + (N-2)/2 has Gamma(k+alpha+1) / (2 k! beta^(2 alpha+2))
    * (1 + lam (2k+alpha+1)/beta^2).
    """
    lam = f.params.lam
    if isinstance(f, RadialEigenfunction):
        alpha = f.laguerre_parameter
        return (
            math.lgamma(f.k + alpha + 1)
            - math.lgamma(f.k + 1)
            - math.log(2.0)
            - (2 * alpha + 2) * math.log(f.beta)
            + math.log1p(_over_beta_sq(lam * (2 * f.k + alpha + 1), f.beta))
        )
    return -f.params.dim * math.log(f.beta) + math.log1p(
        _over_beta_sq(lam, f.beta) * sum(n + 0.5 for n in f.n_tuple)
    )


def normalize(f):
    """Return a copy of the eigenfunction with unit weighted norm.

    The norm is the closed form of `_log_norm_squared`, with no quadrature.
    Raises DomainError for a zero or non-finite norm_constant.
    """
    if f.norm_constant == 0 or not math.isfinite(f.norm_constant):
        raise DomainError("cannot normalize a function with vanishing or non-finite norm")
    scale = math.exp(-0.5 * _log_norm_squared(f))
    return dataclasses.replace(f, norm_constant=math.copysign(scale, f.norm_constant))
