"""Bound-state eigenfunctions and the weighted inner product.

Both families carry the energy-dependent Gaussian width beta =
sqrt(Omega(E)/hbar), so every state of the same principal number shares
one width and distinct levels have distinct widths. Normalization is
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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import ModelParams
from .specfun import _laguerre, hermite_function, integrate
from .spectrum import QuantumState, continuum_threshold

__all__ = [
    "CartesianEigenfunction",
    "RadialEigenfunction",
    "weighted_inner_product",
    "normalize",
]


@dataclass(frozen=True)
class CartesianEigenfunction:
    """Product eigenfunction prod_i h_{n_i}(beta q_i).

    h_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)) is the orthonormal
    Hermite function. norm_constant multiplies the raw product; call
    `normalize` to fix it so the weighted norm is 1.
    """

    state: QuantumState
    params: ModelParams
    norm_constant: float = 1.0

    def __post_init__(self):
        if self.state.mode != "cartesian" or self.state.n_tuple is None:
            raise DomainError("CartesianEigenfunction needs a cartesian QuantumState")
        if self.params.lam > 0 and self.state.energy >= continuum_threshold(self.params):
            raise DomainError("state lies in the continuum regime")

    @classmethod
    def from_occupations(cls, n_tuple, params: ModelParams) -> "CartesianEigenfunction":
        return cls(state=QuantumState.cartesian(n_tuple, params), params=params)

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
        out = np.full(q.shape[:-1], self.norm_constant)
        for i, n_i in enumerate(self.state.n_tuple):
            out = out * hermite_function(n_i, self.state.beta * q[..., i])
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class RadialEigenfunction:
    """Radial eigenfunction r^l exp(-beta^2 r^2/2) L_k^(l+(N-2)/2)(beta^2 r^2).

    Behaves as r^l at the origin and has exactly k nodes on (0, inf).
    """

    k: int
    l: int
    params: ModelParams
    energy: float
    beta: float
    norm_constant: float = 1.0

    def __post_init__(self):
        if self.params.lam > 0 and self.energy >= continuum_threshold(self.params):
            raise DomainError("state lies in the continuum regime")

    @classmethod
    def from_quantum_numbers(cls, k: int, l: int, params: ModelParams) -> "RadialEigenfunction":
        state = QuantumState.radial(k, l, params)
        return cls(
            k=state.k, l=state.l, params=params, energy=state.energy, beta=state.beta
        )

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


def weighted_inner_product(f, g, params: ModelParams) -> float:
    """Scalar product <f|g> in the weighted space where H is self-adjoint.

    Both operands are eigenfunctions of one family. Cartesian: the integral
    of f*g*(1 + lam*|q|^2) over R^N, taken as sums and products of
    one-dimensional Gauss-Hermite integrals. Radial: the integral of
    f*g*(1 + lam*r^2) r^(N-1) over (0, inf) by one generalized Gauss-Laguerre
    rule. Each rule is scaled to the combined width s^2 = (beta_f^2 +
    beta_g^2)/2 and sized from the polynomial degrees, so it is exact.
    """
    if type(f) is not type(g) or not isinstance(f, (CartesianEigenfunction, RadialEigenfunction)):
        raise DomainError("the inner product needs two eigenfunctions of one family")
    lam = params.lam
    if isinstance(f, RadialEigenfunction):
        s_sq = 0.5 * (f.beta**2 + g.beta**2)

        def integrand(x):
            # x = s^2 r^2, and dr/dx = 1 / (2 s^2 r)
            r = np.sqrt(x / s_sq)
            return f(r) * g(r) * (1.0 + lam * r * r) * r ** (params.dim - 2) / (2.0 * s_sq)

        alpha = 0.5 * (f.l + g.l + params.dim - 2)
        return integrate(integrand, f.k + g.k + 1, alpha)

    beta_f, beta_g = f.state.beta, g.state.beta
    s = math.sqrt(0.5 * (beta_f**2 + beta_g**2))
    flat = []  # integral of the factor pair over q_i
    second = []  # the same with q_i^2
    for n_f, n_g in zip(f.state.n_tuple, g.state.n_tuple):
        # x = s q
        pair = lambda x, n_f=n_f, n_g=n_g: (
            hermite_function(n_f, beta_f / s * x) * hermite_function(n_g, beta_g / s * x) / s
        )
        flat.append(integrate(pair, n_f + n_g))
        second.append(integrate(lambda x, pair=pair: (x / s) ** 2 * pair(x), n_f + n_g + 2))
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
            + math.log1p(lam * (2 * f.k + alpha + 1) / f.beta**2)
        )
    beta = f.state.beta
    return -f.params.dim * math.log(beta) + math.log1p(
        lam / beta**2 * sum(n + 0.5 for n in f.state.n_tuple)
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
