"""Bound-state eigenfunctions and the weighted inner product.

Both families carry the energy-dependent Gaussian width beta =
sqrt(Omega(E)/hbar), so every state of the same principal number shares
one width and distinct levels have distinct widths. Normalization is
taken in the weighted space L^2((1 + lam*q^2) dq) where the Hamiltonian
is self-adjoint; the measure for the radial family is
(1 + lam*r^2) r^(N-1) dr with the angular factor assumed orthonormal.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import ModelParams
from .specfun import (
    QuadKind,
    QuadratureSpec,
    hermite,
    hermite_function,
    integrate,
    laguerre,
)
from .spectrum import QuantumState, continuum_threshold

__all__ = [
    "CartesianEigenfunction",
    "RadialEigenfunction",
    "cartesian_factor",
    "weighted_inner_product",
    "normalize",
]

# Above this order the bare polynomial-times-Gaussian product overflows,
# so factors switch to the orthonormal Hermite-function recurrence (same
# shape, different constant; normalize() fixes the physical scale).
_PLAIN_ORDER_MAX = 50

_DEFAULT_SPEC = QuadratureSpec(kind=QuadKind.HALF_LINE_DECAY)


def cartesian_factor(n: int, x):
    """One-dimensional factor H_n(x) exp(-x^2/2), overflow-safe for large n."""
    if n <= _PLAIN_ORDER_MAX:
        x = np.asarray(x, dtype=float)
        out = hermite(n, x) * np.exp(-0.5 * x * x)
        return out if np.ndim(out) else float(out)
    return hermite_function(n, x)


@dataclass(frozen=True)
class CartesianEigenfunction:
    """Product eigenfunction prod_i H_{n_i}(beta q_i) exp(-beta^2 q_i^2 / 2).

    norm_constant multiplies the raw product; call `normalize` to fix it so
    the weighted norm is 1.
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
            out = out * cartesian_factor(n_i, self.state.beta * q[..., i])
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
        out = (
            self.norm_constant
            * r**self.l
            * np.exp(-0.5 * x)
            * laguerre(self.k, self.laguerre_parameter, x)
        )
        return out if out.ndim else float(out)


def _decay_radius(f, params: ModelParams, kind: str, cutoff: float) -> float:
    if kind == "radial":
        probe = lambda r: f(r) ** 2 * (1.0 + params.lam * r * r) * r ** (params.dim - 1)
    else:
        probe = lambda r: sum(
            f(r * e) ** 2 * (1.0 + params.lam * r * r)
            for e in np.eye(params.dim)
        )
    r = 1.0
    for _ in range(64):
        if abs(probe(r)) < cutoff and abs(probe(1.4 * r)) < cutoff:
            return 2.0 * r
        r *= 2.0
    raise DomainError("integrand does not appear to decay")


def weighted_inner_product(
    f,
    g,
    params: ModelParams,
    kind: str | None = None,
    spec: QuadratureSpec | None = None,
) -> float:
    """Scalar product <f|g> in the weighted space where H is self-adjoint.

    kind "cartesian": integral of f*g*(1 + lam*|q|^2) over R^N (iterated
    adaptive quadrature for N >= 2, so keep N small there);
    kind "radial": integral of f*g*(1 + lam*r^2) r^(N-1) over (0, inf).
    When kind is None it is inferred from the operand types.
    """
    if spec is None:
        spec = _DEFAULT_SPEC
    if kind is None:
        if isinstance(f, RadialEigenfunction) or isinstance(g, RadialEigenfunction):
            kind = "radial"
        else:
            kind = "cartesian"

    lam = params.lam
    if kind == "radial":
        integrand = lambda r: f(r) * g(r) * (1.0 + lam * r * r) * r ** (params.dim - 1)
        return integrate(integrand, (0.0, math.inf), spec).value
    if kind != "cartesian":
        raise DomainError(f"unknown inner-product kind {kind!r}")

    if params.dim == 1:
        integrand = lambda q: f(q) * g(q) * (1.0 + lam * q * q)
        return integrate(integrand, (-math.inf, math.inf), spec).value

    from scipy.integrate import nquad

    box = _decay_radius(f, params, "cartesian", spec.abs_tol * 1e-2)

    def integrand(*xs):
        q = np.array(xs)
        return f(q) * g(q) * (1.0 + lam * float(q @ q))

    value, err = nquad(
        integrand,
        [[-box, box]] * params.dim,
        opts={"epsabs": spec.abs_tol, "epsrel": spec.rel_tol},
    )
    return value


def _weighted_norm_squared(f, spec: QuadratureSpec) -> float:
    """Weighted norm^2, using the product structure for Cartesian states."""
    params = f.params
    lam = params.lam
    if isinstance(f, RadialEigenfunction):
        return weighted_inner_product(f, f, params, kind="radial", spec=spec)

    beta = f.state.beta
    flat = []
    second = []
    for n_i in f.state.n_tuple:
        h = lambda q, n_i=n_i: cartesian_factor(n_i, beta * q) ** 2
        flat.append(integrate(h, (-math.inf, math.inf), spec).value)
        second.append(
            integrate(lambda q: q * q * h(q), (-math.inf, math.inf), spec).value
        )
    total = float(np.prod(flat))
    for j in range(len(flat)):
        total += lam * second[j] * float(np.prod(flat[:j] + flat[j + 1 :]))
    return f.norm_constant**2 * total


def normalize(f, spec: QuadratureSpec | None = None):
    """Return a copy of the eigenfunction with unit weighted norm.

    Idempotent up to quadrature tolerance; raises DomainError for an
    identically zero function.
    """
    if spec is None:
        spec = _DEFAULT_SPEC
    norm_sq = _weighted_norm_squared(f, spec)
    if not math.isfinite(norm_sq) or norm_sq <= 0:
        raise DomainError("cannot normalize a function with vanishing norm")
    return dataclasses.replace(f, norm_constant=f.norm_constant / math.sqrt(norm_sq))
