"""Model parameters, geometry, and potentials of the deformed oscillator.

The model lives on R^N with conformal metric factor m(r) = 1 + lam*r^2,
which doubles as a position-dependent mass. Everything here is a pure
function of immutable inputs; all other modules build on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "ModelParams",
    "EffectivePotentialSpec",
    "metric_factor",
    "scalar_curvature",
    "potential",
    "effective_potential",
    "effective_minimum",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration shared by every module.

    lam   : deformation strength (1/length^2), >= 0
    omega : oscillator frequency, >= 0
    hbar  : quantum of action, > 0
    dim   : spatial dimension N, >= 1
    """

    lam: float
    omega: float = 1.0
    hbar: float = 1.0
    dim: int = 3

    def __post_init__(self):
        if not math.isfinite(self.lam) or self.lam < 0:
            raise DomainError(f"lam must be finite and >= 0, got {self.lam}")
        if not math.isfinite(self.omega) or self.omega < 0:
            raise DomainError(f"omega must be finite and >= 0, got {self.omega}")
        if not math.isfinite(self.hbar) or self.hbar <= 0:
            raise DomainError(f"hbar must be finite and > 0, got {self.hbar}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise DomainError(f"dim must be an integer >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True)
class EffectivePotentialSpec:
    """Radial problem at fixed total squared angular momentum c_n >= 0."""

    params: ModelParams
    c_n: float

    def __post_init__(self):
        if not math.isfinite(self.c_n) or self.c_n < 0:
            raise DomainError(f"c_n must be finite and >= 0, got {self.c_n}")


def _check_radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radius must be >= 0")
    return r


def metric_factor(r, params: ModelParams):
    """Conformal factor 1 + lam*r^2 of the metric (also the mass function)."""
    r = _check_radius(r)
    out = 1.0 + params.lam * r * r
    return out if out.ndim else float(out)


def scalar_curvature(r, params: ModelParams):
    """Scalar curvature R(r); negative, increasing, and -> 0 at infinity.

    R(0) = -2*lam*N*(N-1), the curvature of the hyperbolic space with
    sectional curvature -2*lam. Identically zero for N = 1.
    """
    r = _check_radius(r)
    lam, n = params.lam, params.dim
    lr2 = lam * r * r
    m = 1.0 + lr2
    # the cube as a product: np.power's result depends on numpy's SIMD target
    out = -lam * (n - 1) * (n * (2.0 + 3.0 * lr2) - 6.0 * lr2) / (m * m * m)
    return out if out.ndim else float(out)


def potential(r, params: ModelParams):
    """Central potential omega^2 r^2 / (2 (1 + lam r^2)).

    Vanishes at the origin and saturates at omega^2/(2*lam) for lam > 0.
    """
    r = _check_radius(r)
    out = params.omega**2 * r * r / (2.0 * (1.0 + params.lam * r * r))
    return out if out.ndim else float(out)


def effective_potential(r, spec: EffectivePotentialSpec):
    """Radial effective potential with centrifugal term c_n/(2 m(r) r^2).

    Diverges as r -> 0+ when c_n > 0 and tends to omega^2/(2*lam) at
    infinity. For c_n = 0 the value at r = 0 is the removable limit 0.
    """
    r = _check_radius(r)
    p = spec.params
    if spec.c_n > 0 and np.any(r == 0):
        raise DomainError("effective potential is singular at r=0 for c_n > 0")
    m = 1.0 + p.lam * r * r
    with np.errstate(divide="ignore", invalid="ignore"):
        cent = np.where(r > 0, spec.c_n / (2.0 * m * np.where(r > 0, r, 1.0) ** 2), 0.0)
    out = cent + p.omega**2 * r * r / (2.0 * m)
    return out if out.ndim else float(out)


def effective_minimum(spec: EffectivePotentialSpec) -> tuple[float, float]:
    """Location r_min and value u_min of the effective-potential minimum.

    r_min^2 = (lam*c + sqrt(lam^2 c^2 + omega^2 c)) / omega^2 and
    u_min   = -lam*c + sqrt(lam^2 c^2 + omega^2 c); the lam = 0 limits are
    r_min^2 = sqrt(c)/omega and u_min = omega*sqrt(c).
    """
    p = spec.params
    c = spec.c_n
    if p.omega <= 0:
        raise DomainError("effective potential has no minimum for omega = 0")
    if c <= 0:
        raise DomainError("effective minimum requires c_n > 0")
    s = math.sqrt(p.lam * p.lam * c * c + p.omega**2 * c)
    r_min = math.sqrt((p.lam * c + s) / p.omega**2)
    u_min = -p.lam * c + s
    return r_min, u_min

