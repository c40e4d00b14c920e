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


def _split(r, lam):
    """Split the radii at sqrt(lam)*r = 2^26, past which 1 + lam*r^2 rounds to lam*r^2.

    Returns the mask of the far radii, r with those set to 0, and
    z = 1/(lam*r^2) <= 2^-52 at them (0 elsewhere), taken as (1/r)/lam/r:
    no step overflows, whereas r^2 and lam*r^2 do from r of about 1e154.
    """
    if lam == 0:
        return np.zeros(r.shape, dtype=bool), r, np.zeros(r.shape)
    far = r > 2.0**26 / math.sqrt(lam)
    z = np.divide(1.0, r, out=np.zeros(r.shape), where=far)
    z /= lam
    np.divide(z, r, out=z, where=far)
    return far, np.where(far, 0.0, r), z


def scalar_curvature(r, params: ModelParams):
    """Scalar curvature R(r); negative, increasing, and -> 0 at infinity.

    R = -lam (N-1) (2N + 3(N-2) lam r^2) / (1 + lam r^2)^3, so
    R(0) = -2*lam*N*(N-1), the curvature of the hyperbolic space with
    sectional curvature -2*lam. Identically zero for N = 1. Past the split
    of _split, numerator and denominator are divided by (lam r^2)^3, so R
    underflows gracefully instead of overflowing the cube.
    """
    r = _check_radius(r)
    lam, n = params.lam, params.dim
    far, r, z = _split(r, lam)
    x = lam * r * r
    m = 1.0 + x
    w = 1.0 + z
    coef = -lam * (n - 1)
    # the cubes as products: np.power's result depends on numpy's SIMD target;
    # z^2 comes last, so only the final rounding can fall below the normals
    out = np.where(
        far,
        coef * (2.0 * n * z + 3.0 * (n - 2)) / (w * w * w) * z * z,
        coef * (2.0 * n + 3.0 * (n - 2) * x) / (m * m * m),
    )
    return out if out.ndim else float(out)


def potential(r, params: ModelParams):
    """Central potential omega^2 r^2 / (2 (1 + lam r^2)).

    Vanishes at the origin and saturates at omega^2/(2*lam) for lam > 0.
    Past the split of _split it is omega^2/(2*lam) / (1 + z), z = 1/(lam r^2).
    """
    r = _check_radius(r)
    far, near, z = _split(r, params.lam)
    out = params.omega**2 * near * near / (2.0 * (1.0 + params.lam * near * near))
    if params.lam > 0:
        out = np.where(far, params.omega / (2.0 * params.lam) * params.omega / (1.0 + z), out)
    return out if out.ndim else float(out)


def effective_potential(r, spec: EffectivePotentialSpec):
    """Radial effective potential with centrifugal term c_n/(2 m(r) r^2).

    Diverges as r -> 0+ when c_n > 0 and tends to omega^2/(2*lam) at
    infinity. For c_n = 0 the value at r = 0 is the removable limit 0.
    Past the split of _split the centrifugal term is c_n lam z^2/(2(1+z))
    with z = 1/(lam r^2), z^2 taken last, as in scalar_curvature.
    """
    r = _check_radius(r)
    p = spec.params
    if spec.c_n > 0 and np.any(r == 0):
        raise DomainError("effective potential is singular at r=0 for c_n > 0")
    far, near, z = _split(r, p.lam)
    m = 1.0 + p.lam * near * near
    with np.errstate(divide="ignore", invalid="ignore"):
        cent = np.where(near > 0, spec.c_n / (2.0 * m * np.where(near > 0, near, 1.0) ** 2), 0.0)
    cent = np.where(far, spec.c_n * p.lam / (2.0 * (1.0 + z)) * z * z, cent)
    out = cent + potential(r, p)
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

