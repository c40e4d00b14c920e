"""Model parameters, geometry, and potentials of the deformed oscillator.

The model lives on R^N with conformal metric factor m(r) = 1 + lam*r^2,
which doubles as a position-dependent mass. Everything here is a pure
function of immutable inputs; all other modules build on top.

Each curve is one closed form for one radius, in Python floats and the
math module, so importing this module loads no numpy. A curve takes a
radius, a list or tuple of radii, or a numpy array of them, and returns a
float, a list, or an array of the array's shape (_elementwise); numpy is
imported for an array only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "ModelParams",
    "metric_factor",
    "scalar_curvature",
    "potential",
    "effective_potential",
    "effective_minimum",
]

# more than twice the 17 digits a double needs, so that effective_minimum's
# results round correctly but in near-ties
_EFFECTIVE_MINIMUM_DIGITS = 40


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


def _elementwise(formula, x):
    """formula(x) of a number; of each element of a list or tuple, as a list
    (of lists, for nested ones); and of each element of anything else, taken
    as a numpy array, as an array of its shape (a float for a 0-d one)."""
    if isinstance(x, (int, float)):
        return formula(x)
    if isinstance(x, (list, tuple)):
        return [_elementwise(formula, v) for v in x]
    import numpy as np

    x = np.asarray(x)
    out = np.array([formula(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    return out if out.ndim else float(out)


def _check_cn(c_n: float) -> None:
    """Total squared angular momentum c_n of the radial problem: finite and >= 0."""
    if not math.isfinite(c_n) or c_n < 0:
        raise DomainError(f"c_n must be finite and >= 0, got {c_n}")


def _radius(r) -> float:
    r = float(r)
    if r < 0:
        raise DomainError("radius must be >= 0")
    return r


def _far(r: float, lam: float):
    """z = 1/(lam*r^2) past sqrt(lam)*r = 2^26, where 1 + lam*r^2 rounds to
    lam*r^2; None nearer in, and at lam = 0.

    z <= 2^-52 is taken as (1/r)/lam/r: no step overflows, whereas r^2 and
    lam*r^2 do from r of about 1e154.
    """
    if lam > 0 and r > 2.0**26 / math.sqrt(lam):
        return 1.0 / r / lam / r
    return None


def metric_factor(r, params: ModelParams):
    """Conformal factor 1 + lam*r^2 of the metric (also the mass function)."""

    def at(r):
        r = _radius(r)
        return 1.0 + params.lam * r * r

    return _elementwise(at, r)


def scalar_curvature(r, params: ModelParams):
    """Scalar curvature R(r); negative, increasing, and -> 0 at infinity.

    R = -lam (N-1) (2N + 3(N-2) lam r^2) / (1 + lam r^2)^3, so
    R(0) = -2*lam*N*(N-1), the curvature of the hyperbolic space with
    sectional curvature -2*lam. Identically zero for N = 1. Past the split
    of _far, numerator and denominator are divided by (lam r^2)^3, so R
    underflows gracefully instead of overflowing the cube; z^2 comes last
    there, so only the final rounding can fall below the normals. The cubes
    are products, not pow, whose last digit is the libm's choice.
    """
    lam, n = params.lam, params.dim
    coef = -lam * (n - 1)

    def at(r):
        r = _radius(r)
        z = _far(r, lam)
        if z is not None:
            w = 1.0 + z
            return coef * (2.0 * n * z + 3.0 * (n - 2)) / (w * w * w) * z * z
        x = lam * r * r
        m = 1.0 + x
        return coef * (2.0 * n + 3.0 * (n - 2) * x) / (m * m * m)

    return _elementwise(at, r)


def _potential(r: float, params: ModelParams) -> float:
    z = _far(r, params.lam)
    if z is not None:
        return params.omega / (2.0 * params.lam) * params.omega / (1.0 + z)
    return params.omega * (params.omega * (r * r / (2.0 * (1.0 + params.lam * r * r))))


def potential(r, params: ModelParams):
    """Central potential omega^2 r^2 / (2 (1 + lam r^2)).

    Vanishes at the origin and saturates at omega^2/(2*lam) for lam > 0.
    Taken as omega*(omega*(r^2/(2(1 + lam r^2)))), which never forms
    omega^2. Past the split of _far it is omega^2/(2*lam) / (1 + z),
    z = 1/(lam r^2).
    """
    return _elementwise(lambda r: _potential(_radius(r), params), r)


def effective_potential(r, params: ModelParams, c_n: float):
    """Radial effective potential with centrifugal term c_n/(2 m(r) r^2).

    c_n >= 0 is the total squared angular momentum of the radial problem.
    Diverges as r -> 0+ when c_n > 0 and tends to omega^2/(2*lam) at
    infinity. For c_n = 0 the centrifugal term is 0, also at r = 0, the
    removable limit. Past the split of _far the centrifugal term is
    c_n lam z^2/(2(1+z)) with z = 1/(lam r^2), z^2 taken last, as in
    scalar_curvature; where lam*c_n overflows it is (c_n z)(lam z)/(2(1+z)),
    whose factors cannot. Nearer in it is inf where 2 m r^2 underflows to 0.
    """
    _check_cn(c_n)
    lam = params.lam

    def at(r):
        r = _radius(r)
        z = _far(r, lam)
        if z is not None:
            if math.isinf(c_n * lam):
                cent = (c_n * z) * (lam * z) / (2.0 * (1.0 + z))
            else:
                cent = c_n * lam / (2.0 * (1.0 + z)) * z * z
        elif c_n == 0:
            cent = 0.0
        elif r == 0:
            raise DomainError("effective potential is singular at r=0 for c_n > 0")
        else:
            denominator = 2.0 * (1.0 + lam * r * r) * (r * r)
            cent = c_n / denominator if denominator > 0 else math.inf
        return cent + _potential(r, params)

    return _elementwise(at, r)


def effective_minimum(params: ModelParams, c_n: float) -> tuple[float, float]:
    """Location r_min and value u_min of the effective-potential minimum.

    r_min^2 = s/omega^2 and u_min = omega^2 c/s = -lam*c + sqrt(lam^2 c^2 + omega^2 c),
    with s = lam*c + sqrt(lam^2 c^2 + omega^2 c); the lam = 0 limits are
    r_min^2 = sqrt(c)/omega and u_min = omega*sqrt(c). Both are taken in
    decimal arithmetic at _EFFECTIVE_MINIMUM_DIGITS digits, u_min as
    omega^2 c/s, which does not cancel; the decimal exponent range holds every
    intermediate at any double inputs, and each result is rounded once to a
    double. So each is finite wherever it fits a double, and inf or 0 only
    where it leaves the doubles.
    """
    import decimal

    _check_cn(c_n)
    if params.omega <= 0:
        raise DomainError("effective potential has no minimum for omega = 0")
    if c_n <= 0:
        raise DomainError("effective minimum requires c_n > 0")
    with decimal.localcontext(decimal.Context(prec=_EFFECTIVE_MINIMUM_DIGITS)):
        lam, omega, c = (decimal.Decimal(v) for v in (params.lam, params.omega, c_n))
        s = lam * c + (lam * lam * c * c + omega * omega * c).sqrt()
        return float(s.sqrt() / omega), float(omega * omega * c / s)
