"""Orthogonal polynomials and adaptive quadrature used by the eigenfunctions.

Hermite and Laguerre values come from the standard three-term recurrences.
For large Hermite order the polynomial overflows, so `hermite_function`
evaluates the orthonormal Gaussian-weighted form with a stable recurrence.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "hermite",
    "hermite_function",
    "laguerre",
    "QuadKind",
    "QuadratureSpec",
    "QuadResult",
    "integrate",
]


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x).

    Recurrence H_{k+1} = 2x H_k - 2k H_{k-1}; overflows around n ~ 150
    at moderate x, use `hermite_function` beyond that.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"Hermite order must be an integer >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def hermite_function(n: int, x):
    """Orthonormal Hermite function H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)).

    Stable for arbitrary n (values stay O(1)); orthonormal on R with the
    flat measure dx.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"Hermite order must be an integer >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    f_prev = np.exp(-0.5 * x * x) / math.pi**0.25
    if n == 0:
        return f_prev if f_prev.ndim else float(f_prev)
    f = math.sqrt(2.0) * x * f_prev
    for k in range(1, n):
        f, f_prev = (
            math.sqrt(2.0 / (k + 1)) * x * f - math.sqrt(k / (k + 1)) * f_prev,
            f,
        )
    return f if f.ndim else float(f)


def laguerre(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^(alpha)(x) for alpha > -1.

    Recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}.
    """
    if k < 0 or int(k) != k:
        raise DomainError(f"Laguerre order must be an integer >= 0, got {k}")
    if alpha <= -1:
        raise DomainError(f"Laguerre parameter must exceed -1, got {alpha}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("Laguerre argument must be >= 0")
    l_prev = np.ones_like(x)
    if k == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l_cur = 1.0 + alpha - x
    for m in range(1, k):
        l_cur, l_prev = (
            ((2 * m + 1 + alpha - x) * l_cur - (m + alpha) * l_prev) / (m + 1),
            l_cur,
        )
    return l_cur if l_cur.ndim else float(l_cur)


class QuadKind(enum.Enum):
    ADAPTIVE_INTERVAL = "adaptive-interval"
    HALF_LINE_DECAY = "half-line-with-decay"


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and refinement budget for `integrate`."""

    kind: QuadKind = QuadKind.ADAPTIVE_INTERVAL
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_refinements: int = 8

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("quadrature tolerances must be > 0")
        if self.max_refinements < 1:
            raise DomainError("max_refinements must be >= 1")


class QuadResult(NamedTuple):
    value: float
    error: float


def _truncation_radius(f: Callable[[float], float], start: float, cutoff: float) -> float:
    """Smallest power-of-two radius past which |f| stays below cutoff."""
    r = max(start, 1.0)
    for _ in range(64):
        if all(abs(f(r * s)) < cutoff for s in (1.0, 1.3, 1.7)):
            return r * 2.0
        r *= 2.0
    raise ConvergenceError("integrand does not decay below the truncation cutoff")


def integrate(
    f: Callable[[float], float],
    domain: tuple[float, float],
    spec: QuadratureSpec | None = None,
) -> QuadResult:
    """Adaptive quadrature of f over [a, b], where a and/or b may be infinite.

    Infinite endpoints require kind HALF_LINE_DECAY and a decaying
    integrand: the domain is truncated where |f| < abs_tol/100 (the
    integrands used here all carry explicit Gaussian decay). Raises
    ConvergenceError (carrying the last estimate) if the error estimate
    still exceeds the tolerances after max_refinements subdivision-limit
    increases.
    """
    if spec is None:
        spec = QuadratureSpec()
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise DomainError(f"empty integration domain [{a}, {b}]")
    unbounded = math.isinf(a) or math.isinf(b)
    if unbounded and spec.kind is not QuadKind.HALF_LINE_DECAY:
        raise DomainError("infinite endpoints require QuadKind.HALF_LINE_DECAY")

    cutoff = spec.abs_tol * 1e-2
    if math.isinf(b):
        b = _truncation_radius(f, 1.0 if math.isinf(a) else abs(a) + 1.0, cutoff)
    if math.isinf(a):
        a = -_truncation_radius(lambda x: f(-x), 1.0, cutoff)

    from scipy.integrate import IntegrationWarning, quad

    limit = 50
    value = err = math.nan
    for _ in range(spec.max_refinements):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            value, err = quad(
                f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=limit
            )
        if err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            return QuadResult(value, err)
        limit *= 2
    raise ConvergenceError(
        f"quadrature error {err:.3e} above tolerance after "
        f"{spec.max_refinements} refinements",
        estimate=value,
        error=err,
    )
