"""Orthogonal functions and the Gauss rule used by the eigenfunctions.

Hermite functions and Laguerre polynomials come from their three-term
recurrences; the Hermite function is the orthonormal Gaussian-weighted form,
whose values stay O(1) at every order. Every integrand the eigenfunctions
need is a polynomial times a Gaussian, so one Gauss rule of the right size
integrates it exactly (Golub & Welsch 1969).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError

__all__ = [
    "hermite_function",
    "laguerre",
    "integrate",
]


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


def integrate(f: Callable, degree: int, alpha: float | None = None) -> float:
    """Gauss rule for the integral of f, exact when f is a polynomial of at
    most `degree` times the rule's weight.

    With alpha None the weight is exp(-x^2) on the real line (Gauss-Hermite);
    otherwise it is x^alpha exp(-x) on (0, inf) (generalized Gauss-Laguerre,
    alpha > -1). f includes the weight and is called once, on the array of
    nodes; the rule's weights have the weight function divided out. For
    Gauss-Hermite these are the Christoffel numbers 1/(m h_{m-1}(x_i)^2) of
    the Hermite functions h, which stay finite at every order.
    """
    if degree < 0 or int(degree) != degree:
        raise DomainError(f"polynomial degree must be an integer >= 0, got {degree}")
    m = int(degree) // 2 + 1
    if alpha is None:
        x = hermgauss(m)[0]
        w = 1.0 / (m * hermite_function(m - 1, x) ** 2)
    else:
        if alpha <= -1:
            raise DomainError(f"Laguerre parameter must exceed -1, got {alpha}")
        from scipy.special import roots_genlaguerre

        x, w = roots_genlaguerre(m, alpha)
        w = w * np.exp(x) * x**-alpha
    return float(w @ f(x))
