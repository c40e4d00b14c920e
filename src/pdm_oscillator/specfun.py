"""One recurrence for the Hermite and Laguerre functions and their Gauss rule."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["hermite_function", "laguerre", "integrate"]


def _jacobi(n: int, alpha: float | None):
    """Jacobi coefficients b_j, a_j (j <= n+1) and log mu_0: Hermite (alpha None),
    w = exp(-x^2): b_j = 0, a_j = sqrt(j/2); Laguerre, w = x^alpha exp(-x):
    b_j = 2j+alpha+1, a_j = sqrt(j(j+alpha)). mu_0 is the integral of w."""
    if alpha is None:
        return [0.0] * (n + 2), [math.sqrt(j / 2) for j in range(n + 2)], 0.5 * math.log(math.pi)
    if alpha <= -1:
        raise DomainError(f"Laguerre parameter must exceed -1, got {alpha}")
    b = [2 * j + alpha + 1.0 for j in range(n + 2)]
    return b, [math.sqrt(j * (j + alpha)) for j in range(n + 2)], math.lgamma(alpha + 1.0)


def _orthonormal(n: int, x: np.ndarray, alpha: float | None):
    """p_{n-1}(x) and p_n(x), from a_{j+1} p_{j+1} = (x - b_j) p_j - a_j p_{j-1},
    as two mantissas below 2^500 in magnitude and one log scale, p_j = mantissa_j
    exp(scale), so that nothing overflows or underflows."""
    b, a, log_mu0 = _jacobi(n, alpha)
    # p_0 is held as 2^-1 * 2^1, so that the first step, x / a_1, cannot overflow
    prev, cur, exponent = 0.0, np.full(x.shape, 0.5), 1
    # a step grows max(|p_j|, |p_{j-1}|) by at most g = (|x| + b_n + a_1) / a_1,
    # so rescaling every 500 / log2(2g) steps keeps both below 2^500
    x_max = max(np.fmax.reduce(x, None, initial=0.0), -np.fmin.reduce(x, None, initial=0.0))
    every = max(1, int(500 / (1.0 + math.log2(x_max + b[n] + a[1]) - math.log2(a[1]))))
    for j in range(1, n + 1):
        nxt = x - b[j - 1]  # in place from here on: large arrays cost more to allocate than to fill
        nxt *= cur
        prev *= a[j - 1]
        nxt -= prev
        nxt /= a[j]
        prev, cur = cur, nxt
        if j % every == 0:
            prev, cur, exponent = _rescale(prev, cur, exponent)
    return prev, cur, exponent * math.log(2.0) - 0.5 * log_mu0


def _rescale(prev, cur, exponent):
    """Both mantissas over the power of two 2^s that brings the larger below 1; exponent + s."""
    shift = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1]
    return np.ldexp(prev, -shift), np.ldexp(cur, -shift), exponent + shift


def hermite_function(n: int, x):
    """Orthonormal Hermite function H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)),
    orthonormal on R with the flat measure dx. Finite at every x and for every
    n, since the Gaussian is kept in the recurrence's log scale."""
    if n < 0 or int(n) != n:
        raise DomainError(f"Hermite order must be an integer >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    _, h, scale = _orthonormal(int(n), x, None)
    out = h * np.exp(scale - 0.5 * x * x)
    return out if out.ndim else float(out)


def laguerre(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^(alpha)(x) for alpha > -1."""
    return _laguerre(k, alpha, x, 0.0)


def _laguerre(k: int, alpha: float, x, log_factor):
    """L_k^(alpha)(x) exp(log_factor), finite wherever the product is, also
    where L_k alone overflows: L_k^(alpha) = (-1)^k sqrt(Gamma(k+alpha+1)/k!) p_k."""
    if k < 0 or int(k) != k:
        raise DomainError(f"Laguerre order must be an integer >= 0, got {k}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("Laguerre argument must be >= 0")
    log_norm = 0.5 * (math.lgamma(k + alpha + 1.0) - math.lgamma(k + 1.0))
    _, p, scale = _orthonormal(int(k), x, alpha)
    out = (-1) ** k * p * np.exp(scale + log_norm + log_factor)
    return out if out.ndim else float(out)


def integrate(f: Callable, degree: int, alpha: float | None = None) -> float:
    """Gauss rule for the integral of f, exact when f is a polynomial of at
    most `degree` times the rule's weight.

    With alpha None the weight is exp(-x^2) on the real line (Gauss-Hermite);
    otherwise it is x^alpha exp(-x) on (0, inf) (generalized Gauss-Laguerre,
    alpha > -1). f includes the weight and is called once, on the nodes: the
    eigenvalues of the m x m Jacobi matrix (Golub & Welsch 1969), polished by
    a Newton step. The weights, with w divided out, are 1/(a_m p_m' p_{m-1} w)
    by Christoffel-Darboux, formed in the log scale, so they stay finite.
    """
    if degree < 0 or int(degree) != degree:
        raise DomainError(f"polynomial degree must be an integer >= 0, got {degree}")
    m = int(degree) // 2 + 1
    b, a, _ = _jacobi(m, alpha)

    def newton_step_and_weights(x):
        prev, cur, scale = _orthonormal(m, x, alpha)
        prev, cur, shift = _rescale(prev, cur, 0)
        # p_m' = 2 a_m p_{m-1} (Hermite); x p_m' = m p_m + a_m p_{m-1} (Laguerre)
        deriv = 2.0 * a[m] * prev if alpha is None else (m * cur + a[m] * prev) / x
        log_w = -x * x if alpha is None else alpha * np.log(x) - x
        weights = np.exp(-2.0 * (scale + shift * math.log(2.0)) - log_w) / (a[m] * prev * deriv)
        return cur / deriv, weights

    x = np.linalg.eigvalsh(np.diag(b[:m]) + np.diag(a[1:m], -1))
    x = x - newton_step_and_weights(x)[0]
    return float(newton_step_and_weights(x)[1] @ f(x))
