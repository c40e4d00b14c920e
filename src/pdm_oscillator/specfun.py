"""One recurrence for the Hermite and Laguerre functions and their Gauss rule.

The recurrence (_orthonormal) and the Laguerre functions take a float,
through Python floats and math, or an array, through numpy, by the same
steps; the Hermite functions and the Gauss rules work on arrays. numpy is
imported where an array is worked on, so a Laguerre function of floats
loads none.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .errors import DomainError

__all__ = ["hermite_function", "laguerre", "integrate"]


@functools.lru_cache(maxsize=8)
def _jacobi(n: int, alpha: float | None):
    """Jacobi coefficients b_j, a_j (j <= n+1), as tuples, and log mu_0: Hermite
    (alpha None), w = exp(-x^2): b_j = 0, a_j = sqrt(j/2); Laguerre,
    w = x^alpha exp(-x): b_j = 2j+alpha+1, a_j = sqrt(j(j+alpha)). mu_0 is
    the integral of w. Cached, as a state sampled point by point asks for
    the same coefficients at every point."""
    if alpha is None:
        a = tuple(math.sqrt(j / 2) for j in range(n + 2))
        return (0.0,) * (n + 2), a, 0.5 * math.log(math.pi)
    if alpha <= -1:
        raise DomainError(f"Laguerre parameter must exceed -1, got {alpha}")
    b = tuple(2 * j + alpha + 1.0 for j in range(n + 2))
    return b, tuple(math.sqrt(j * (j + alpha)) for j in range(n + 2)), math.lgamma(alpha + 1.0)


def _orthonormal(n: int, x, alpha: float | None):
    """p_{n-1}(x) and p_n(x), from a_{j+1} p_{j+1} = (x - b_j) p_j - a_j p_{j-1},
    as two mantissas below 2^500 in magnitude and one log scale, p_j = mantissa_j
    exp(scale), so that nothing overflows or underflows. x is a float or an
    array; the in-place steps rebind a float and fill an array."""
    b, a, log_mu0 = _jacobi(n, alpha)
    # p_0 is held as 2^-1 * 2^1, so that the first step, x / a_1, cannot overflow;
    # a step grows max(|p_j|, |p_{j-1}|) by at most g = (|x| + b_n + a_1) / a_1,
    # so rescaling every 500 / log2(2g) steps keeps both below 2^500. NaN is
    # left out of the largest |x|.
    if isinstance(x, float):
        cur, x_max = 0.5, max(0.0, x, -x)
    else:
        import numpy as np

        cur = np.full(x.shape, 0.5)
        x_max = max(np.fmax.reduce(x, None, initial=0.0), -np.fmin.reduce(x, None, initial=0.0))
    prev, exponent = 0.0, 1
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
    """Both mantissas over the power of two 2^s that brings the larger below 1;
    exponent + s. Floats go through math, arrays through numpy."""
    if isinstance(cur, float):
        frexp, ldexp, maximum = math.frexp, math.ldexp, max
    else:
        import numpy as np

        frexp, ldexp, maximum = np.frexp, np.ldexp, np.maximum
    shift = frexp(maximum(abs(prev), abs(cur)))[1]
    return ldexp(prev, -shift), ldexp(cur, -shift), exponent + shift


def hermite_function(n: int, x):
    """Orthonormal Hermite function H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)),
    orthonormal on R with the flat measure dx. Finite at every x and for every
    n, since the Gaussian is kept in the recurrence's log scale."""
    import numpy as np

    if n < 0 or int(n) != n:
        raise DomainError(f"Hermite order must be an integer >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    _, h, scale = _orthonormal(int(n), x, None)
    out = h * np.exp(scale - 0.5 * x * x)
    return out if out.ndim else float(out)


def _exp(v: float) -> float:
    """math.exp, but inf where it overflows, as numpy's exp gives."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def laguerre(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^(alpha)(x) for alpha > -1, of a
    number (a float) or an array."""
    return _laguerre(k, alpha, x, 0.0)


def _laguerre(k: int, alpha: float, x, log_factor):
    """L_k^(alpha)(x) exp(log_factor), finite wherever the product is, also
    where L_k alone overflows: L_k^(alpha) = (-1)^k sqrt(Gamma(k+alpha+1)/k!) p_k.
    A number x, with a float log_factor, goes through math and gives a float;
    an array through numpy, with log_factor a float or an array like it.
    Where the product overflows, both give a signed inf."""
    if k < 0 or int(k) != k:
        raise DomainError(f"Laguerre order must be an integer >= 0, got {k}")
    if isinstance(x, (int, float)):
        x, exp, negative = float(x), _exp, x < 0
    else:
        import numpy as np

        x = np.asarray(x, dtype=float)
        exp, negative = np.exp, np.any(x < 0)
    if negative:
        raise DomainError("Laguerre argument must be >= 0")
    log_norm = 0.5 * (math.lgamma(k + alpha + 1.0) - math.lgamma(k + 1.0))
    _, p, scale = _orthonormal(int(k), x, alpha)
    out = (-1) ** k * p * exp(scale + log_norm + log_factor)
    return out if isinstance(out, float) or out.ndim else float(out)


_RULE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _rule(m: int, alpha: float | None) -> tuple:
    """The m-point Gauss rule's nodes and weights, w divided out, read-only.

    With alpha None the weight is w = exp(-x^2) on the real line
    (Gauss-Hermite); otherwise it is x^alpha exp(-x) on (0, inf)
    (generalized Gauss-Laguerre, alpha > -1). The nodes are the eigenvalues
    of the m x m Jacobi matrix (Golub & Welsch 1969), polished by a Newton
    step. The weights are 1/(a_m p_m' p_{m-1} w) by Christoffel-Darboux,
    formed in the log scale, so they stay finite. Built once per (m, alpha).
    """
    import numpy as np

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
    weights = newton_step_and_weights(x)[1]
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def integrate(f: Callable, degree: int, alpha: float | None = None):
    """Gauss rule for the integral of f, exact when f is a polynomial of at
    most `degree` times the rule's weight.

    With alpha None the weight is exp(-x^2) on the real line (Gauss-Hermite);
    otherwise it is x^alpha exp(-x) on (0, inf) (generalized Gauss-Laguerre,
    alpha > -1). f includes the weight and is called once, on the nodes of
    the rule `_rule` builds once per size and family. f may return one value
    per node, for a float, or a stacked (k, m) array of k integrands, for an
    array of their k integrals, each equal to its own scalar integral.
    """
    import numpy as np

    if degree < 0 or int(degree) != degree:
        raise DomainError(f"polynomial degree must be an integer >= 0, got {degree}")
    x, weights = _rule(int(degree) // 2 + 1, alpha)
    values = f(x)
    if np.ndim(values) == 2:
        return np.array([weights @ v for v in values])
    return float(weights @ values)
