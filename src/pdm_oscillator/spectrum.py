"""Discrete spectrum of the deformed oscillator.

The bound-state energies solve the self-consistent equation
E = hbar * sqrt(omega^2 - 2*lam*E) * (n + N/2); the closed form and the
generic fixed-point deformation of an arbitrary solvable base spectrum live
here. The closed form, its gap below the threshold and the table are one
formula for one level, in Python floats, math.hypot and math.sqrt, mapped
over a list or an array of levels as the geometry's curves are
(geometry._elementwise), so importing this module, building a table and
writing it load no numpy. A SpectrumTable is the dict of a table's named
columns in artifact order, and its to_csv and to_json write every CLI
artifact but verify-all's. There is one bisection, _bisect, and one
fixed-point solver, _fixed_point, which bisects every level in physical
units. energy_implicit is the fixed point of the harmonic base, and both it
and solve_deformed_spectrum take a scalar, a list or an array of levels;
_fixed_point also takes omega and lam as columns, so that the levels of
many models take one call. Like _omega_of_gap, the bisection and its
checks pick their primitives by input type: a list of levels goes through
Python floats and math, so the CLI's deform of up to 1000 levels loads no
numpy, and an array through numpy, imported where it runs; both take the
same midpoints and give the same bits. In units of hbar*omega the equation
has one parameter, g = lam*hbar/omega (_dimensionless), on which the oracle
works.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import _MAX_TABLE_LEVELS, BracketingError, ConvergenceError, DomainError
from .geometry import ModelParams, _elementwise, _grid

__all__ = [
    "harmonic_base",
    "effective_frequency",
    "energy_closed_form",
    "energy_implicit",
    "threshold_gap",
    "degeneracy",
    "angular_multiplicity",
    "continuum_threshold",
    "solve_deformed_spectrum",
    "SpectrumTable",
    "spectrum_table",
]

_BISECT_ITERATIONS = 110
_BASE_SAMPLES = 33
_TINY = sys.float_info.min


def continuum_threshold(params: ModelParams) -> float:
    """Bottom omega^2/(2*lam) of the continuous spectrum.

    Returns math.inf for lam = 0 (undeformed oscillator: purely discrete
    spectrum, no finite threshold). Never forms omega^2, which may overflow
    where the threshold itself fits in a double.
    """
    if params.lam == 0:
        return math.inf
    return params.omega / (2.0 * params.lam) * params.omega


def _omega_of_gap(gap, omega, lam):
    """Omega = sqrt(2*lam*gap) of an energy `gap` below the threshold, lam > 0.

    Taken as min(omega, sqrt(2*lam) * sqrt(gap)), which is exactly 0 at the
    threshold, exactly omega where the gap rounds to the threshold, and
    never forms omega^2, so it cannot overflow. A float gap takes floats
    omega and lam and goes through math; an array gap takes floats or arrays
    that broadcast against it and goes through numpy. Both round sqrt and
    min correctly, so they give the same bits.
    """
    if isinstance(gap, float):
        sqrt, minimum = math.sqrt, min
    else:
        import numpy as np

        sqrt, minimum = np.sqrt, np.minimum
    return minimum(omega, sqrt(2.0 * lam) * sqrt(gap))


def _omega_eff(energy, params: ModelParams):
    """Omega(E) = sqrt(omega^2 - 2*lam*E) for 0 <= E <= threshold; omega at lam = 0."""
    import numpy as np

    if params.lam == 0:
        return np.full(np.shape(energy), params.omega)
    gap = np.maximum(continuum_threshold(params) - energy, 0.0)
    return _omega_of_gap(gap, params.omega, params.lam)


def effective_frequency(energy, params: ModelParams):
    """Frequency sqrt(omega^2 - 2*lam*E) of the equivalent flat oscillator.

    Defined, and positive, for energies in [0, omega^2/(2*lam)) only;
    raises DomainError elsewhere, and where Omega is 0 (omega = 0).
    """
    import numpy as np

    energy = np.asarray(energy, dtype=float)
    out = _omega_eff(energy, params)
    if np.any((energy < 0) | (energy >= continuum_threshold(params)) | (out == 0)):
        raise DomainError("energy outside [0, continuum threshold omega^2/(2*lam))")
    return out if np.ndim(out) else float(out)


def _check_spectrum(params: ModelParams) -> None:
    """Reject a model without a discrete spectrum in normal doubles.

    The ground level lies in [top/2, top] with top = min(hbar*omega*N/2,
    threshold) (see energy_implicit), so it is a normal double whenever
    top >= 2*tiny; below that the levels lose digits to underflow, down to 0.
    """
    if params.omega <= 0:
        raise DomainError("discrete spectrum requires omega > 0")
    top = min(params.hbar * params.omega * (params.dim / 2.0), continuum_threshold(params))
    if top < 2.0 * _TINY:
        raise DomainError(
            f"levels underflow a double: the ground level is below {2.0 * _TINY:.3g}"
        )


def _bisect(g, lo, hi):
    """Root of g in each bracket [lo, hi] by bisection, all brackets in lockstep.

    The brackets are floats or arrays that broadcast, and g is vectorized
    through numpy; or hi is a list, lo a float or a list, and g maps a list
    of floats to a list of numbers, Python floats or numpy scalars. One loop
    runs on either kind's column steps, numpy's ufuncs or comprehensions.
    g(lo) and g(hi) have opposite signs. Each halving keeps the end where g
    has the sign of g(lo); once no float lies strictly inside any bracket,
    the midpoints are returned, a list for list brackets. Both kinds take
    the same midpoints, so they return the same bits. A bracket as wide as
    its root collapses in about 55 halvings, but one around a root at 0
    never does; ConvergenceError is raised if _BISECT_ITERATIONS halvings
    do not get there.
    """
    if isinstance(hi, list):
        lo = lo if isinstance(lo, list) else [lo] * len(hi)
        halve = lambda lo, hi: [a + 0.5 * (b - a) for a, b in zip(lo, hi)]
        settled = lambda mid, lo, hi: all(m == a or m == b for m, a, b in zip(mid, lo, hi))
        # as floats: the bools of a base's numpy scalars do not subtract
        signs = lambda v: [float(x > 0) - float(x < 0) for x in v]
        equal = lambda a, b: [x == y for x, y in zip(a, b)]
        where = lambda keep, a, b: [x if k else y for k, x, y in zip(keep, a, b)]
        largest = lambda v: max(map(abs, v))
    else:
        import numpy as np

        lo, hi = (np.array(b, dtype=float) for b in np.broadcast_arrays(lo, hi))
        halve = lambda lo, hi: lo + 0.5 * (hi - lo)
        settled = lambda mid, lo, hi: np.all((mid == lo) | (mid == hi))
        signs, equal, where = np.sign, np.equal, np.where
        largest = lambda v: np.max(np.abs(v))

    sign_lo = signs(g(lo))
    for _ in range(_BISECT_ITERATIONS):
        mid = halve(lo, hi)
        if settled(mid, lo, hi):
            return mid if isinstance(mid, list) or mid.ndim else float(mid)
        keep_hi = equal(signs(g(mid)), sign_lo)
        lo, hi = where(keep_hi, mid, lo), where(keep_hi, hi, mid)
    widths = [b - a for a, b in zip(lo, hi)] if isinstance(lo, list) else hi - lo
    raise ConvergenceError(
        f"bisection not converged after {_BISECT_ITERATIONS} halvings: bracket width "
        f"{largest(widths):.3e}, residual {largest(g(halve(lo, hi))):.3e}"
    )


def _table_levels(n_max) -> list[int]:
    """Levels 0..n_max of a table, for an integer n_max in [0, _MAX_TABLE_LEVELS]."""
    if not 0 <= n_max <= _MAX_TABLE_LEVELS or int(n_max) != n_max:
        raise DomainError(f"n_max must be an integer in [0, {_MAX_TABLE_LEVELS}], got {n_max}")
    return list(range(int(n_max) + 1))


def _level(n) -> int:
    """One level index, an integer >= 0 given as an int or an integral float."""
    if not (isinstance(n, int) or float(n).is_integer()):
        raise DomainError("level index n must be integral")
    if n < 0:
        raise DomainError("level index n must be >= 0")
    return int(n)


def _over_levels(solve, n):
    """solve(levels) of level indices n, each checked by _level: a number
    gives a float, from solve([n]); a list or tuple a list, one solve per
    flat list; and an array an array of its shape, from solve on its flat
    integer array."""
    levels = _elementwise(_level, n)
    if isinstance(levels, list):
        if any(isinstance(k, list) for k in levels):
            return [_over_levels(solve, row) for row in levels]
        return solve(levels)
    if not hasattr(levels, "shape"):  # a number, or a 0-d array's float
        return solve([int(levels)])[0]
    out = solve(levels.astype(int).ravel())
    return out.reshape(levels.shape)


def _closed_form_ratio(params: ModelParams) -> Callable:
    """The map of one level n to nu = n + N/2 and
    omega/(hypot(hbar*lam*nu, omega) + hbar*lam*nu), free of cancellation,
    for a model that _check_spectrum accepts: the closed-form level is
    hbar*nu*ratio*omega and its gap below the threshold threshold*ratio^2.
    math.hypot rounds correctly, so the ratio does not depend on the
    platform's libm. The model's fields are read once, not per level: a
    namedtuple's field costs more to read than a local."""
    lam, omega, hbar, dim = params
    half_dim = dim / 2.0

    def ratio(n):
        nu = _level(n) + half_dim
        a = hbar * lam * nu
        return nu, omega / (math.hypot(a, omega) + a)

    return ratio


def energy_closed_form(n, params: ModelParams):
    """Bound-state energy of level n (accepts scalar or array n).

    Evaluated as hbar*nu * omega/(hypot(hbar*lam*nu, omega) + hbar*lam*nu)
    * omega with nu = n + N/2, which is the cancellation-free
    rearrangement of the textbook root and reduces to hbar*omega*nu
    at lam = 0. No intermediate exceeds max(hbar*nu, E_n), so omega^2
    is never formed and the result is finite wherever those are.
    Increasing in n wherever consecutive levels lie further apart than
    their rounding (about 4 eps E_n); closer levels, near the threshold,
    can come out equal or one ulp out of order. threshold_gap strictly
    decreases in n there too, so it orders those levels. Clamped to the
    continuum threshold, which it equals once the gap is below rounding, so
    rounding never lifts a bound level above it.
    """
    _check_spectrum(params)
    threshold = continuum_threshold(params)
    ratio_of, hbar, omega = _closed_form_ratio(params), params.hbar, params.omega

    def level(n):
        nu, ratio = ratio_of(n)
        return min(hbar * nu * ratio * omega, threshold)

    return _elementwise(level, n)


def threshold_gap(n, params: ModelParams):
    """Distance of E_n below the continuum threshold, evaluated stably.

    Equals omega^4 / (2*lam*(sqrt((hbar*lam*nu)^2+omega^2) + hbar*lam*nu)^2),
    which avoids the catastrophic cancellation of threshold - E_n near the
    accumulation point. It is evaluated as threshold * (omega/root)^2, with
    root the bracketed sum above, so omega^4 is never formed. Returns +inf
    for lam = 0, where the threshold is inf and the ratio 1.
    """
    _check_spectrum(params)
    threshold = continuum_threshold(params)
    ratio_of = _closed_form_ratio(params)

    def gap(n):
        _, ratio = ratio_of(n)
        return threshold * ratio * ratio

    return _elementwise(gap, n)


def _defect(base, threshold, omega, lam):
    """g(E, n) = base(Omega(E), n) - E, whose root in E on [0, threshold] is
    the fixed point of level n: floats through math, arrays through numpy
    (_omega_of_gap)."""
    return lambda e, n: base(_omega_of_gap(threshold - e, omega, lam), n) - e


def _fixed_point(base, n, omega, lam):
    """Fixed point E = base(Omega(E), n) of each level n, by one bisection.

    n is a list of levels, with floats omega and lam > 0, and gives a list
    of Python floats, the base called on one float and level at a time,
    also where it returns numpy scalars; or an array, with omega
    and lam floats or columns that broadcast against it, one row per model,
    and gives an array. g(E) = base(Omega(E), n) - E decreases in E for a
    base increasing in frequency, and Omega <= omega, so base(omega, n)
    bounds the root from above, as does the threshold omega^2/(2*lam): the
    bracket is [0, top], top the smaller.
    """
    threshold = omega / (2.0 * lam) * omega
    g = _defect(base, threshold, omega, lam)
    if isinstance(n, list):
        top = [float(min(base(omega, k), threshold)) for k in n]
        return _bisect(lambda e: list(map(g, e, n)), 0.0, top)
    import numpy as np

    return _bisect(lambda e: g(e, n), 0.0, np.minimum(base(omega, n), threshold))


def _scale(params: ModelParams, g: float) -> str:
    return (f"g = lam*hbar/omega = {g:.3g} (lam={params.lam:g}, hbar={params.hbar:g}, "
            f"omega={params.omega:g})")


def _dimensionless(params: ModelParams) -> ModelParams:
    """The model at hbar = omega = 1, lam = g = lam*hbar/omega, once _check_spectrum passes.

    Raises DomainError where g overflows or its threshold 1/(2g), in units
    of hbar*omega, is not a normal double.
    """
    _check_spectrum(params)
    g = 0.0
    if params.lam > 0:
        quotient = params.hbar / params.omega
        if _TINY <= quotient < math.inf:
            g = params.lam * quotient
        else:  # hbar/omega alone leaves the normal doubles where g may not
            g = params.lam * params.hbar / params.omega
        if g > 0 and not 1.0 / (2.0 * g) >= _TINY:
            raise DomainError(
                f"the threshold 1/(2g) hbar*omega underflows a double at {_scale(params, g)}"
            )
    return ModelParams(lam=g, dim=params.dim)


def energy_implicit(n, params: ModelParams):
    """Level-n energy from bracketing bisection of the self-consistent equation.

    The fixed point of the harmonic base: on the bracket [0, top] of
    _fixed_point, f(E) = hbar*Omega(E)*(n + N/2) - E has f(0) > 0 >= f(top)
    and E_n >= top/2 in every regime, so the bracket is in units of the
    level and collapses in about 55 halvings whatever lam, omega and hbar
    are. A number n gives a float, a list a list, an array an array. For
    lam = 0, E = hbar*omega*(n + N/2) directly.
    """
    _check_spectrum(params)
    base = harmonic_base(params)
    if params.lam == 0:
        return _elementwise(lambda k: base(params.omega, _level(k)), n)
    return _over_levels(lambda levels: _fixed_point(base, levels, params.omega, params.lam), n)


def degeneracy(n: int, dim: int) -> int:
    """Number of occupation tuples (n_1..n_N) with sum n: C(n+N-1, N-1)."""
    if n < 0 or int(n) != n:
        raise DomainError(f"level index must be an integer >= 0, got {n}")
    if dim < 1 or int(dim) != dim:
        raise DomainError(f"dim must be an integer >= 1, got {dim}")
    return math.comb(int(n) + int(dim) - 1, int(dim) - 1)


def angular_multiplicity(l: int, dim: int) -> int:
    """Dimension of the degree-l angular-momentum eigenspace in N dimensions.

    N >= 3: (2l+N-2)(l+N-3)! / (l!(N-2)!);  N = 2: 1 for l = 0 else 2;
    N = 1: 1 for l in {0, 1} (parity sectors) else 0.
    """
    if l < 0 or int(l) != l:
        raise DomainError(f"l must be an integer >= 0, got {l}")
    l = int(l)
    if dim == 1:
        return 1 if l in (0, 1) else 0
    if dim == 2:
        return 1 if l == 0 else 2
    return (
        (2 * l + dim - 2)
        * math.factorial(l + dim - 3)
        // (math.factorial(l) * math.factorial(dim - 2))
    )


def harmonic_base(params: ModelParams) -> Callable:
    """Isotropic-oscillator base spectrum base(w, n) = hbar*w*(n + N/2)."""
    hbar, half_dim = params.hbar, params.dim / 2.0
    return lambda w, n: hbar * w * (n + half_dim)


def _steps_against(rows, sign: float) -> bool:
    """Whether a step between neighbouring samples of some row moves against
    `sign` (+1 rising, -1 falling) by 1e-12 of the row's largest |value| or
    more: rows a list of lists, through Python floats, or an array with one
    row per level, through numpy, by the same comparisons."""
    if isinstance(rows, list):
        for row in rows:
            floor = -1e-12 * (max(map(abs, row)) + 1e-300)
            if any(sign * (b - a) <= floor for a, b in zip(row, row[1:])):
                return True
        return False
    import numpy as np

    scale = np.max(np.abs(rows), axis=-1, keepdims=True) + 1e-300
    return bool(np.any(sign * np.diff(rows) <= -1e-12 * scale))


def _check_bracket(base, levels, params: ModelParams) -> None:
    """BracketingError unless, at every level, the base is finite and
    increasing in frequency on 33 samples of [0, omega], and
    g(E) = base(Omega(E), n) - E has g(0) > 0 >= g(top) and decreases on 33
    samples of the bracket [0, top] of _fixed_point.

    A list of levels is sampled point by point in Python floats, on
    numpy.linspace's points (geometry._grid); an array in one numpy call per
    sample. Both are checked by the same comparisons, so they reach the same
    verdict.
    """
    omega, threshold = params.omega, continuum_threshold(params)
    g = _defect(base, threshold, omega, params.lam)
    if isinstance(levels, list):
        vals = [[base(w, k) for w in _grid(0.0, omega, _BASE_SAMPLES)] for k in levels]
        top = [min(base(omega, k), threshold) for k in levels]
        gvals = [[g(e, k) for e in _grid(0.0, t, _BASE_SAMPLES)] for k, t in zip(levels, top)]
        finite = all(math.isfinite(v) for row in vals for v in row)
        ends = [(row[0], row[-1]) for row in gvals]
    else:
        import numpy as np

        column = levels[:, None]
        vals = base(np.linspace(0.0, omega, _BASE_SAMPLES), column)
        top = np.minimum(base(omega, levels), threshold)
        gvals = g(np.linspace(np.zeros(len(levels)), top, _BASE_SAMPLES, axis=-1), column)
        finite = np.all(np.isfinite(vals))
        ends = zip(gvals[:, 0].tolist(), gvals[:, -1].tolist())

    if not finite:
        raise BracketingError("base spectrum returned non-finite energies")
    if _steps_against(vals, 1.0):
        raise BracketingError("base spectrum is not increasing in frequency on the sample")
    for k, (first, last) in zip(levels, ends):
        if not (first > 0 and last <= 0):
            raise BracketingError(
                f"no sign change at n={k}: g(0)={first:.3e}, g(top)={last:.3e}"
            )
    if _steps_against(gvals, -1.0):
        raise BracketingError("fixed-point map is not decreasing on the bracket")


def solve_deformed_spectrum(base: Callable, n, params: ModelParams):
    """Deformed energies of levels n for an arbitrary solvable base spectrum.

    The base spectrum is a callable base(frequency, n) -> energy of one
    float frequency and level, and, for an array of levels, one that
    broadcasts over arrays of frequency and n, as numpy arithmetic does.
    The fixed point of E = base(Omega(E), n) at each level, by one
    bisection (see _fixed_point), is well defined only when the base is
    finite, continuous and strictly increasing in the frequency; a number n
    gives a float, a list a list, an array an array, and all three the same
    bits. One sample of the base on [0, omega] and one of
    g(E) = base(Omega(E), n) - E on the bracket [0, top] per level come
    first (_check_bracket).
    """
    if params.lam <= 0:
        raise DomainError("deformation fixed point requires lam > 0")
    _check_spectrum(params)

    def solve(levels):
        _check_bracket(base, levels, params)
        return _fixed_point(base, levels, params.omega, params.lam)

    return _over_levels(solve, n)


def _values(column) -> list:
    """A column, a sequence or a numpy array, as a list of Python numbers."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


class SpectrumTable(dict):
    """Named, equally long columns in artifact order: lists from
    spectrum_table, numpy arrays from the oracle, any command's columns in
    the CLI. Its three methods are the package's table writers."""

    def to_csv(self) -> str:
        """The CSV artifact: a header line, then one line per row, integers
        as integers and floats as .17g, which round-trips."""
        cells = [
            [str(v) if isinstance(v, int) else f"{v:.17g}" for v in _values(c)]
            for c in self.values()
        ]
        return "\n".join([",".join(self), *map(",".join, zip(*cells, strict=True))]) + "\n"

    def to_json_rows(self) -> list[dict]:
        """One dict per row; inf and NaN become None."""
        values = [
            [v if isinstance(v, int) or math.isfinite(v) else None for v in _values(c)]
            for c in self.values()
        ]
        return [dict(zip(self, row)) for row in zip(*values, strict=True)]

    def to_json(self, config: dict) -> str:
        """The JSON artifact: the rows under the invocation's config."""
        import json

        return json.dumps({"config": config, "rows": self.to_json_rows()}, indent=2)


def spectrum_table(n_max: int, params: ModelParams) -> SpectrumTable:
    """Closed-form levels 0..n_max with degeneracy, gap, and residual columns.

    The residual column restates the self-consistent equation at the
    tabulated energy, |E - hbar*Omega*(n + N/2)|, with Omega taken from the
    gap column: threshold - E cancels where E rounds to the threshold, the
    gap does not. The columns are lists.
    """
    levels = _table_levels(n_max)
    energy = energy_closed_form(levels, params)
    gap = threshold_gap(levels, params)
    lam, omega, hbar, dim = params

    def residual(n, e, g):
        omega_eff = omega if lam == 0 else _omega_of_gap(g, omega, lam)
        return abs(e - hbar * omega_eff * (n + dim / 2.0))

    return SpectrumTable(
        n=levels,
        energy=energy,
        degeneracy=[degeneracy(n, params.dim) for n in levels],
        gap_to_threshold=gap,
        residual=list(map(residual, levels, energy, gap)),
    )
