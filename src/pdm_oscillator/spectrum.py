"""Discrete spectrum of the deformed oscillator.

The bound-state energies solve the self-consistent equation
E = hbar * sqrt(omega^2 - 2*lam*E) * (n + N/2); the closed form, the
bisection solver for the implicit equation, and the generic fixed-point
deformation of an arbitrary solvable base spectrum all live here, with the
one bisection that both solvers and the classical closure check share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BracketingError, ConvergenceError, DomainError
from .geometry import ModelParams

__all__ = [
    "QuantumState",
    "BaseSpectrum",
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
    "write_csv",
    "json_rows",
]

_MAX_TABLE_LEVELS = 100_000
_BISECT_ITERATIONS = 110
_TINY = float(np.finfo(float).tiny)


def continuum_threshold(params: ModelParams) -> float:
    """Bottom omega^2/(2*lam) of the continuous spectrum.

    Returns math.inf for lam = 0 (undeformed oscillator: purely discrete
    spectrum, no finite threshold). Never forms omega^2, which may overflow
    where the threshold itself fits in a double.
    """
    if params.lam == 0:
        return math.inf
    return params.omega / (2.0 * params.lam) * params.omega


def _omega_eff(energy, params: ModelParams):
    """Omega(E) = sqrt(omega^2 - 2*lam*E) for 0 <= E <= threshold.

    Taken as min(omega, sqrt(2*lam) * sqrt(threshold - E)), which is exactly
    0 at the threshold, exactly omega where 2*lam*E is below the rounding of
    omega^2, and never forms omega^2, so it cannot overflow.
    """
    if params.lam == 0:
        return np.full(np.shape(energy), params.omega)
    gap = np.maximum(continuum_threshold(params) - energy, 0.0)
    return np.minimum(params.omega, math.sqrt(2.0 * params.lam) * np.sqrt(gap))


def effective_frequency(energy, params: ModelParams):
    """Frequency sqrt(omega^2 - 2*lam*E) of the equivalent flat oscillator.

    Defined, and positive, for energies in [0, omega^2/(2*lam)) only;
    raises DomainError elsewhere, and where Omega is 0 (omega = 0).
    """
    energy = np.asarray(energy, dtype=float)
    out = _omega_eff(energy, params)
    if np.any((energy < 0) | (energy >= continuum_threshold(params)) | (out == 0)):
        raise DomainError("energy outside [0, continuum threshold omega^2/(2*lam))")
    return out if out.ndim else float(out)


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
    """Root of g in each bracket [lo, hi] (arrays or scalars) by bisection.

    g is vectorized, and g(lo) and g(hi) have opposite signs. Each halving
    keeps the end where g has the sign of g(lo); once no float lies strictly
    inside any bracket, the midpoint is returned. A bracket as wide as its
    root collapses in about 55 halvings, but one around a root at 0 never
    does; ConvergenceError is raised if _BISECT_ITERATIONS halvings do not
    get there.
    """
    lo, hi = (np.array(b, dtype=float) for b in np.broadcast_arrays(lo, hi))
    sign_lo = np.sign(g(lo))
    for _ in range(_BISECT_ITERATIONS):
        mid = lo + 0.5 * (hi - lo)
        if np.all((mid == lo) | (mid == hi)):
            return mid if mid.ndim else float(mid)
        keep_hi = np.sign(g(mid)) == sign_lo
        lo = np.where(keep_hi, mid, lo)
        hi = np.where(keep_hi, hi, mid)
    raise ConvergenceError(
        f"bisection not converged after {_BISECT_ITERATIONS} halvings: bracket width "
        f"{np.max(hi - lo):.3e}, residual {np.max(np.abs(g(lo + 0.5 * (hi - lo)))):.3e}"
    )


def _check_levels(n) -> np.ndarray:
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer):
        if not np.all(n == np.floor(n)):
            raise DomainError("level index n must be integral")
        n = n.astype(int)
    if np.any(n < 0):
        raise DomainError("level index n must be >= 0")
    return n


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
    decreases in n there too, so it orders those levels. At most the
    continuum threshold, which it equals once the gap is below rounding.
    """
    _check_spectrum(params)
    n = _check_levels(n)
    nu = n + params.dim / 2.0
    a = params.hbar * params.lam * nu
    s = np.hypot(a, params.omega)
    out = params.hbar * nu * (params.omega / (s + a)) * params.omega
    return out if out.ndim else float(out)


def threshold_gap(n, params: ModelParams):
    """Distance of E_n below the continuum threshold, evaluated stably.

    Equals omega^4 / (2*lam*(sqrt((hbar*lam*nu)^2+omega^2) + hbar*lam*nu)^2),
    which avoids the catastrophic cancellation of threshold - E_n near the
    accumulation point. It is evaluated as threshold * (omega/root)^2, with
    root the bracketed sum above, so omega^4 is never formed. Returns +inf
    for lam = 0.
    """
    _check_spectrum(params)
    n = _check_levels(n)
    if params.lam == 0:
        out = np.full(n.shape, math.inf)
        return out if out.ndim else math.inf
    nu = n + params.dim / 2.0
    a = params.hbar * params.lam * nu
    ratio = params.omega / (np.hypot(a, params.omega) + a)
    out = continuum_threshold(params) * ratio * ratio
    return out if out.ndim else float(out)


def energy_implicit(n, params: ModelParams):
    """Level-n energy from bracketing bisection of the self-consistent equation.

    Solves f(E) = hbar*Omega(E)*(n + N/2) - E = 0. As Omega <= omega, the
    flat level hbar*omega*(n + N/2) bounds E_n from above, and so does the
    threshold; with top the smaller of the two, f(0) > 0 >= f(top), and
    E_n >= top/2 in every regime. So the bracket [0, top] is in units of
    the level and collapses in about 55 halvings whatever lam, omega and
    hbar are. Accepts scalar or array n. For lam = 0 the equation
    degenerates to E = hbar*omega*(n + N/2), returned directly.
    """
    _check_spectrum(params)
    n = _check_levels(n)
    nu = n + params.dim / 2.0
    if params.lam == 0:
        out = params.hbar * params.omega * nu
        return out if out.ndim else float(out)

    top = np.minimum(params.hbar * params.omega * nu, continuum_threshold(params))
    return _bisect(lambda e: params.hbar * _omega_eff(e, params) * nu - e, 0.0, top)


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


@dataclass(frozen=True)
class QuantumState:
    """Quantum numbers of one bound state with its self-consistent width.

    Either a Cartesian occupation tuple or a radial pair (k, l); in both
    cases the principal number n (sum of occupations, or 2k + l) fixes the
    energy, and beta = sqrt(Omega(E)/hbar) is the Gaussian width.
    """

    mode: str
    n: int
    energy: float
    beta: float
    n_tuple: tuple[int, ...] | None = None
    k: int | None = None
    l: int | None = None

    @classmethod
    def cartesian(cls, n_tuple, params: ModelParams) -> "QuantumState":
        n_tuple = tuple(int(v) for v in n_tuple)
        if len(n_tuple) != params.dim:
            raise DomainError(
                f"need {params.dim} occupation numbers, got {len(n_tuple)}"
            )
        if any(v < 0 for v in n_tuple):
            raise DomainError("occupation numbers must be >= 0")
        n = sum(n_tuple)
        energy = energy_closed_form(n, params)
        return cls(
            mode="cartesian", n=n, energy=energy, beta=_width(n, energy, params),
            n_tuple=n_tuple,
        )

    @classmethod
    def radial(cls, k: int, l: int, params: ModelParams) -> "QuantumState":
        if k < 0 or l < 0 or int(k) != k or int(l) != l:
            raise DomainError("radial quantum numbers k, l must be integers >= 0")
        n = 2 * int(k) + int(l)
        energy = energy_closed_form(n, params)
        return cls(
            mode="radial", n=n, energy=energy, beta=_width(n, energy, params),
            k=int(k), l=int(l),
        )


def _width(n: int, energy: float, params: ModelParams) -> float:
    """Gaussian width sqrt(Omega/hbar) of level n.

    Omega = E/(hbar (n + N/2)) holds exactly by the self-consistent equation
    and involves no cancellation; sqrt(omega^2 - 2 lam E) loses a relative
    eps (omega/Omega)^2 near the continuum edge.
    """
    return math.sqrt(energy / (params.hbar * (n + params.dim / 2.0)) / params.hbar)


@dataclass(frozen=True)
class BaseSpectrum:
    """A solvable reference spectrum eval(frequency, n) -> energy.

    The deformation fixed point is well defined only when eval is strictly
    increasing and continuous in the frequency; `validate` spot-checks that
    on a frequency sample.
    """

    eval: Callable[[float, int], float]

    def validate(self, n: int, freq_lo: float, freq_hi: float, samples: int = 33):
        freqs = np.linspace(freq_lo, freq_hi, samples)
        vals = np.array([self.eval(w, n) for w in freqs])
        if not np.all(np.isfinite(vals)):
            raise BracketingError("base spectrum returned non-finite energies")
        diffs = np.diff(vals)
        scale = np.max(np.abs(vals)) + 1e-300
        if np.any(diffs <= -1e-12 * scale):
            raise BracketingError(
                "base spectrum is not increasing in frequency on the sample"
            )


def harmonic_base(params: ModelParams) -> BaseSpectrum:
    """Isotropic-oscillator base spectrum hbar*w*(n + N/2)."""
    return BaseSpectrum(eval=lambda w, n: params.hbar * w * (n + params.dim / 2.0))


def solve_deformed_spectrum(base: BaseSpectrum, n: int, params: ModelParams) -> float:
    """Deformed level-n energy for an arbitrary solvable base spectrum.

    Finds the unique fixed point of E = base.eval(Omega(E), n) by bisection
    of g(E) = base.eval(Omega(E), n) - E. The right-hand side is strictly
    decreasing in E, and Omega <= omega, so the undeformed level
    base.eval(omega, n) bounds the root from above, as does the threshold;
    the bracket is [0, top] with top the smaller of the two, and requires
    g(0) > 0 >= g(top). Raises BracketingError if the base, sampled on
    [0, omega], is not finite and increasing in frequency, if the bracket
    has no sign change, or if g is found non-monotone on it.
    """
    if params.lam <= 0:
        raise DomainError("deformation fixed point requires lam > 0")
    _check_spectrum(params)
    n = int(n)
    base.validate(n, 0.0, params.omega)

    def g(e):
        return base.eval(_omega_eff(e, params), n) - e

    top = min(g(0.0), continuum_threshold(params))
    gvals = np.array([g(e) for e in np.linspace(0.0, top, 33)])
    if not (gvals[0] > 0 >= gvals[-1]):
        raise BracketingError(
            f"no sign change on [0, {top:.3e}]: g(0)={gvals[0]:.3e}, g(top)={gvals[-1]:.3e}"
        )
    if np.any(np.diff(gvals) >= 1e-12 * (np.max(np.abs(gvals)) + 1e-300)):
        raise BracketingError("fixed-point map is not decreasing on the bracket")
    return _bisect(g, 0.0, top)


def write_csv(columns: dict, stream) -> None:
    """Named, equally long columns as CSV: a header line, then one line per
    row, integers as integers and floats as .17g, which round-trips."""
    cells = [
        [str(v) if isinstance(v, int) else f"{v:.17g}" for v in np.asarray(c).tolist()]
        for c in columns.values()
    ]
    stream.write(",".join(columns) + "\n")
    stream.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def json_rows(columns: dict) -> list[dict]:
    """Named, equally long columns as one dict per row; inf and NaN become None."""
    values = [
        [v if isinstance(v, int) or math.isfinite(v) else None for v in np.asarray(c).tolist()]
        for c in columns.values()
    ]
    return [dict(zip(columns, row)) for row in zip(*values, strict=True)]


@dataclass
class SpectrumTable:
    """Ordered bound-state table with degeneracies and residuals."""

    params: ModelParams
    n: np.ndarray
    energy: np.ndarray
    degeneracy: list[int]
    gap_to_threshold: np.ndarray
    residual: np.ndarray
    extra_columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.n)

    def columns(self) -> dict:
        """The five spectrum columns, then the extra columns, by name."""
        return {
            "n": self.n,
            "energy": self.energy,
            "degeneracy": self.degeneracy,
            "gap_to_threshold": self.gap_to_threshold,
            "residual": self.residual,
            **self.extra_columns,
        }

    def header(self) -> list[str]:
        return list(self.columns())

    def to_csv(self, stream) -> None:
        write_csv(self.columns(), stream)

    def to_json_rows(self) -> list[dict]:
        return json_rows(self.columns())

    def to_json(self) -> str:
        return json.dumps(self.to_json_rows(), indent=2)


def spectrum_table(n_max: int, params: ModelParams) -> SpectrumTable:
    """Closed-form levels 0..n_max with degeneracy, gap, and residual columns.

    The residual column restates the self-consistent equation at the
    tabulated energy: |E - hbar*Omega(E)*(n + N/2)|.
    """
    if n_max < 0 or int(n_max) != n_max:
        raise DomainError(f"n_max must be an integer >= 0, got {n_max}")
    if n_max > _MAX_TABLE_LEVELS:
        raise DomainError(f"n_max capped at {_MAX_TABLE_LEVELS}")
    levels = np.arange(int(n_max) + 1)
    energy = np.atleast_1d(energy_closed_form(levels, params))
    gap = np.atleast_1d(threshold_gap(levels, params))
    nu = levels + params.dim / 2.0
    residual = np.abs(energy - params.hbar * _omega_eff(energy, params) * nu)
    degen = [degeneracy(int(n), params.dim) for n in levels]
    return SpectrumTable(
        params=params,
        n=levels,
        energy=energy,
        degeneracy=degen,
        gap_to_threshold=gap,
        residual=residual,
    )
