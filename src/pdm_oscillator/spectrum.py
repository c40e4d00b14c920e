"""Discrete spectrum of the deformed oscillator.

The bound-state energies solve the self-consistent equation
E = hbar * sqrt(omega^2 - 2*lam*E) * (n + N/2); the closed form, the
bisection solver for the implicit equation, and the generic fixed-point
deformation of an arbitrary solvable base spectrum all live here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

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
]

_MAX_TABLE_LEVELS = 100_000
_BISECT_ITERATIONS = 110


def continuum_threshold(params: ModelParams) -> float:
    """Bottom omega^2/(2*lam) of the continuous spectrum.

    Returns math.inf for lam = 0 (undeformed oscillator: purely discrete
    spectrum, no finite threshold). Never forms omega^2, which may overflow
    where the threshold itself fits in a double.
    """
    if params.lam == 0:
        return math.inf
    return params.omega / (2.0 * params.lam) * params.omega


def effective_frequency(energy, params: ModelParams):
    """Frequency sqrt(omega^2 - 2*lam*E) of the equivalent flat oscillator.

    Defined for energies below the continuum threshold only.
    """
    energy = np.asarray(energy, dtype=float)
    arg = params.omega**2 - 2.0 * params.lam * energy
    if np.any(arg <= 0):
        raise DomainError(
            "energy at or above the continuum threshold omega^2/(2*lam)"
        )
    out = np.sqrt(arg)
    return out if out.ndim else float(out)


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
    Strictly increasing in n and always below the continuum threshold.
    """
    if params.omega <= 0:
        raise DomainError("discrete spectrum requires omega > 0")
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
    if params.omega <= 0:
        raise DomainError("discrete spectrum requires omega > 0")
    n = _check_levels(n)
    if params.lam == 0:
        out = np.full(n.shape, math.inf)
        return out if out.ndim else math.inf
    nu = n + params.dim / 2.0
    a = params.hbar * params.lam * nu
    ratio = params.omega / (np.hypot(a, params.omega) + a)
    out = continuum_threshold(params) * ratio * ratio
    return out if out.ndim else float(out)


def energy_implicit(n, params: ModelParams, tol: float | None = None):
    """Level-n energy from bracketing bisection of the self-consistent equation.

    Solves f(E) = hbar*sqrt(omega^2 - 2*lam*E)*(n + N/2) - E = 0 on
    [0, omega^2/(2*lam)); f(0) > 0 and f -> -threshold at the right end, so
    a sign change is guaranteed. Accepts scalar or array n. For lam = 0 the
    equation degenerates to E = hbar*omega*(n + N/2), returned directly.
    """
    if params.omega <= 0:
        raise DomainError("discrete spectrum requires omega > 0")
    if tol is None:
        tol = 1e-12 * params.omega**2
    if tol <= 0:
        raise DomainError("tol must be > 0")
    n = _check_levels(n)
    nu = n + params.dim / 2.0
    if params.lam == 0:
        out = params.hbar * params.omega * nu
        return out if out.ndim else float(out)

    threshold = continuum_threshold(params)
    lo = np.zeros(nu.shape)
    hi = np.full(nu.shape, threshold)

    def f(e):
        arg = np.maximum(params.omega**2 - 2.0 * params.lam * e, 0.0)
        return params.hbar * np.sqrt(arg) * nu - e

    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        pos = f(mid) > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    root = 0.5 * (lo + hi)
    resid = np.abs(f(root))
    # after the bracket collapses, |f| at the float-exact root is limited by
    # the conditioning |f'| * eps * E_scale of f itself, not by the bisection
    omega_eff = np.sqrt(np.maximum(params.omega**2 - 2.0 * params.lam * root, 1e-300))
    slope = 1.0 + params.hbar * params.lam * nu / omega_eff
    floor = 8.0 * np.finfo(float).eps * threshold * slope
    if np.any(resid > np.maximum(tol, floor)):
        raise ConvergenceError(
            f"bisection residual {float(np.max(resid)):.3e} above tol {tol:.3e}"
        )
    return root if root.ndim else float(root)


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
    monotone_in_frequency: bool = True

    def validate(self, n: int, freq_lo: float, freq_hi: float, samples: int = 33):
        if not self.monotone_in_frequency:
            raise BracketingError("base spectrum not declared monotone in frequency")
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
    return BaseSpectrum(
        eval=lambda w, n: params.hbar * w * (n + params.dim / 2.0),
        monotone_in_frequency=True,
    )


def solve_deformed_spectrum(
    base: BaseSpectrum, n: int, params: ModelParams, tol: float | None = None
) -> float:
    """Deformed level-n energy for an arbitrary solvable base spectrum.

    Finds the unique fixed point of E = base.eval(sqrt(omega^2 - 2*lam*E), n)
    on [0, omega^2/(2*lam)) by bisection; the right-hand side is strictly
    decreasing in E, so g(E) = rhs - E has exactly one sign change. Raises
    BracketingError if the bracket has no sign change or g is found
    non-monotone.
    """
    if params.lam <= 0:
        raise DomainError("deformation fixed point requires lam > 0")
    if params.omega <= 0:
        raise DomainError("deformation fixed point requires omega > 0")
    if tol is None:
        tol = 1e-12 * params.omega**2
    n = int(n)

    threshold = continuum_threshold(params)
    e_hi = threshold * (1.0 - 1e-15)
    base.validate(n, effective_frequency(e_hi, params), params.omega)

    def g(e):
        return base.eval(effective_frequency(e, params), n) - e

    g_lo, g_hi = g(0.0), g(e_hi)
    if not (g_lo > 0 and g_hi < 0):
        raise BracketingError(
            f"no sign change on [0, threshold): g(0)={g_lo:.3e}, "
            f"g(threshold-)={g_hi:.3e}"
        )
    probes = np.linspace(0.0, e_hi, 33)
    gvals = np.array([g(e) for e in probes])
    if np.any(np.diff(gvals) >= 1e-12 * (np.max(np.abs(gvals)) + 1e-300)):
        raise BracketingError("fixed-point map is not decreasing on the bracket")

    lo, hi = 0.0, e_hi
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    resid = abs(g(root))
    delta = 1e-8 * threshold
    slope = abs(
        g(min(root + delta, e_hi)) - g(max(root - delta, 0.0))
    ) / (min(root + delta, e_hi) - max(root - delta, 0.0))
    floor = 8.0 * np.finfo(float).eps * threshold * max(1.0, slope)
    if resid > max(tol, floor):
        raise ConvergenceError(f"fixed-point residual {resid:.3e} above tol {tol:.3e}")
    return root


class SpectrumRow(NamedTuple):
    n: int
    energy: float
    degeneracy: int
    gap_to_threshold: float
    residual: float


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_safe(x: float):
    return x if math.isfinite(x) else None


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

    COLUMNS = ("n", "energy", "degeneracy", "gap_to_threshold", "residual")

    def __len__(self) -> int:
        return len(self.n)

    def rows(self) -> Iterator[SpectrumRow]:
        for i in range(len(self)):
            yield SpectrumRow(
                int(self.n[i]),
                float(self.energy[i]),
                self.degeneracy[i],
                float(self.gap_to_threshold[i]),
                float(self.residual[i]),
            )

    def header(self) -> list[str]:
        return list(self.COLUMNS) + list(self.extra_columns)

    def to_csv(self, stream) -> None:
        cols = self.header()
        stream.write(",".join(cols) + "\n")
        for i in range(len(self)):
            cells = [
                str(int(self.n[i])),
                _fmt(float(self.energy[i])),
                str(self.degeneracy[i]),
                _fmt(float(self.gap_to_threshold[i])),
                _fmt(float(self.residual[i])),
            ]
            for name in self.extra_columns:
                cells.append(_fmt(float(self.extra_columns[name][i])))
            stream.write(",".join(cells) + "\n")

    def to_json_rows(self) -> list[dict]:
        out = []
        for i in range(len(self)):
            row = {
                "n": int(self.n[i]),
                "energy": _json_safe(float(self.energy[i])),
                "degeneracy": self.degeneracy[i],
                "gap_to_threshold": _json_safe(float(self.gap_to_threshold[i])),
                "residual": _json_safe(float(self.residual[i])),
            }
            for name in self.extra_columns:
                row[name] = _json_safe(float(self.extra_columns[name][i]))
            out.append(row)
        return out

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
    omega_eff = params.omega * np.sqrt(
        1.0 - 2.0 * (params.lam / params.omega) * (energy / params.omega)
    )
    residual = np.abs(energy - params.hbar * omega_eff * nu)
    degen = [degeneracy(int(n), params.dim) for n in levels]
    return SpectrumTable(
        params=params,
        n=levels,
        energy=energy,
        degeneracy=degen,
        gap_to_threshold=gap,
        residual=residual,
    )
