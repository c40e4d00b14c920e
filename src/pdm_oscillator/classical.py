"""Classical dynamics: Hamiltonian, constants of motion, orbits, closure.

The system carries the maximal set of 2N-1 functionally independent
constants of motion, so every bounded orbit is closed. Its period comes in
closed form from the flat-time change dt = (1 + lam q^2) d tau, which turns
the motion into a flat oscillator. The integrator is a plain adaptive
embedded Runge-Kutta pair (not symplectic) that never reads the closed-form
orbit, which makes conservation along trajectories a genuine numerical test
rather than an artifact of the scheme. It integrates one orbit or a batch of
orbits as one stacked system. The exact orbit, also from the flat-time
change, is there for cross-checks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import ModelParams
from .spectrum import continuum_threshold

__all__ = [
    "PhaseState",
    "ConservedSet",
    "Trajectory",
    "hamiltonian",
    "conserved_set",
    "conserved_series",
    "hamilton_rhs",
    "integrate_orbits",
    "integrate_orbit",
    "estimate_radial_period",
    "exact_orbit",
    "closure_check",
]


@dataclass(frozen=True)
class PhaseState:
    """Point (q, p) of phase space at time t."""

    q: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape or q.ndim != 1:
            raise DomainError("q and p must be 1D arrays of equal length")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise DomainError("phase-space components must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


def _ham(q, p, params: ModelParams):
    q_sq = np.sum(q * q, axis=-1)
    p_sq = np.sum(p * p, axis=-1)
    return (p_sq + params.omega**2 * q_sq) / (2.0 * (1.0 + params.lam * q_sq))


def hamiltonian(state: PhaseState, params: ModelParams) -> float:
    """Energy (p^2 + omega^2 q^2) / (2 (1 + lam q^2))."""
    if len(state.q) != params.dim:
        raise DomainError(f"state has {len(state.q)} components, expected {params.dim}")
    return float(_ham(state.q, state.p, params))


def _angular_squares(q, p):
    """Squared pairwise angular momenta (q_i p_j - q_j p_i)^2, shape (..., N, N)."""
    l = q[..., :, None] * p[..., None, :] - q[..., None, :] * p[..., :, None]
    return l * l


@dataclass(frozen=True)
class ConservedSet:
    """All 2N-1 constants of motion evaluated at one phase point.

    c_upper[m-2] sums the squared angular momenta over index pairs within
    1..m, c_lower[m-2] within (N-m, N]; both end at the total L^2 for
    m = N. The i_vals satisfy 2H = sum(i_vals) identically.
    """

    energy: float
    c_upper: np.ndarray
    c_lower: np.ndarray
    i_vals: np.ndarray

    def labels(self) -> list[str]:
        n = len(self.i_vals)
        out = ["energy"]
        out += [f"c_upper_{m}" for m in range(2, n + 1)]
        out += [f"c_lower_{m}" for m in range(2, n + 1)]
        out += [f"i_{i}" for i in range(1, n + 1)]
        return out

    def values(self) -> np.ndarray:
        return np.concatenate(
            [[self.energy], self.c_upper, self.c_lower, self.i_vals]
        )


def conserved_set(state: PhaseState, params: ModelParams) -> ConservedSet:
    """Evaluate the energy and all constants of motion at one phase point."""
    series = conserved_series(
        Trajectory(
            t=np.array([state.t]),
            q=state.q[None, :],
            p=state.p[None, :],
            params=params,
        ),
        params,
    )
    return ConservedSet(
        energy=float(series["energy"][0]),
        c_upper=np.array(
            [series[f"c_upper_{m}"][0] for m in range(2, params.dim + 1)]
        ),
        c_lower=np.array(
            [series[f"c_lower_{m}"][0] for m in range(2, params.dim + 1)]
        ),
        i_vals=np.array([series[f"i_{i}"][0] for i in range(1, params.dim + 1)]),
    )


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit with optional dense interpolant for refinement."""

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    params: ModelParams
    dense: object = None

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> PhaseState:
        return PhaseState(q=self.q[i], p=self.p[i], t=float(self.t[i]))

    def phase_point(self, time: float) -> np.ndarray:
        """Dense-output phase vector [q, p] at an arbitrary time."""
        if self.dense is None:
            raise DomainError("trajectory carries no dense interpolant")
        return self.dense(time)


def conserved_series(traj: Trajectory, params: ModelParams) -> dict[str, np.ndarray]:
    """Every conserved quantity evaluated along the whole trajectory."""
    q, p = traj.q, traj.p
    n = params.dim
    out: dict[str, np.ndarray] = {}
    energy = _ham(q, p, params)
    out["energy"] = energy
    l_sq = _angular_squares(q, p)
    for m in range(2, n + 1):
        iu = np.triu_indices(m, k=1)
        out[f"c_upper_{m}"] = l_sq[:, : m, : m][:, iu[0], iu[1]].sum(axis=-1)
        sub = l_sq[:, n - m :, n - m :]
        out[f"c_lower_{m}"] = sub[:, iu[0], iu[1]].sum(axis=-1)
    coeff = 2.0 * params.lam * energy - params.omega**2
    for i in range(1, n + 1):
        out[f"i_{i}"] = p[:, i - 1] ** 2 - coeff * q[:, i - 1] ** 2
    return out


def hamilton_rhs(params: ModelParams):
    """Right-hand side of Hamilton's equations as a solve_ivp-compatible callable.

    qdot = p / (1 + lam q^2)
    pdot = lam q (p^2 + omega^2 q^2)/(1 + lam q^2)^2 - omega^2 q/(1 + lam q^2)

    The state is one or more orbits stacked end to end, each laid out as
    [q, p], so its length is a multiple of 2N.
    """
    n = params.dim
    lam, omega_sq = params.lam, params.omega**2

    def rhs(_t, y):
        z = y.reshape(-1, 2 * n)
        q, p = z[:, :n], z[:, n:]
        q_sq = (q * q).sum(axis=1, keepdims=True)
        p_sq = (p * p).sum(axis=1, keepdims=True)
        inv_m = 1.0 / (1.0 + lam * q_sq)
        pdot = q * (inv_m * (lam * inv_m * (p_sq + omega_sq * q_sq) - omega_sq))
        return np.concatenate([p * inv_m, pdot], axis=1).ravel()

    return rhs


_CONTROL_FLOOR = 2.5e-14
_EPS = float(np.finfo(float).eps)
_NEWTON_ITERATIONS = 100


def integrate_orbits(
    states,
    params: ModelParams,
    t_ends,
    tol: float = 1e-10,
    samples: int = 2001,
    dense: bool = True,
) -> list[Trajectory]:
    """Integrate M orbits as one stacked system with an adaptive RK 5(4) pair.

    Orbit i runs from its own start time t0_i to t_ends[i]. Its time is
    rescaled to s in [0, 1] by dt = (t_ends[i] - t0_i) ds, so one grid of
    `samples` equispaced s values serves every orbit. With `dense`, each
    trajectory also carries an interpolant in its own time; it stores every
    step of the whole batch, so callers that only read the samples skip it.

    Steps are accepted a safety decade below tol, so the local error per
    step genuinely stays under tol even after accumulation of the
    controller's slack. solve_ivp accepts a step when the RMS of the
    scaled error over all 2NM components is at most 1; the control is
    divided by sqrt(M) so that each orbit's own error is held as tightly
    as if it were integrated alone.
    """
    states = list(states)
    t_ends = np.asarray(t_ends, dtype=float)
    if not states or len(t_ends) != len(states):
        raise DomainError("need one t_end per initial state, and at least one state")
    if tol <= 0:
        raise DomainError("tol must be > 0")
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}")
    n = params.dim
    for state in states:
        if len(state.q) != n:
            raise DomainError(f"state has {len(state.q)} components, expected {n}")
    t0 = np.array([state.t for state in states])
    spans = t_ends - t0
    if not np.all(np.isfinite(spans) & (spans > 0)):
        raise DomainError("t_end must be finite and exceed the initial time")
    control = max(0.1 * tol, _CONTROL_FLOOR) / math.sqrt(len(states))
    if control < _CONTROL_FLOOR:
        raise DomainError(
            f"{len(states)} orbits at tol {tol} need a step control below "
            f"{_CONTROL_FLOOR}; integrate fewer orbits per call"
        )

    rhs = hamilton_rhs(params)
    scale = np.repeat(spans, 2 * n)

    def stacked_rhs(s, y):
        return scale * rhs(s, y)

    from scipy.integrate import solve_ivp

    y0 = np.concatenate([np.concatenate([state.q, state.p]) for state in states])
    sol = solve_ivp(
        stacked_rhs,
        (0.0, 1.0),
        y0,
        method="RK45",
        rtol=control,
        atol=control,
        dense_output=dense,
        t_eval=np.linspace(0.0, 1.0, samples),
    )
    if not sol.success:
        raise ConvergenceError(f"integration failed: {sol.message}")

    def interpolant(i):
        if not dense:
            return None
        rows = slice(2 * n * i, 2 * n * (i + 1))
        return lambda time: sol.sol((time - t0[i]) / spans[i])[rows]

    return [
        Trajectory(
            t=np.linspace(t0[i], t_ends[i], samples),
            q=sol.y[2 * n * i : 2 * n * i + n].T.copy(),
            p=sol.y[2 * n * i + n : 2 * n * (i + 1)].T.copy(),
            params=params,
            dense=interpolant(i),
        )
        for i in range(len(states))
    ]


def integrate_orbit(
    initial: PhaseState,
    params: ModelParams,
    t_end: float,
    tol: float = 1e-10,
    samples: int = 2001,
) -> Trajectory:
    """One orbit through `integrate_orbits`: `samples` equispaced times plus a
    dense interpolant."""
    return integrate_orbits([initial], params, [t_end], tol=tol, samples=samples)[0]


def estimate_radial_period(initial: PhaseState, params: ModelParams) -> float:
    """Radial period T/2 of the closed orbit through `initial`, in closed form.

    The flat-time change dt = (1 + lam q^2) d tau turns the motion into a
    flat oscillator of frequency Omega(E) = sqrt(omega^2 - 2 lam E); the full
    period is T = (2 pi / Omega)(1 + lam E / Omega^2). Circular orbits are
    no special case: they too close after T.
    """
    energy = hamiltonian(initial, params)
    omega_eff_sq = params.omega**2 - 2.0 * params.lam * energy
    if omega_eff_sq <= 0:
        raise DomainError("energy at or above the escape threshold")
    if energy == 0:
        raise DomainError("degenerate orbit: rest at the origin")
    omega_eff = math.sqrt(omega_eff_sq)
    return math.pi / omega_eff * (1.0 + params.lam * energy / omega_eff_sq)


def exact_orbit(
    state: PhaseState, params: ModelParams, times
) -> tuple[np.ndarray, np.ndarray]:
    """Exact orbit through `state`: positions and momenta at `times`.

    In flat time tau, dt = (1 + lam q^2) d tau, the orbit is the flat
    oscillator q(tau) = q0 cos(Omega tau) + (p0 / Omega) sin(Omega tau) of
    frequency Omega = sqrt(omega^2 - 2 lam E), and p = dq/d tau. With
    A = |q0|^2, B = |p0|^2 / Omega^2 and C = q0.p0 / Omega,

        t(tau) = tau (1 + lam (A + B) / 2)
                 + lam ((A - B) / (4 Omega) sin(2 Omega tau)
                        + C / (2 Omega) (1 - cos(2 Omega tau))).

    Its slope 1 + lam |q(tau)|^2 is at least 1, so Newton's method, kept
    inside a bracket, inverts it. Only cross-checks read this; the
    integrator never does.
    """
    energy = hamiltonian(state, params)
    omega_eff_sq = params.omega**2 - 2.0 * params.lam * energy
    if omega_eff_sq <= 0:
        raise DomainError("energy at or above the escape threshold")
    w = math.sqrt(omega_eff_sq)
    q0, p0, lam = state.q, state.p, params.lam
    a, b, c = q0 @ q0, (p0 @ p0) / omega_eff_sq, (q0 @ p0) / w
    rate = 1.0 + 0.5 * lam * (a + b)
    u, v = (a - b) / (4.0 * w), c / (2.0 * w)
    # t(tau) - rate tau = lam (u sin 2 w tau + v (1 - cos 2 w tau)) lies within
    # lam (v -+ amp), which brackets the root
    amp = math.hypot(u, v)
    s = np.asarray(times, dtype=float) - state.t
    lo = (s - lam * (v + amp)) / rate
    hi = (s - lam * (v - amp)) / rate
    tau = 0.5 * (lo + hi)
    for _ in range(_NEWTON_ITERATIONS):
        sin2, cos2 = np.sin(2.0 * w * tau), np.cos(2.0 * w * tau)
        resid = rate * tau + lam * (u * sin2 + 2.0 * v * np.sin(w * tau) ** 2) - s
        lo = np.where(resid < 0, tau, lo)
        hi = np.where(resid > 0, tau, hi)
        newton = tau - resid / (rate + 2.0 * w * lam * (u * cos2 + v * sin2))
        step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        done = np.all(np.abs(step - tau) <= 4.0 * _EPS * (np.abs(step) + 1.0 / w))
        tau = step
        if done:
            break
    else:
        raise ConvergenceError("flat-time inversion did not converge")
    cos1, sin1 = np.cos(w * tau), np.sin(w * tau)
    q = np.multiply.outer(cos1, q0) + np.multiply.outer(sin1, p0 / w)
    p = np.multiply.outer(cos1, p0) - np.multiply.outer(sin1, w * q0)
    return q, p


def closure_check(traj: Trajectory, tol: float = 1e-6) -> tuple[bool, float | None]:
    """Detect orbit closure: the return time near the closed-form period T.

    Minimizes |z(t0 + t) - z(t0)| over t in [0.9 T, 1.1 T] against the dense
    interpolant, with T the full period at the trajectory's first point;
    the orbit is closed when that minimum is under tol. Unbounded
    trajectories report (False, None); a trajectory shorter than T cannot
    show its return and raises DomainError.
    """
    params = traj.params
    z0 = np.concatenate([traj.q[0], traj.p[0]])
    t0 = float(traj.t[0])
    energy = _ham(traj.q[0], traj.p[0], params)
    if params.lam > 0 and energy >= continuum_threshold(params):
        return False, None

    period = 2.0 * estimate_radial_period(traj.state(0), params)
    t_last = float(traj.t[-1])
    if t_last - t0 < period:
        raise DomainError("trajectory too short to reach its first return")

    from scipy.optimize import minimize_scalar

    def miss(t_return):
        return float(np.linalg.norm(traj.phase_point(t_return) - z0))

    res = minimize_scalar(
        miss,
        bounds=(t0 + 0.9 * period, min(t0 + 1.1 * period, t_last)),
        method="bounded",
        options={"xatol": 1e-12 * max(1.0, period)},
    )
    if res.fun < tol:
        return True, float(res.x - t0)
    return False, None
