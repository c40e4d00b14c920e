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

The pair is Dormand-Prince 5(4) (Dormand & Prince 1980) with Shampine's
quartic dense output (Shampine 1986), written here in numpy with the
tableau, error estimate and step-size controller of scipy's RK45, so that
it takes the same steps while the classical layer loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import ModelParams
from .spectrum import _bisect, continuum_threshold, effective_frequency

__all__ = [
    "PhaseState",
    "RKStats",
    "Trajectory",
    "hamiltonian",
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
class RKStats:
    """Work of one Runge-Kutta integration: right-hand side evaluations and
    accepted and rejected steps. Each attempted step costs 6 evaluations,
    and the start costs 2."""

    nfev: int
    accepted: int
    rejected: int


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit with optional dense interpolant for refinement.

    `stats` is the work of the integration that produced the orbit; for an
    orbit from a batch it covers the whole batch.
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    params: ModelParams
    dense: object = None
    stats: RKStats | None = None

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
    """Right-hand side of Hamilton's equations as a callable rhs(t, y).

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

# Dormand-Prince 5(4): nodes, stage matrix, fifth-order weights, the
# difference to the embedded fourth-order weights, and Shampine's quartic
# dense-output matrix, as in scipy's RK45.
_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([
    -71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # the embedded error is of order 4 + 1


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def _dense_powers(x):
    """Rows x, x^2, x^3, x^4 of the quartic dense output."""
    return np.cumprod(np.array((x, x, x, x)), axis=0)


def _dopri45(fun, y0, grid, tol, dense):
    """Integrate y' = fun(t, y) from grid[0] to grid[-1] by Dormand-Prince 5(4).

    A step is accepted when the RMS of its error estimate, scaled by
    tol + max(|y|, |y_new|) tol, is below 1. The next step is the current one
    times 0.9 err^(-1/5), clamped to [0.2, 10], and never grows right after
    a rejection; the first step follows Hairer, Norsett & Wanner, Sec. II.4.
    A NaN error counts as a rejection, so a right-hand side that returns NaN
    or inf shrinks the step until it falls below 10 ulp(t), where this
    raises ConvergenceError; so does a NaN first step.

    Returns the solution at `grid`, shape (len(y0), len(grid)), each sample
    from the quartic of the step that contains it; with `dense`, the step
    start times (plus the end), start states and quartics for
    `_dense_value`, else None; and the work done.
    """
    t, t_end = float(grid[0]), float(grid[-1])
    y = y0
    samples = np.empty((len(y0), len(grid)))
    k = np.empty((7, len(y0)))
    f = fun(t, y)
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_end - t)
    nfev, accepted, rejected = 2, 0, 0
    steps = [] if dense else None
    next_sample = 0
    while t < t_end:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # also true of a NaN step
                raise ConvergenceError(
                    f"integration failed: step size fell below {min_step:.3g} "
                    f"at {t:.6g} of [0, 1]"
                )
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            k[0] = f
            for s in range(1, 6):
                k[s] = fun(t + _C[s] * h, y + np.dot(k[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _B)
            f_new = fun(t + h, y_new)
            k[-1] = f_new
            nfev += 6
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error_norm = _rms(np.dot(k.T, _E) * h / scale)
            if error_norm < 1:
                factor = (
                    _MAX_FACTOR
                    if error_norm == 0
                    else min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                )
                h_abs *= min(1.0, factor) if step_rejected else factor
                accepted += 1
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        stop = int(np.searchsorted(grid, t_new, side="right"))
        if dense or stop > next_sample:
            quartic = k.T.dot(_P)
        if stop > next_sample:
            powers = _dense_powers((grid[next_sample:stop] - t) / h)
            samples[:, next_sample:stop] = h * np.dot(quartic, powers) + y[:, None]
            next_sample = stop
        if dense:
            steps.append((t, y, quartic))
        t, y, f = t_new, y_new, f_new
    if dense:
        times, starts, quartics = zip(*steps)
        steps = (np.array(times + (t,)), np.array(starts), np.array(quartics))
    return samples, steps, RKStats(nfev, accepted, rejected)


def _dense_value(steps, rows, t0, span, time):
    """Phase point of one orbit of a batch at `time`, from the quartic of the
    step that contains it (the earlier step at a step boundary)."""
    times, starts, quartics = steps
    s = (time - t0) / span
    i = min(max(int(np.searchsorted(times, s, side="left")) - 1, 0), len(starts) - 1)
    h = times[i + 1] - times[i]
    return h * np.dot(quartics[i, rows], _dense_powers((s - times[i]) / h)) + starts[i, rows]


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
    controller's slack. A step is accepted when the RMS of the scaled
    error over all 2NM components is below 1; the control is divided by
    sqrt(M) so that each orbit's own error is held as tightly as if it were
    integrated alone. Every trajectory carries the work of the whole batch
    as `stats`.
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

    y0 = np.concatenate([np.concatenate([state.q, state.p]) for state in states])
    ys, steps, stats = _dopri45(
        stacked_rhs, y0, np.linspace(0.0, 1.0, samples), control, dense
    )
    trajs = []
    for i in range(len(states)):
        rows = slice(2 * n * i, 2 * n * (i + 1))
        trajs.append(
            Trajectory(
                t=np.linspace(t0[i], t_ends[i], samples),
                q=ys[rows][:n].T.copy(),
                p=ys[rows][n:].T.copy(),
                params=params,
                dense=partial(_dense_value, steps, rows, t0[i], spans[i]) if dense else None,
                stats=stats,
            )
        )
    return trajs


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
    flat oscillator of frequency Omega(E) = sqrt(omega^2 - 2 lam E), taken
    from `effective_frequency`, which raises DomainError at or above the
    escape threshold; the full period is T = (2 pi / Omega)(1 + lam E /
    Omega^2). Circular orbits are no special case: they too close after T.
    """
    energy = hamiltonian(initial, params)
    omega_eff = effective_frequency(energy, params)
    if energy == 0:
        raise DomainError("degenerate orbit: rest at the origin")
    return math.pi / omega_eff * (1.0 + params.lam * energy / (omega_eff * omega_eff))


def exact_orbit(
    state: PhaseState, params: ModelParams, times
) -> tuple[np.ndarray, np.ndarray]:
    """Exact orbit through `state`: positions and momenta at `times`.

    In flat time tau, dt = (1 + lam q^2) d tau, the orbit is the flat
    oscillator q(tau) = q0 cos(Omega tau) + (p0 / Omega) sin(Omega tau) of
    frequency Omega = sqrt(omega^2 - 2 lam E) (from `effective_frequency`,
    so DomainError at or above the escape threshold), and p = dq/d tau. With
    A = |q0|^2, B = |p0|^2 / Omega^2 and C = q0.p0 / Omega,

        t(tau) = tau (1 + lam (A + B) / 2)
                 + lam ((A - B) / (4 Omega) sin(2 Omega tau)
                        + C / (2 Omega) (1 - cos(2 Omega tau))).

    Its slope 1 + lam |q(tau)|^2 is at least 1, so Newton's method, kept
    inside a bracket, inverts it. Only cross-checks read this; the
    integrator never does. Newton, not the shared bisection: bisection took
    4x as long on classical-conservation's 20 x 2001 inversions (2-vCPU Xeon).
    """
    w = effective_frequency(hamiltonian(state, params), params)
    q0, p0, lam = state.q, state.p, params.lam
    a, b, c = q0 @ q0, (p0 @ p0) / (w * w), (q0 @ p0) / w
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

    The return time is where the dense interpolant crosses the hyperplane
    through the start point z0 normal to the flow zdot0 there: the zero of
    (z(t0 + s) - z0).zdot0 for s in [0.9 T, 1.1 T], found by bisection in s,
    so in units of the full period T at the trajectory's first point, even
    where t0 is large or straddles 0 within the window. The orbit is closed
    when it misses z0 there by less than tol; without a crossing in the
    window it is not. Unbounded trajectories report (False, None); a
    trajectory shorter than T cannot show its return and raises DomainError.
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

    flow = hamilton_rhs(params)(t0, z0)

    def crossing(s):
        return float(np.dot(traj.phase_point(t0 + float(s)) - z0, flow))

    lo, hi = 0.9 * period, min(1.1 * period, t_last - t0)
    if np.sign(crossing(lo)) == np.sign(crossing(hi)):
        return False, None
    s_return = _bisect(crossing, lo, hi)
    if np.linalg.norm(traj.phase_point(t0 + s_return) - z0) < tol:
        return True, s_return
    return False, None
