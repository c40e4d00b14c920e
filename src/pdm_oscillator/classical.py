"""Classical dynamics: Hamiltonian, constants of motion, orbits, closure.

The system carries the maximal set of 2N-1 functionally independent
constants of motion, so every bounded orbit is closed. Its period comes in
closed form from the flat-time change dt = (1 + lam q^2) d tau, which turns
the motion into a flat oscillator. The integrator is a plain adaptive
embedded Runge-Kutta pair (not symplectic) that never reads the closed-form
orbit, which makes conservation along trajectories a genuine numerical test
rather than an artifact of the scheme. It integrates one orbit or a batch of
orbits as one stacked system, each orbit of one model for all or of its
own, so that orbits of several lam and omega share one step sequence. An
orbit is closed when, integrated for exactly its closed-form period, it
returns to its start. The exact orbit, also from the flat-time change, is
there for cross-checks only.

The pair is DOP853, the Dormand-Prince 8(5,3) pair (Prince & Dormand 1981;
Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10), written here in numpy
with the tableau, error estimate and step-size controller of scipy's
DOP853, so that it takes the same steps while the classical layer loads no
scipy module. A step that holds samples writes them as one product of their
values of the basis x, x(1 - x), x^2 (1 - x), ..., x^4 (1 - x)^3 with the 7
rows of its 7th-order dense output, which is not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import ModelParams
from .spectrum import continuum_threshold, effective_frequency

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
    accepted and rejected steps. Each attempted step costs 12 evaluations,
    each step that holds a sample 3 more, and the start 2."""

    nfev: int
    accepted: int
    rejected: int


@dataclass(frozen=True)
class Trajectory:
    """Orbit sampled at equispaced times.

    `stats` is the work of the integration that produced the orbit; for an
    orbit from a batch it covers the whole batch.
    """

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    params: ModelParams
    stats: RKStats | None = None


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


def _models(params) -> list[ModelParams]:
    """One model, or a sequence of models of one dimension, as a list."""
    models = [params] if isinstance(params, ModelParams) else list(params)
    if any(model.dim != models[0].dim for model in models):
        raise DomainError("the orbits' models must all have one dimension")
    return models


def hamilton_rhs(params):
    """Right-hand side of Hamilton's equations as a callable rhs(t, y).

    qdot = p / (1 + lam q^2)
    pdot = q (lam p^2 - omega^2) / (1 + lam q^2)^2

    pdot is -dH/dq with its lam omega^2 q^2 terms cancelled exactly, so
    it loses no digits at large lam q^2.

    The state is one or more orbits stacked end to end, each laid out as
    [q, p], so its length is a multiple of 2N. `params` is one model for
    every orbit, or a sequence of models of dimension N, one per orbit. The
    squares times a (2N, 2) selector give lam q^2 and lam p^2 of every
    orbit at once; where the orbits' lam differ, the selector gives q^2 and
    p^2 and a column of lam, one row per orbit, scales them. Each orbit's
    shift row [1, -omega^2] is then added.
    """
    models = _models(params)
    n = models[0].dim
    one_lam = len({model.lam for model in models}) == 1
    select = np.zeros((2 * n, 2))
    select[:n, 0] = select[n:, 1] = models[0].lam if one_lam else 1.0
    lam = None if one_lam else np.array([[model.lam] for model in models])
    # turns (lam q^2, lam p^2) into (1 + lam q^2, lam p^2 - omega^2)
    shift = np.array([[1.0, -model.omega**2] for model in models])

    def rhs(_t, y):
        coeffs = np.dot((y * y).reshape(-1, 2 * n), select)
        if lam is not None:
            coeffs *= lam
        coeffs += shift
        inv_m, force = coeffs[:, 0], coeffs[:, 1]
        np.divide(1.0, inv_m, out=inv_m)
        force *= inv_m
        force *= inv_m
        return (y.reshape(-1, 2, n)[:, ::-1] * coeffs[:, :, None]).ravel()

    return rhs


_CONTROL_FLOOR = 2.5e-14
# undeformed periods 2 pi/omega per orbit: the default `classical` run over
# this many takes about 3-4 s on a 2-vCPU VM
_MAX_PERIODS = 1000
_EPS = float(np.finfo(float).eps)
_NEWTON_ITERATIONS = 100


def _from_rows(width, rows):
    """Matrix of `width` columns from its rows, each given as {column: value}."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


# DOP853 as in scipy's DOP853 (Hairer's dop853.f): nodes and stage matrix of
# the 12 stages of a step, whose row 12 holds the eighth-order weights, and of
# the 3 extra stages of the dense output (rows 13-15); the fifth- and
# third-order error weights; and rows 3-6 of the 7th-order dense output.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
])
_A = _from_rows(16, (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
))
_B = _A[12, :12]
# the eighth-order weights less those of the embedded third-order formula
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= (
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)
_E5 = _from_rows(13, (
    {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
     6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
     8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
     10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1},
))[0]
_D = _from_rows(16, (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8  # the embedded error is of order 7 + 1
_E53 = np.vstack((_E5, _E3))
# rows F0..F6 of the dense output, y(t + x h) - y(t) = sum_j b_j(x) F_j, are h
# times these combinations of the 16 stages k: F0 = y(t + h) - y(t) = h B k,
# F1 = h k0 - F0, F2 = 2 F0 - h (k0 + k12), and F3..F6 = h _D k. The basis
# x, x(1 - x), x^2 (1 - x), ..., x^4 (1 - x)^3 is a running product of x and,
# where True, 1 - x.
_B16 = np.append(_B, np.zeros(4))
_K0, _K12 = np.eye(16)[[0, 12]]
_F = np.vstack((_B16, _K0 - _B16, 2.0 * _B16 - _K0 - _K12, _D))
_TIMES_ONE_MINUS_X = np.arange(7) % 2 == 1


def _rms(x):
    """Root mean square of x, from x / max |x| so that no square overflows."""
    top = float(np.max(np.abs(x)))
    if top == 0.0:
        return 0.0
    return top * (float(np.linalg.norm(x / top)) / math.sqrt(x.size))


def _dop853(rhs, scale, y0, grid, tol):
    """Integrate y' = scale * rhs(t, y) from grid[0] to grid[-1] by DOP853.

    A step is accepted when its error, h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2)
    n) for its fifth- and third-order estimates e5 and e3, each divided by
    tol + max(|y|, |y_new|) tol, is below 1. The next step is the current
    one times 0.9 err^(-1/8), clamped to [0.2, 10], and never grows right
    after a rejection; the first step follows Hairer, Norsett & Wanner,
    Sec. II.4, for order 7. A NaN error counts as a rejection, so a
    right-hand side that returns NaN or inf shrinks the step until it falls
    below 10 ulp(t), where this raises ConvergenceError; so does a NaN first
    step.

    A step that holds a sample spends 3 more evaluations on its 7th-order
    dense output, and writes its samples as one product of their basis
    values (samples in the step x 7) with the output's 7 rows h `_F` k.
    Returns the solution at `grid`, shape (len(grid), len(y0)), and the work
    done.
    """
    t, t_end = float(grid[0]), float(grid[-1])
    y = y0
    samples = np.empty((len(grid), len(y0)))
    k = np.empty((16, len(y0)))  # row 0 holds f(t) at each step's start
    ah = np.empty_like(_A)
    # each stage's node, weights h A[s, :s] and inputs k[:s], and its row of k
    stages = [(c, ah[s, :s], k[:s], k[s]) for s, c in enumerate(_C.tolist())]
    f = np.multiply(rhs(t, y), scale, out=k[0])
    weight = tol + np.abs(y) * tol
    d0, d1 = _rms(y / weight), _rms(f / weight)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = _rms((scale * rhs(t + h0, y + h0 * f) - f) / weight) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_end - t)
    nfev, accepted, rejected = 2, 0, 0
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
            np.multiply(_A, h, out=ah)
            for c, a, ks, out in stages[1:12]:
                np.multiply(rhs(t + c * h, y + np.dot(a, ks)), scale, out=out)
            y_new = y + np.dot(ah[12, :12], k[:12])
            np.multiply(rhs(t + h, y_new), scale, out=k[12])
            nfev += 12
            err = np.dot(_E53, k[:13]) / (tol + np.maximum(np.abs(y), np.abs(y_new)) * tol)
            (err5_sq, _), (_, err3_sq) = np.dot(err, err.T).tolist()
            denom = math.sqrt((err5_sq + 0.01 * err3_sq) * len(y))
            error_norm = h * err5_sq / denom if denom else 0.0
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
        if stop > next_sample:
            for c, a, ks, out in stages[13:]:
                np.multiply(rhs(t + c * h, y + np.dot(a, ks)), scale, out=out)
            nfev += 3
            x = (grid[next_sample:stop, None] - t) / h
            basis = np.cumprod(np.where(_TIMES_ONE_MINUS_X, 1.0 - x, x), axis=1)
            np.add(np.dot(basis, np.dot(_F * h, k)), y, out=samples[next_sample:stop])
            next_sample = stop
        t, y = t_new, y_new
        k[0] = k[12]
    return samples, RKStats(nfev, accepted, rejected)


def integrate_orbits(
    states,
    params,
    t_ends,
    tol: float = 1e-10,
    samples: int = 2001,
) -> list[Trajectory]:
    """Integrate M orbits as one stacked system with the adaptive DOP853 pair.

    `params` is one model for every orbit, or a sequence of M models of one
    dimension, one per orbit; each trajectory carries its orbit's model.
    Orbit i runs from its own start time t0_i to t_ends[i]. Its time is
    rescaled to s in [0, 1] by dt = (t_ends[i] - t0_i) ds, so one grid of
    `samples` equispaced s values serves every orbit.

    Steps are accepted a safety decade below tol, so the local error per
    step genuinely stays under tol even after accumulation of the
    controller's slack. A step is accepted when the RMS of the scaled
    error over all 2NM components is below 1; the control is divided by
    sqrt(M) so that each orbit's own error is held as tightly as if it were
    integrated alone. Every trajectory carries the work of the whole batch
    as `stats`. An orbit may span at most _MAX_PERIODS undeformed periods
    2 pi/omega of its model, which bounds the work, since the deformed
    period is longer still; a longer span raises DomainError, and so does
    an omega at which omega^2 or omega^2 q^2 of a start overflows a double.
    """
    states = list(states)
    t_ends = np.asarray(t_ends, dtype=float)
    if not states or len(t_ends) != len(states):
        raise DomainError("need one t_end per initial state, and at least one state")
    models = _models(params) * (len(states) if isinstance(params, ModelParams) else 1)
    if len(models) != len(states):
        raise DomainError(
            f"need one model per orbit, or one for all: got {len(models)} for {len(states)}"
        )
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tol must be finite and > 0")
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}")
    n = models[0].dim
    for state in states:
        if len(state.q) != n:
            raise DomainError(f"state has {len(state.q)} components, expected {n}")
    t0 = np.array([state.t for state in states])
    spans = t_ends - t0
    if not np.all(np.isfinite(spans) & (spans > 0)):
        raise DomainError("t_end must be finite and exceed the initial time")
    omega = np.array([model.omega for model in models])
    periods = float(np.max(spans * omega)) / (2.0 * math.pi)
    if periods > _MAX_PERIODS:
        raise DomainError(
            f"an orbit spans {periods:.3g} periods 2 pi/omega; at most {_MAX_PERIODS} "
            f"are integrated, so shorten t_end"
        )
    # hamilton_rhs forms omega^2, and the energy omega^2 q^2
    for state, model in zip(states, models):
        reach = model.omega * max(1.0, float(np.max(np.abs(state.q))))
        if not math.isfinite(reach * reach):
            raise DomainError(
                f"omega={model.omega:g} is out of range: omega^2 q^2 overflows a double"
            )
    control = max(0.1 * tol, _CONTROL_FLOOR) / math.sqrt(len(states))
    if control < _CONTROL_FLOOR:
        raise DomainError(
            f"{len(states)} orbits at tol {tol} need a step control below "
            f"{_CONTROL_FLOOR}; integrate fewer orbits per call"
        )

    y0 = np.concatenate([np.concatenate([state.q, state.p]) for state in states])
    ys, stats = _dop853(
        hamilton_rhs(models), np.repeat(spans, 2 * n), y0, np.linspace(0.0, 1.0, samples), control
    )
    orbits = ys.reshape(samples, len(states), 2, n)  # sample, orbit, q or p, axis
    return [
        Trajectory(
            t=np.linspace(t0[i], t_ends[i], samples),
            q=orbits[:, i, 0],
            p=orbits[:, i, 1],
            params=models[i],
            stats=stats,
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
    """One orbit through `integrate_orbits`, at `samples` equispaced times."""
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
    inside a bracket and started from one fixed-point step, inverts it.
    Only cross-checks read this; the integrator never does. Newton, not the
    shared bisection: bisection took 4x as long on classical-conservation's
    20 x 2001 inversions (2-vCPU Xeon).
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
    # one fixed-point step from s / rate, then Newton with one sin and cos each
    tau = s / rate
    sin1, cos1 = np.sin(w * tau), np.cos(w * tau)
    tau = np.clip((s - lam * (u * 2.0 * sin1 * cos1 + 2.0 * v * sin1 * sin1)) / rate, lo, hi)
    for _ in range(_NEWTON_ITERATIONS):
        sin1, cos1 = np.sin(w * tau), np.cos(w * tau)
        sin2, sin1_sq = 2.0 * sin1 * cos1, sin1 * sin1  # cos 2x = 1 - 2 sin^2 x
        resid = rate * tau + lam * (u * sin2 + 2.0 * v * sin1_sq) - s
        lo = np.where(resid < 0, tau, lo)
        hi = np.where(resid > 0, tau, hi)
        newton = tau - resid / (rate + 2.0 * w * lam * (u * (1.0 - 2.0 * sin1_sq) + v * sin2))
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


def _closure_misses(states, models):
    """How far each orbit misses its start after exactly its closed-form period.

    `models` holds one model per orbit, all of one dimension. The orbits
    run as one batch, at integration tolerance 1e-11, from their start
    times for the full period T = 2 `estimate_radial_period`, with two
    samples, and each miss is the phase-space distance
    |z(t0 + T) - z(t0)|. Returns the misses and the work of the batch.
    Raises DomainError, through the period, for an orbit at or above the
    escape threshold.
    """
    states = list(states)
    t_ends = [
        state.t + 2.0 * estimate_radial_period(state, model) for state, model in zip(states, models)
    ]
    trajs = integrate_orbits(states, models, t_ends, tol=1e-11, samples=2)
    misses = [
        float(np.linalg.norm(np.concatenate([traj.q[-1] - state.q, traj.p[-1] - state.p])))
        for state, traj in zip(states, trajs)
    ]
    return misses, trajs[0].stats


def closure_check(traj: Trajectory, tol: float = 1e-6) -> tuple[bool, float | None]:
    """Whether the orbit through the trajectory's first point closes.

    Only the first point and the parameters are read: the orbit through it
    is integrated anew for exactly its closed-form period T, and it is
    closed when it misses its start there by less than tol. Returns
    (closed, T); an unbounded orbit reports (False, None).
    """
    params, start = traj.params, PhaseState(q=traj.q[0], p=traj.p[0], t=float(traj.t[0]))
    if params.lam > 0 and hamiltonian(start, params) >= continuum_threshold(params):
        return False, None
    (miss,), _ = _closure_misses([start], [params])
    return miss < tol, 2.0 * estimate_radial_period(start, params)
