"""Acceptance checks wiring every module against its quantitative targets.

Each check returns a CheckResult with the measured value, the expected
value, and the tolerance it was held to; `run_all` executes the full
battery. The same battery backs both the test suite and the CLI
`verify-all` command, with fixed seeds so runs are reproducible. A check
over many models makes one solver call: spectrum-self-consistency solves
its 27 models' levels by one bisection of the spectrum's fixed-point
solver, and orbit-closure integrates its 41 orbits of three models as one
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import (
    PhaseState,
    _closure_misses,
    conserved_series,
    estimate_radial_period,
    exact_orbit,
    integrate_orbits,
)
from .geometry import ModelParams, effective_minimum, potential
from .oracle import grid_eigen_residual, oracle_report
from .spectrum import (
    _fixed_point,
    angular_multiplicity,
    continuum_threshold,
    degeneracy,
    energy_closed_form,
    harmonic_base,
    solve_deformed_spectrum,
    threshold_gap,
)
from .wavefunctions import CartesianEigenfunction, normalize, weighted_inner_product

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]

_CONSERVATION_SEED = 12345
_CLOSURE_SEED = 2718


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    expected: str
    tolerance: float
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        safe = lambda v: v if (not isinstance(v, float) or math.isfinite(v)) else None
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": safe(float(self.measured)),
            "expected": self.expected,
            "tolerance": float(self.tolerance),
            "details": {k: safe(v) for k, v in self.details.items()},
        }


def check_effective_minimum() -> CheckResult:
    """Deformed and flat effective-potential minima against reference values."""
    r_min, u_min = effective_minimum(ModelParams(lam=0.02, omega=1.0, dim=3), 100.0)
    r_min0, u_min0 = effective_minimum(ModelParams(lam=0.0, omega=1.0, dim=3), 100.0)
    deviations = {
        "r_min": abs(r_min - 3.49),
        "u_min": abs(u_min - 8.2),
        "r_min_flat": abs(r_min0 - 3.16),
        "u_min_flat": abs(u_min0 - 10.0),
    }
    measured = max(deviations.values())
    return CheckResult(
        name="effective-minimum",
        passed=measured < 0.01,
        measured=measured,
        expected="(3.49, 8.2) deformed and (3.16, 10.0) flat",
        tolerance=0.01,
        details=deviations,
    )


def check_potential_limits() -> CheckResult:
    """Large-r potential limits omega^2/(2*lam) for the reference lam grid."""
    targets = {0.02: 25.0, 0.04: 12.5, 0.06: 8.33, 0.1: 5.0}
    worst = 0.0
    details = {}
    for lam, target in targets.items():
        p = ModelParams(lam=lam, omega=1.0, dim=3)
        at_far = potential(1e4, p)
        thresh = continuum_threshold(p)
        details[f"lam={lam}"] = max(abs(at_far - target), abs(thresh - target))
        worst = max(worst, details[f"lam={lam}"])
    return CheckResult(
        name="potential-limits",
        passed=worst < 0.01,
        measured=worst,
        expected="{25, 12.5, 8.33, 5} at lam {0.02, 0.04, 0.06, 0.1}",
        tolerance=0.01,
        details=details,
    )


def check_spectrum_self_consistency() -> CheckResult:
    """Closed form satisfies the implicit equation and matches its bisection
    root; the 27 models' levels are solved by one bisection, each model's
    as energy_implicit solves them."""
    levels = np.arange(401)
    models = [
        ModelParams(lam=lam, omega=omega, hbar=1.0, dim=dim)
        for dim in (1, 2, 3)
        for lam in (0.005, 0.02, 0.1)
        for omega in (0.5, 1.0, 2.0)
    ]
    # one row per model
    lam = np.array([[p.lam] for p in models])
    omega = np.array([[p.omega] for p in models])
    hbar = np.array([[p.hbar] for p in models])
    nu = levels + np.array([[p.dim / 2.0] for p in models])
    energy = np.array([energy_closed_form(levels, p) for p in models])
    omega_eff = np.sqrt(omega**2 - 2.0 * lam * energy)
    residual = np.abs(energy - hbar * omega_eff * nu) / omega**2
    worst_residual = float(residual.max())
    implicit = _fixed_point(lambda w, nu: hbar * w * nu, nu, omega, lam)
    worst_diff = float(np.abs(implicit - energy).max())
    measured = max(worst_residual, worst_diff)
    return CheckResult(
        name="spectrum-self-consistency",
        passed=measured < 1e-10,
        measured=measured,
        expected="implicit-equation residual and solver agreement",
        tolerance=1e-10,
        details={"worst_residual": worst_residual, "worst_solver_diff": worst_diff},
    )


def check_oracle_equivalence() -> list[CheckResult]:
    """Finite-difference eigenvalues against the closed form, per lam."""
    out = []
    for lam in (0.0, 0.02, 0.1):
        worst_rel = 0.0
        worst_order_dev = 0.0
        for dim in (1, 2, 3):
            p = ModelParams(lam=lam, omega=1.0, hbar=1.0, dim=dim)
            report = oracle_report(p, l_max=2, k_max=2)
            worst_rel = max(worst_rel, float(report["rel_error"].max()))
            orders = report["convergence_order"]
            orders = orders[np.isfinite(orders)]
            worst_order_dev = max(worst_order_dev, float(np.abs(orders - 2.0).max()))
        out.append(
            CheckResult(
                name=f"oracle-equivalence[lam={lam}]",
                passed=worst_rel < 1e-5 and worst_order_dev <= 0.2,
                measured=worst_rel,
                expected="relative error after one Richardson step; order 2.0 +- 0.2",
                tolerance=1e-5,
                details={
                    "worst_rel_error": worst_rel,
                    "worst_order_deviation": worst_order_dev,
                },
            )
        )
    return out


def check_degeneracy() -> CheckResult:
    """Multiplet coincidence in the oracle and the angular counting identity."""
    p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)
    report = oracle_report(p, l_max=2, k_max=1)
    by_kl = {
        (int(k), int(l)): e for k, l, e in zip(report["k"], report["l"], report["energy"])
    }
    e_rad, e_ang = by_kl[(1, 0)], by_kl[(0, 2)]
    multiplet_rel = abs(e_rad - e_ang) / abs(e_ang)

    mismatches = 0
    for dim in (2, 3, 4):
        for n in range(13):
            total = sum(
                angular_multiplicity(n - 2 * k, dim) for k in range(n // 2 + 1)
            )
            if total != degeneracy(n, dim):
                mismatches += 1
    return CheckResult(
        name="degeneracy",
        passed=multiplet_rel < 1e-5 and mismatches == 0,
        measured=multiplet_rel,
        expected="(k=1,l=0) and (k=0,l=2) coincide; counting identity exact",
        tolerance=1e-5,
        details={"multiplet_rel_diff": multiplet_rel, "identity_mismatches": mismatches},
    )


def check_accumulation() -> CheckResult:
    """Gaps to the threshold are positive, strictly decreasing, and small by n=300."""
    p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)
    levels = np.arange(401)
    gaps = threshold_gap(levels, p)
    threshold = continuum_threshold(p)
    positive = bool(np.all(gaps > 0))
    decreasing = bool(np.all(np.diff(gaps) < 0))
    tail_fraction = float(gaps[300:].max() / threshold)
    return CheckResult(
        name="threshold-accumulation",
        passed=positive and decreasing and tail_fraction < 0.01,
        measured=tail_fraction,
        expected="gap/threshold below 1% for all n >= 300",
        tolerance=0.01,
        details={
            "positive": positive,
            "strictly_decreasing": decreasing,
            "gap_at_300": float(gaps[300]),
        },
    )


def check_orthonormality() -> CheckResult:
    """Gram matrix of the first six weighted-normalized 1D states."""
    p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=1)
    states = [
        normalize(CartesianEigenfunction.from_occupations((n,), p)) for n in range(6)
    ]
    gram = np.array(
        [[weighted_inner_product(a, b, p) for b in states] for a in states]
    )
    measured = float(np.abs(gram - np.eye(6)).max())
    return CheckResult(
        name="orthonormality",
        passed=measured < 1e-6,
        measured=measured,
        expected="identity Gram matrix",
        tolerance=1e-6,
    )


def check_eigenfunction_residual() -> CheckResult:
    """Grid-applied Hamiltonian residual on low states for N in {1, 2}."""
    details = {}
    cases = {
        1: [(0,), (1,), (2,), (3,)],
        2: [(0, 0), (1, 0), (1, 1), (2, 1)],
    }
    points = {1: 1501, 2: 501}
    for dim, tuples in cases.items():
        p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=dim)
        for tup in tuples:
            f = CartesianEigenfunction.from_occupations(tup, p)
            details[f"N={dim},n={tup}"] = grid_eigen_residual(
                f, f.energy, p, half_width=9.5 / f.beta, num_points=points[dim]
            )
    worst = max(details.values())
    return CheckResult(
        name="eigenfunction-residual",
        passed=worst < 1e-6,
        measured=worst,
        expected="relative |H psi - E psi| on converged grids",
        tolerance=1e-6,
        details=details,
    )


def _rk_work(stats) -> dict:
    """The Runge-Kutta work of one integration, as detail entries."""
    return {
        "rk_nfev": stats.nfev,
        "rk_accepted_steps": stats.accepted,
        "rk_rejected_steps": stats.rejected,
    }


def check_classical_conservation() -> list[CheckResult]:
    """Drift of all five constants plus the pointwise sum identity, N=3; and
    the same DOP853 orbits against the exact flat-time orbit."""
    p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)
    rng = np.random.default_rng(_CONSERVATION_SEED)
    states = [
        PhaseState(q=rng.uniform(-2.5, 2.5, 3), p=rng.uniform(-2.0, 2.0, 3))
        for _ in range(20)
    ]
    t_ends = [10.0 * estimate_radial_period(state, p) for state in states]
    worst_drift = 0.0
    worst_identity = 0.0
    worst_global = 0.0
    trajs = integrate_orbits(states, p, t_ends, tol=1e-10, samples=2001)
    for state, traj in zip(states, trajs):
        series = conserved_series(traj, p)
        qp_scale = float(
            np.max(np.linalg.norm(traj.q, axis=1))
            * np.max(np.linalg.norm(traj.p, axis=1))
        )
        for values in series.values():
            initial = abs(float(values[0]))
            denom = initial if initial > 1e-10 * qp_scale else qp_scale
            worst_drift = max(
                worst_drift, float(np.max(np.abs(values - values[0]))) / denom
            )
        identity = np.abs(
            sum(series[f"i_{i}"] for i in (1, 2, 3)) - 2.0 * series["energy"]
        )
        scale = max(1.0, 2.0 * abs(float(series["energy"][0])))
        worst_identity = max(worst_identity, float(identity.max()) / scale)
        exact = np.hstack(exact_orbit(state, p, traj.t))
        error = np.linalg.norm(np.hstack([traj.q, traj.p]) - exact, axis=1)
        worst_global = max(
            worst_global, float(error.max() / np.linalg.norm(exact, axis=1).max())
        )
    return [
        CheckResult(
            name="classical-conservation",
            passed=worst_drift < 1e-8 and worst_identity < 1e-12,
            measured=worst_drift,
            expected="relative drift of 2N-1 constants and H over 10 radial periods",
            tolerance=1e-8,
            details={
                "worst_identity": worst_identity,
                "identity_tolerance": 1e-12,
                **_rk_work(trajs[0].stats),
            },
        ),
        CheckResult(
            name="classical-global-error",
            passed=worst_global < 1e-8,
            measured=worst_global,
            expected="relative phase-space distance of DOP853 from the exact orbit "
            "over 10 radial periods",
            tolerance=1e-8,
        ),
    ]


def check_orbit_closure() -> CheckResult:
    """Random bounded N=2 orbits, and a flat control, return to their start
    after the closed-form period; all 41 orbits run as one batch."""
    rng = np.random.default_rng(_CLOSURE_SEED)
    states, models = [], []
    for lam in (0.01, 0.1):
        states += [
            PhaseState(q=rng.uniform(-2.0, 2.0, 2), p=rng.uniform(-1.5, 1.5, 2))
            for _ in range(20)
        ]
        models += [ModelParams(lam=lam, omega=1.0, hbar=1.0, dim=2)] * 20
    # at lam = 0 the closed-form period is 2 pi
    states.append(PhaseState(q=np.array([1.2, 0.1]), p=np.array([-0.2, 0.8])))
    models.append(ModelParams(lam=0.0, omega=1.0, hbar=1.0, dim=2))
    (*misses, control_miss), stats = _closure_misses(states, models)
    failures = sum(not miss < 1e-6 for miss in misses)
    return CheckResult(
        name="orbit-closure",
        passed=failures == 0 and control_miss < 1e-6,
        measured=float(failures),
        expected="all 40 random bounded orbits return within 1e-6 after the "
        "closed-form period",
        tolerance=0.0,
        details={
            "flat_control_miss": control_miss,
            "worst_miss": max(misses),
            **_rk_work(stats),
        },
    )


def check_generic_deformation() -> CheckResult:
    """Fixed-point solver on the harmonic base reproduces the closed form."""
    p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=3)
    levels = np.arange(51)
    fixed_point = solve_deformed_spectrum(harmonic_base(p), levels, p)
    worst = float(np.max(np.abs(fixed_point - energy_closed_form(levels, p))))

    p_tiny = ModelParams(lam=1e-12, omega=1.0, hbar=1.0, dim=3)
    base_tiny = harmonic_base(p_tiny)
    levels = np.array([0, 3, 10])
    limit = solve_deformed_spectrum(base_tiny, levels, p_tiny) - base_tiny(1.0, levels)
    limit_err = float(np.max(np.abs(limit)))
    return CheckResult(
        name="generic-deformation",
        passed=worst < 1e-10 and limit_err < 1e-6,
        measured=worst,
        expected="fixed point equals closed form for n <= 50",
        tolerance=1e-10,
        details={"tiny_lam_limit_error": limit_err, "limit_tolerance": 1e-6},
    )


ALL_CHECKS = (
    check_effective_minimum,
    check_potential_limits,
    check_spectrum_self_consistency,
    check_oracle_equivalence,
    check_degeneracy,
    check_accumulation,
    check_orthonormality,
    check_eigenfunction_residual,
    check_classical_conservation,
    check_orbit_closure,
    check_generic_deformation,
)


def run_all() -> list[CheckResult]:
    """Execute the whole battery; results carry pass/fail and the measured values."""
    results: list[CheckResult] = []
    for check in ALL_CHECKS:
        outcome = check()
        if isinstance(outcome, list):
            results.extend(outcome)
        else:
            results.append(outcome)
    return results
