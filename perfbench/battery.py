"""Workload `battery`: the acceptance battery behind `verify-all`, one operation per check."""

from __future__ import annotations

import numpy as np

from ops import Op, check_outputs

# The benchmark's own copy of the acceptance thresholds, by result name.
THRESHOLDS = {
    "effective-minimum": 0.01,
    "potential-limits": 0.01,
    "spectrum-self-consistency": 1e-10,
    "oracle-equivalence[lam=0.0]": 1e-5,
    "oracle-equivalence[lam=0.02]": 1e-5,
    "oracle-equivalence[lam=0.1]": 1e-5,
    "degeneracy": 1e-5,
    "threshold-accumulation": 0.01,
    "orthonormality": 1e-6,
    "eigenfunction-residual": 1e-6,
    "classical-conservation": 1e-8,
    "orbit-closure": 0.0,  # measured is the number of orbits that failed to close
    "generic-deformation": 1e-10,
}


# Two rounds: orbit closure and conservation take about 24 s of each.
MIN_ROUNDS = 2
WHOLE_ROUNDS = False


def check_name(check) -> str:
    """Name of an acceptance check, looking through timing decorators."""
    fn = check
    while fn.__name__ == "wrapper" and fn.__closure__:
        fn = fn.__closure__[0].cell_contents
    return fn.__name__


def _result_problems(results) -> list[str]:
    problems = []
    for r in results:
        tol = THRESHOLDS.get(r.name)
        if tol is None:
            continue  # checks the benchmark does not know are allowed
        if r.tolerance != tol:
            problems.append(f"{r.name}: tolerance {r.tolerance!r} != {tol!r}")
        if not r.passed:
            problems.append(f"{r.name}: did not pass")
        if not (r.measured < tol or r.measured == tol == 0.0):
            problems.append(f"{r.name}: measured {r.measured!r} not under {tol!r}")
    return problems


def build(rng, ctx) -> tuple[list[Op], callable]:
    """Operations, plus a final check that every known check reported a result."""
    from pdm_oscillator import verify

    seen: set[str] = set()

    def problems(results):
        results = results if isinstance(results, list) else [results]
        seen.update(r.name for r in results)
        return _result_problems(results)

    ops = [Op(check_name(c), c, check_outputs(problems)) for c in verify.ALL_CHECKS]
    return ops, lambda: [f"{name}: missing from the battery" for name in THRESHOLDS if name not in seen]


def warm_up() -> None:
    """One small call into each layer, so lazy imports and first-call costs
    fall into set-up rather than into the first timed repeat."""
    from pdm_oscillator import (
        CartesianEigenfunction,
        ModelParams,
        PhaseState,
        RadialEigenfunction,
        RadialGrid,
        closure_check,
        conserved_series,
        energy_implicit,
        harmonic_base,
        integrate_orbit,
        normalize,
        oracle_report,
        solve_deformed_spectrum,
        weighted_inner_product,
    )

    p = ModelParams(lam=0.02, omega=1.0, hbar=1.0, dim=2)
    energy_implicit(np.arange(5), p)
    solve_deformed_spectrum(harmonic_base(p), 1, p)
    oracle_report(p, l_max=0, k_max=0, grid=RadialGrid(1e-6, 12.0, 200))
    f = normalize(RadialEigenfunction.from_quantum_numbers(0, 0, p))
    weighted_inner_product(f, f, p)
    normalize(CartesianEigenfunction.from_occupations((0, 1), p))
    orbit = integrate_orbit(PhaseState(q=[1.0, 0.0], p=[0.0, 0.8]), p, t_end=15.0, samples=401)
    conserved_series(orbit, p)
    closure_check(orbit, tol=1e-3)
