"""Acceptance battery: every release-gating criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or on failure)
and asserts the criterion. The same checks back the CLI `verify-all` command.
"""

from pdm_oscillator.verify import (
    check_accumulation,
    check_classical_conservation,
    check_degeneracy,
    check_effective_minimum,
    check_eigenfunction_residual,
    check_generic_deformation,
    check_oracle_equivalence,
    check_orbit_closure,
    check_orthonormality,
    check_potential_limits,
    check_spectrum_self_consistency,
)


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[{status}] {result.name}: measured={result.measured:.3e} "
        f"tolerance={result.tolerance:.1e}"
    )
    assert result.passed, f"{result.name}: {result.measured} vs {result.tolerance}; {result.details}"


def test_criterion_01_effective_minimum_reproduction():
    # deformed minimum (3.49, 8.2) and flat reference (3.16, 10.0), +-0.01
    report(check_effective_minimum())


def test_criterion_02_potential_limit_reproduction():
    # saturation values {25, 12.5, 8.33, 5} for the reference lam grid, +-0.01
    report(check_potential_limits())


def test_criterion_03_spectrum_self_consistency():
    # residual < 1e-10 * omega^2 and solver agreement < 1e-10 for n <= 400
    # over N in {1,2,3}, lam in {0.005, 0.02, 0.1}, omega in {0.5, 1, 2}
    report(check_spectrum_self_consistency())


def test_criterion_04_oracle_equivalence():
    # relative error < 1e-5 after one Richardson step, order 2.0 +- 0.2,
    # for k,l <= 2, N in {1,2,3}, lam in {0, 0.02, 0.1}
    for result in check_oracle_equivalence():
        report(result)


def test_criterion_05_degeneracy():
    # oracle multiplet (k=1,l=0) vs (k=0,l=2) within 1e-5; counting identity
    # exact for N in {2,3,4}, n <= 12
    report(check_degeneracy())


def test_criterion_06_threshold_accumulation():
    # gaps positive, strictly decreasing, < 1% of threshold for n >= 300
    report(check_accumulation())


def test_criterion_07_orthonormality():
    # Gram matrix of the first 6 weighted-normalized 1D states within 1e-6
    report(check_orthonormality())


def test_criterion_08_eigenfunction_residual():
    # grid-applied Hamiltonian residual < 1e-6 for n <= 3, N in {1,2}
    report(check_eigenfunction_residual())


def test_criterion_09_classical_conservation():
    # 20 random bounded orbits, 10 radial periods at tol 1e-10: drift < 1e-8,
    # pointwise sum identity < 1e-12; criterion 12 on the same orbits: relative
    # phase-space distance from the exact flat-time orbit < 1e-8
    for result in check_classical_conservation():
        report(result)


def test_criterion_10_orbit_closure():
    # 20 random bounded orbits per lam in {0.01, 0.1} return within 1e-6 after
    # one closed-form period; flat control's measured period at 2*pi within 1e-5
    report(check_orbit_closure())


def test_criterion_11_generic_deformation():
    # harmonic-base fixed point equals the closed form to 1e-10 for n <= 50;
    # lam = 1e-12 recovers the base spectrum to 1e-6
    report(check_generic_deformation())
