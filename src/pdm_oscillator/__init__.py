"""Deformed isotropic oscillator with position-dependent mass.

Closed-form spectrum and eigenfunctions of the quantum model, an
independent finite-difference eigensolver, the underlying hyperbolic
geometry, the superintegrable classical dynamics, and a CLI that emits
reproducible CSV/JSON artifacts.

Each scipy submodule is imported inside the function that calls it, so
importing the package, and the CLI commands that only evaluate closed
forms, load numpy and no scipy.
"""

from .classical import (
    PhaseState,
    Trajectory,
    closure_check,
    conserved_series,
    estimate_radial_period,
    exact_orbit,
    hamiltonian,
    integrate_orbit,
)
from .errors import BracketingError, ConvergenceError, DomainError
from .geometry import (
    EffectivePotentialSpec,
    ModelParams,
    canonical_momentum,
    canonical_position,
    effective_minimum,
    effective_potential,
    metric_factor,
    potential,
    scalar_curvature,
)
from .oracle import (
    DiscretizedOperator,
    RadialGrid,
    default_radial_grid,
    discretize_radial,
    grid_eigen_residual,
    oracle_report,
    solve_generalized_eigen,
)
from .specfun import hermite_function, integrate, laguerre
from .spectrum import (
    BaseSpectrum,
    QuantumState,
    SpectrumTable,
    angular_multiplicity,
    continuum_threshold,
    degeneracy,
    effective_frequency,
    energy_closed_form,
    energy_implicit,
    harmonic_base,
    solve_deformed_spectrum,
    spectrum_table,
    threshold_gap,
)
from .wavefunctions import (
    CartesianEigenfunction,
    RadialEigenfunction,
    normalize,
    weighted_inner_product,
)

__version__ = "0.1.0"
