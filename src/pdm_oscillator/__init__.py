"""Deformed isotropic oscillator with position-dependent mass.

Closed-form spectrum and eigenfunctions of the quantum model, an
independent finite-difference eigensolver, the underlying hyperbolic
geometry, the superintegrable classical dynamics, and a CLI that emits
reproducible CSV/JSON artifacts.

`import pdm_oscillator` loads no layer module. The first lookup of any
public name below, or of a layer submodule (`pdm_oscillator.oracle`),
imports every layer in `_EXPORTS` and binds all their names at once
(PEP 562), so `from pdm_oscillator import X` and `pdm_oscillator.<layer>`
behave as if the package imported everything up front. The CLI imports
only the layers a command runs. Without written bytecode (a fresh
checkout, or PYTHONDONTWRITEBYTECODE set) each module is compiled on every
start, 17 to 31 ms for all of them on a 2-vCPU machine, of which a
closed-form command such as `spectrum` pays about a third.

Each scipy submodule is imported inside the function that calls it, so
the CLI commands that only evaluate closed forms load numpy and no scipy.
"""

_EXPORTS = {
    "classical": (
        "PhaseState",
        "Trajectory",
        "closure_check",
        "conserved_series",
        "estimate_radial_period",
        "exact_orbit",
        "hamiltonian",
        "integrate_orbit",
    ),
    "errors": ("BracketingError", "ConvergenceError", "DomainError", "GridSizeError"),
    "geometry": (
        "EffectivePotentialSpec",
        "ModelParams",
        "effective_minimum",
        "effective_potential",
        "metric_factor",
        "potential",
        "scalar_curvature",
    ),
    "oracle": (
        "DiscretizedOperator",
        "RadialGrid",
        "default_radial_grid",
        "discretize_radial",
        "grid_eigen_residual",
        "oracle_report",
        "solve_generalized_eigen",
    ),
    "specfun": ("hermite_function", "integrate", "laguerre"),
    "spectrum": (
        "SpectrumTable",
        "angular_multiplicity",
        "continuum_threshold",
        "degeneracy",
        "effective_frequency",
        "energy_closed_form",
        "energy_implicit",
        "harmonic_base",
        "solve_deformed_spectrum",
        "spectrum_table",
        "threshold_gap",
    ),
    "wavefunctions": (
        "CartesianEigenfunction",
        "RadialEigenfunction",
        "normalize",
        "weighted_inner_product",
    ),
}
__all__ = sorted({*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)})

__version__ = "0.1.0"


def _load_all() -> None:
    # Everything at once, never one layer per lookup: a caller that snapshots
    # the package's modules after one lookup (a tracer patching every
    # namespace) must find all of them loaded.
    import importlib

    for layer, names in _EXPORTS.items():
        module = importlib.import_module(f".{layer}", __name__)
        globals().update((name, getattr(module, name)) for name in names)


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_all()
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
