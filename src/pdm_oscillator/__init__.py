"""Deformed isotropic oscillator with position-dependent mass.

Closed-form spectrum and eigenfunctions of the quantum model, an
independent finite-difference eigensolver, the underlying hyperbolic
geometry, the superintegrable classical dynamics, and a CLI that emits
reproducible CSV/JSON artifacts.

The public names are those in the `__all__` of each layer in `_LAYERS`.
`import pdm_oscillator` loads no layer. The first lookup of a public name,
a layer (`pdm_oscillator.oracle`), `__all__` or `dir()` imports every layer
and binds all their names at once (PEP 562), as if the package imported
everything up front. Other dunders, private names and the other submodules
(`cli`, `verify`) load nothing, so the CLI imports only the layers a command
runs, which matters most where no bytecode is written (see README).

The package needs numpy alone, and not everywhere: the geometry, the
spectrum, the eigenfunctions and the CLI load none when imported, and
take lists as well as arrays, so the CLI's `spectrum`, `geometry`,
`effective-potential`, `deform` and `wavefunction` commands, and every
command that stops at a bad flag, run without it, `deform` and
`wavefunction` up to the sizes where numpy is faster, import included;
only `classical`, `oracle` and `verify-all` always load numpy. The records those five commands
build (`ModelParams` and the two eigenfunctions) are validated namedtuples,
not dataclasses, because the dataclasses module imports inspect, a tenth
of a numpy-free cold start. No CLI command loads scipy. The oracle binds two LAPACK routines from the library that numpy's
pip wheel bundles (see `pdm_oscillator.oracle`); scipy is the tests'
independent reference.
"""

_LAYERS = ("classical", "errors", "geometry", "oracle", "specfun", "spectrum", "wavefunctions")

__version__ = "0.1.0"


def _load_all() -> None:
    # Everything at once, never one layer per lookup: a caller that snapshots
    # the package's modules after one lookup (a tracer patching every
    # namespace) must find all of them loaded.
    import importlib

    public = [*_LAYERS]
    for layer in _LAYERS:
        module = importlib.import_module(f".{layer}", __name__)
        globals().update((name, getattr(module, name)) for name in module.__all__)
        public += module.__all__
    globals()["__all__"] = sorted(public)


def __getattr__(name: str):
    import importlib.util

    # `from pdm_oscillator import cli` looks `cli` up first: a submodule outside
    # the layers, like a private name or a dunder other than __all__, loads nothing
    private = name.startswith("_") and name != "__all__"
    if not private and (name in _LAYERS or not importlib.util.find_spec(f".{name}", __name__)):
        _load_all()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load_all()
    return sorted(globals())
