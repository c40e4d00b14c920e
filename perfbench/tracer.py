"""Spans around the package's public functions, kept in memory for the traced run.

`install` wraps each function named in SPANNED in every namespace of the
package that binds it, so calls between layers are seen as well as the
benchmark's calls through the package's top-level names. Helpers that
run once per level or per point, such as `degeneracy` or `hermite`, are not
wrapped: a wrapper would cost about as much as the call. Calls of the
right-hand side that `hamilton_rhs` returns, the sizes of the systems
`solve_generalized_eigen` solves, and the points at which eigenfunctions are
evaluated are counted instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

SPANNED = {
    "classical": [
        "integrate_orbit",
        "estimate_radial_period",
        "closure_check",
        "conserved_series",
        "hamiltonian",
    ],
    "spectrum": [
        "energy_closed_form",
        "energy_implicit",
        "threshold_gap",
        "solve_deformed_spectrum",
        "spectrum_table",
    ],
    "oracle": [
        "default_radial_grid",
        "discretize_radial",
        "solve_generalized_eigen",
        "oracle_report",
        "grid_eigen_residual",
    ],
    "wavefunctions": ["normalize", "weighted_inner_product"],
    "specfun": ["integrate"],
    "geometry": ["effective_minimum", "effective_potential"],
}
TABLE_METHODS = ["to_csv", "to_json", "to_json_rows"]


class Recorder:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def _rebind(original, replacement, modules) -> list:
    """Point every binding of `original` in `modules` at `replacement`."""
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def install(rec: Recorder):
    """Wrap the package's layers; returns a function that undoes every patch."""
    import pdm_oscillator

    classical, spectrum = pdm_oscillator.classical, pdm_oscillator.spectrum
    wavefunctions = pdm_oscillator.wavefunctions
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pdm_oscillator"]
    undo = []
    for layer, names in SPANNED.items():
        module = getattr(pdm_oscillator, layer)
        for name in names:
            original = getattr(module, name)
            before = None
            if (layer, name) == ("oracle", "solve_generalized_eigen"):
                before = lambda op, *a, **k: rec.counts.update({"oracle.unknowns": op.size()})
            undo += _rebind(original, rec.wrap(f"{layer}.{name}", original, before), modules)

    make_rhs = classical.hamilton_rhs

    @functools.wraps(make_rhs)
    def counted_rhs(params):
        rhs = make_rhs(params)

        def counted(t, y):
            rec.counts["classical.rhs.calls"] += 1
            return rhs(t, y)

        return counted

    undo += _rebind(make_rhs, counted_rhs, modules)

    for method in TABLE_METHODS:
        original = getattr(spectrum.SpectrumTable, method)
        setattr(spectrum.SpectrumTable, method, rec.wrap(f"spectrum.{method}", original))
        undo.append((spectrum.SpectrumTable, method, original))

    def count_points(cls, points):
        original = cls.__call__

        @functools.wraps(original)
        def call(self, q):
            rec.counts["wavefunctions.eval_points"] += points(self, q)
            return original(self, q)

        cls.__call__ = call
        undo.append((cls, "__call__", original))

    def cartesian_points(f, q):
        size = getattr(q, "size", 1)
        shape = getattr(q, "shape", ())
        dim = f.params.dim
        return size // dim if dim > 1 and shape and shape[-1] == dim else size

    count_points(wavefunctions.CartesianEigenfunction, cartesian_points)
    count_points(wavefunctions.RadialEigenfunction, lambda f, r: getattr(r, "size", 1))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def summarize(spans) -> dict[str, dict]:
    """Calls, total time and self time per span name.

    Self time is a span's duration minus the time its direct children cover.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return dict(out)
