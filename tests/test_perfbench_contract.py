"""The package names the benchmark in perfbench/ relies on.

The traced run wraps every function in `tracer.SPANNED` and every
`SpectrumTable` method in `tracer.TABLE_METHODS`, and `battery.warm_up`
imports and calls one function of each layer. Renaming or deleting any of
them breaks `perfbench/run.py --trace 1`; this test fails first.
"""

from pathlib import Path

import pdm_oscillator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_warm_up_runs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import battery
    import tracer

    originals = {
        (layer, name): getattr(getattr(pdm_oscillator, layer), name)
        for layer, names in tracer.SPANNED.items()
        for name in names
    }
    rec = tracer.Recorder()
    restore = tracer.install(rec)
    try:
        battery.warm_up()
    finally:
        restore()
    assert {span[0] for span in rec.spans} >= {
        "classical.integrate_orbit",
        "classical.closure_check",
        "oracle.solve_generalized_eigen",
        "wavefunctions.normalize",
    }
    for (layer, name), fn in originals.items():
        assert getattr(getattr(pdm_oscillator, layer), name) is fn
