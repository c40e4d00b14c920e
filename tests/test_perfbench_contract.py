"""The package names the benchmark in perfbench/ relies on.

The traced run wraps every function in `tracer.SPANNED` and every
`SpectrumTable` method in `tracer.TABLE_METHODS` (`to_csv`, `to_json` and
`to_json_rows`; every CLI artifact but verify-all's is written by `to_csv`
or by `to_json`, which builds its rows with `to_json_rows`),
and `battery.warm_up` imports and calls one function of each layer.
Renaming or deleting any of them breaks `perfbench/run.py --trace 1`; this
test fails first. That is why the one-orbit wrapper `closure_check`, which
no command or check calls, stays a public name: `warm_up` imports and calls
it and `integrate_orbit`, which the `classical` command also calls.

`warm_up` throws the verdict of `closure_check` away, so the test keeps it
and requires warm_up's orbit to be reported closed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pdm_oscillator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_warm_up_runs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import battery
    import tracer

    verdicts = []
    check = pdm_oscillator.closure_check

    def kept(orbit, tol):
        closed, period = check(orbit, tol=tol)
        verdicts.append((tol, closed))
        return closed, period

    for namespace in (pdm_oscillator, pdm_oscillator.classical):
        monkeypatch.setattr(namespace, "closure_check", kept)
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
    assert verdicts == [(1e-3, True)]


TRACED_CLI = """
import json, sys
import pdm_oscillator.cli as cli
import tracer

rec = tracer.Recorder()
tracer.install(rec)
assert cli.run(["oracle", "--l", "0", "--k", "0", "--out", sys.argv[1]]) == 0
assert cli.run(["classical", "--t-end", "1", "--samples", "3", "--out", sys.argv[2]]) == 0
print(json.dumps({"spans": sorted({span[0] for span in rec.spans}), "counts": rec.counts}))
"""


def test_traced_cli_sees_every_layer(tmp_path):
    # trace_cli.py imports the CLI before it installs the tracer, which
    # patches the package's modules loaded at that moment; the layers a
    # command imports later must be among them
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CLI, str(tmp_path / "o.csv"), str(tmp_path / "c.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["spans"]) >= {
        "oracle.oracle_report",
        "oracle.discretize_radial",
        "oracle.solve_generalized_eigen",
    }
    assert result["counts"]["oracle.unknowns"] > 0
    assert result["counts"]["classical.rhs.calls"] > 0
