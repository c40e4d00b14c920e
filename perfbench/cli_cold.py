"""Workload `cli-cold`: each CLI subcommand in a fresh interpreter, CSV and JSON.

`verify-all` is left out: it is the `battery` workload's work (about 26 s
a call) behind a cold start, and its artifact is not byte-identical
between runs because it carries `runtime_s`. Four invocations with bad or
extreme inputs do not depend on the seed; three of them fail today
because of faults in the program and count in `failed`.
"""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import reference as ref
from ops import (
    Context,
    Op,
    abs_problems,
    increasing_problems,
    package_env,
    parse_columns,
    rel_problems,
    up_to_sign_problems,
)

TIMEOUT_S = 120
# Every round runs every command once, so the three failing commands are always
# the same share of the attempts, however many rounds a run makes.
MIN_ROUNDS = 2
WHOLE_ROUNDS = True


@dataclass
class CliRun:
    code: int
    stderr: str
    artifact: str | None


def invoke(ctx: Context, name: str, argv: list[str], ext: str, env: dict) -> CliRun:
    """Run one CLI command in a fresh interpreter, writing its artifact under out_dir."""
    out = ctx.out_dir / "cli" / f"{name}.{ext}"
    out.unlink(missing_ok=True)
    if ctx.trace_dir is None:
        cmd = [sys.executable, "-m", "pdm_oscillator.cli"]
    else:
        cmd = [sys.executable, str(ctx.root / "perfbench" / "trace_cli.py"), str(ctx.trace_dir / f"{name}.json")]
    proc = subprocess.run(
        cmd + argv + ["--out", str(out)],
        cwd=ctx.root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return CliRun(proc.returncode, proc.stderr, out.read_text() if out.exists() else None)


def _fault(run: CliRun) -> str:
    lines = run.stderr.strip().splitlines()
    return f"exit {run.code}: {lines[-1] if lines else '(no stderr)'}"


def _artifact_verifier(check, fmt: str):
    """Exit 0 with an artifact is success; the artifact must match `check` and
    be byte-identical on every repeat."""
    first = {}

    def verify(run: CliRun):
        if run.code != 0 or run.artifact is None:
            return _fault(run), []
        digest = hashlib.sha256(run.artifact.encode()).hexdigest()
        if "digest" in first:
            return None, [] if digest == first["digest"] else ["artifact differs between repeats"]
        first["digest"] = digest
        try:
            return None, check(parse_columns(run.artifact, fmt))
        except (KeyError, ValueError, IndexError) as exc:
            return None, [f"artifact does not parse: {exc!r}"]

    return verify


def _error_verifier(run: CliRun):
    """A bad input must end in exactly one `error:` line and exit code 1."""
    lines = run.stderr.strip().splitlines()
    if run.code == 1 and len(lines) == 1 and lines[0].startswith("error:"):
        return None, []
    return _fault(run), []


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _model(rng, lam=(1e-3, 0.2), dims=(1, 5)):
    return {
        "lam": _log_uniform(rng, *lam),
        "omega": _log_uniform(rng, 0.5, 2.0),
        "hbar": _log_uniform(rng, 0.5, 2.0),
        "dim": int(rng.integers(*dims)),
    }


def _flags(m: dict) -> list[str]:
    return ["--lambda", repr(m["lam"]), "--omega", repr(m["omega"]), "--hbar", repr(m["hbar"]), "--dim", str(m["dim"])]


def _energies(m, levels):
    return ref.energies(np.asarray(levels), m["lam"], m["omega"], m["hbar"], m["dim"])


def _spectrum_check(m, n_max):
    def check(cols):
        levels = np.arange(n_max + 1)
        problems = [] if cols["n"] == list(map(float, levels)) else ["n column is not 0..n_max"]
        problems += rel_problems("energy", cols["energy"], _energies(m, levels), 1e-10)
        problems += increasing_problems("energy", cols["energy"])
        want = [float(ref.degeneracy(int(n), m["dim"])) for n in levels]
        return problems + ([] if cols["degeneracy"] == want else ["degeneracy column is wrong"])

    return check


def _oracle_check(m):
    def check(cols):
        n = np.array(cols["n"])
        exact = _energies(m, n.astype(int))
        problems = rel_problems("oracle energy", cols["energy"], exact, 1e-5)
        problems += rel_problems("closed_form column", cols["closed_form"], exact, 1e-10)
        return problems + ([] if np.array_equal(n, 2 * np.array(cols["k"]) + np.array(cols["l"])) else ["n != 2k + l"])

    return check


def _wavefunction_check(m, k, l, points):
    def check(cols):
        r = np.array(cols["r"])
        b = ref.beta(2 * k + l, m["lam"], m["omega"], m["hbar"], m["dim"])
        problems = rel_problems("r grid", r[1:], np.linspace(0.0, 10.0 / b, points)[1:], 1e-12)
        want = ref.radial_state(k, l, m["lam"], m["omega"], m["hbar"], m["dim"], r)
        problems += up_to_sign_problems("value", cols["value"], want)
        weight = ref.metric_factor(r, m["lam"]) * r ** (m["dim"] - 1)
        return problems + abs_problems("weight_factor", cols["weight_factor"], weight, 1e-12 * float(np.max(weight)))

    return check


def _classical_check(lam, q0, p0, t_end, samples):
    dim = len(q0)

    def check(cols):
        q = np.column_stack([cols[f"q_{i}"] for i in range(1, dim + 1)])
        p = np.column_stack([cols[f"p_{i}"] for i in range(1, dim + 1)])
        energy = ref.hamiltonian(q, p, lam, 1.0)
        e0 = float(ref.hamiltonian(q0, p0, lam, 1.0))
        problems = abs_problems("t grid", cols["t"], np.linspace(0.0, t_end, samples), 1e-12 * t_end)
        problems += abs_problems("initial state", np.concatenate([q[0], p[0]]), np.concatenate([q0, p0]), 1e-15)
        problems += rel_problems("H column", cols["H"], energy, 1e-12)
        problems += abs_problems("energy drift", energy, np.full(len(energy), e0), 1e-8 * e0)
        return problems + abs_problems("drift_energy column", cols["drift_energy"], np.array(cols["H"]) - cols["H"][0], 1e-15 * e0)

    return check


def _curve_check(label, want_fn):
    def check(cols):
        r = np.array(cols["r"])
        want = want_fn(r)
        return abs_problems(label, cols["value"], want, 1e-12 * float(np.max(np.abs(want))))

    return check


def _deform_check(m, n_max):
    def check(cols):
        exact = _energies(m, np.arange(n_max + 1))
        problems = rel_problems("energy_fixed_point", cols["energy_fixed_point"], exact, 1e-10)
        problems += rel_problems("energy_closed_form", cols["energy_closed_form"], exact, 1e-10)
        diff = np.abs(np.array(cols["energy_fixed_point"]) - cols["energy_closed_form"])
        return problems + abs_problems("abs_diff", cols["abs_diff"], diff, 0.0)

    return check


def build(rng, ctx: Context) -> tuple[list[Op], callable]:
    (ctx.out_dir / "cli").mkdir(parents=True, exist_ok=True)
    env = package_env(ctx.root)
    commands: list[tuple[str, list[str], object]] = []

    m = _model(rng)
    commands.append(("spectrum", ["spectrum", *_flags(m), "--n-max", "2000"], _spectrum_check(m, 2000)))

    m = _model(rng, lam=(1e-3, 0.1), dims=(1, 4))
    commands.append(("oracle", ["oracle", *_flags(m), "--l", "2", "--k", "2"], _oracle_check(m)))

    m = _model(rng, lam=(1e-3, 0.1))
    k, l = (int(v) for v in rng.integers(0, 4, size=2))
    commands.append((
        "wavefunction",
        ["wavefunction", *_flags(m), "--k", str(k), "--l", str(l), "--grid-points", "1001"],
        _wavefunction_check(m, k, l, 1001),
    ))

    lam = _log_uniform(rng, 0.01, 0.1)
    while True:  # bounded orbits only: energy well below the threshold 1/(2 lam)
        q0, p0 = rng.uniform(-2.0, 2.0, 2), rng.uniform(-1.5, 1.5, 2)
        if float(ref.hamiltonian(q0, p0, lam, 1.0)) < 0.5 * ref.threshold(lam, 1.0):
            break
    vec = lambda v: ",".join(repr(float(x)) for x in v)
    commands.append((
        "classical",
        ["classical", "--lambda", repr(lam), "--dim", "2", f"--q0={vec(q0)}", f"--p0={vec(p0)}",
         "--t-end", "20", "--samples", "2001"],
        _classical_check(lam, q0, p0, 20.0, 2001),
    ))

    m = _model(rng, dims=(3, 4))
    c_n = _log_uniform(rng, 1.0, 200.0)
    commands.append((
        "effective-potential",
        ["effective-potential", *_flags(m), "--cn", repr(c_n), "--r-max", "20", "--grid-points", "2001"],
        _curve_check("effective potential", lambda r, m=m, c_n=c_n: ref.effective_potential(r, c_n, m["lam"], m["omega"])),
    ))

    m = _model(rng)
    quantity = ("metric", "curvature", "potential")[int(rng.integers(0, 3))]
    curves = {
        "metric": lambda r, m=m: ref.metric_factor(r, m["lam"]),
        "curvature": lambda r, m=m: ref.scalar_curvature(r, m["lam"], m["dim"]),
        "potential": lambda r, m=m: ref.potential(r, m["lam"], m["omega"]),
    }
    commands.append((
        "geometry",
        ["geometry", *_flags(m), "--quantity", quantity, "--r-max", "10", "--grid-points", "1001"],
        _curve_check(quantity, curves[quantity]),
    ))

    m = _model(rng)
    commands.append(("deform", ["deform", *_flags(m), "--n-max", "20"], _deform_check(m, 20)))

    ops = []
    for name, argv, check in commands:
        for fmt in ("csv", "json"):
            op_name = f"{name}.{fmt}"
            ops.append(Op(
                op_name,
                lambda op_name=op_name, argv=argv, fmt=fmt: invoke(ctx, op_name, argv + ["--format", fmt], fmt, env),
                _artifact_verifier(check, fmt),
            ))

    # Fixed inputs. The first three end in a traceback today; the last is a control.
    huge = {"lam": 1e20, "omega": 1e160, "hbar": 1.0, "dim": 3}
    ops.append(Op(
        "spectrum-huge-scale",
        lambda: invoke(ctx, "spectrum-huge-scale", ["spectrum", "--omega", "1e160", "--lambda", "1e20", "--n-max", "10"], "csv", env),
        _artifact_verifier(_spectrum_check(huge, 10), "csv"),
    ))
    for name, argv in (
        ("classical-zero-samples", ["classical", "--samples", "0"]),
        ("effective-potential-zero-grid", ["effective-potential", "--grid-points", "0"]),
        ("spectrum-dim-zero", ["spectrum", "--dim", "0"]),
    ):
        ops.append(Op(name, lambda name=name, argv=argv: invoke(ctx, name, argv, "csv", env), _error_verifier))
    return ops, lambda: []

