"""Command-line front end emitting reproducible CSV/JSON artifacts.

Every command but verify-all takes the shared model flags (--lambda
--omega --hbar --dim --out --format) plus command-specific options;
verify-all takes only --out. Each command writes one artifact (CSV by
default; JSON for verify-all) and prints a one-line summary. Exit codes:
0 success, 1 parse/domain error, 2 verification failure (verify-all only).
Outputs contain no timestamps and all randomness is seed-fixed, so
identical invocations produce byte-identical artifacts.

The module imports the errors and the geometry, which every command uses.
Each command checks its own flags first, so that a bad flag ends in one
`error:` line naming it before any layer that needs numpy loads. It then
imports the other layers it runs inside its own function: `spectrum` and
`deform` the spectrum, `geometry` and `effective-potential` the spectrum's
column writers, and `wavefunction`, `classical`, `oracle` and `verify-all`
their own layer with what it imports. `spectrum`, `geometry` and
`effective-potential` evaluate closed forms on lists and never load numpy;
`deform`, `wavefunction`, `classical`, `oracle` and `verify-all` do. `json`
is imported only for a JSON artifact.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import tempfile

from .errors import (
    _MIN_GRID_CELLS,
    BracketingError,
    ConvergenceError,
    DomainError,
    GridSizeError,
    LapackUnavailableError,
)
from .geometry import (
    ModelParams,
    effective_minimum,
    effective_potential,
    metric_factor,
    potential,
    scalar_curvature,
)

__all__ = ["run", "main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(message)


def _add_out_flag(p: _Parser) -> None:
    p.add_argument("--out", type=str, default=None,
                   help="output path (default: artifact to stdout)")


def _add_model_flags(p: _Parser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=0.02,
                   help="deformation strength (default 0.02)")
    p.add_argument("--omega", type=float, default=1.0, help="frequency (default 1)")
    p.add_argument("--hbar", type=float, default=1.0, help="action quantum (default 1)")
    p.add_argument("--dim", type=int, default=3, help="spatial dimension (default 3)")
    _add_out_flag(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="artifact format (default csv)")


def build_parser() -> _Parser:
    parser = _Parser(prog="pdm-oscillator", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form bound-state table")
    _add_model_flags(p)
    p.add_argument("--n-max", type=int, default=10)

    p = sub.add_parser("oracle", help="finite-difference eigenvalues vs closed form")
    _add_model_flags(p)
    p.add_argument("--l", type=int, default=2, help="largest angular number")
    p.add_argument("--k", type=int, default=2, help="largest radial number")
    p.add_argument("--grid-points", type=int, default=None,
                   help="cells from r = 0 to the wall (default: sized from the top level)")
    p.add_argument("--r-max", type=float, default=None,
                   help="box wall (default: sized from the top level)")

    p = sub.add_parser("wavefunction", help="sample a normalized radial eigenfunction")
    _add_model_flags(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=1001)
    p.add_argument("--r-max", type=float, default=None)

    p = sub.add_parser("classical", help="integrate an orbit and track conservation")
    _add_model_flags(p)
    p.add_argument("--q0", type=str, default=None, help="comma-separated positions")
    p.add_argument("--p0", type=str, default=None, help="comma-separated momenta")
    p.add_argument("--t-end", type=float, default=20.0)
    p.add_argument("--samples", type=int, default=2001)
    p.add_argument("--tol", type=float, default=None,
                   help="integrator tolerance (default 1e-10)")

    p = sub.add_parser("effective-potential", help="sample the radial effective potential")
    _add_model_flags(p)
    p.add_argument("--cn", type=float, default=100.0, help="total squared angular momentum")
    p.add_argument("--r-max", type=float, default=20.0)
    p.add_argument("--grid-points", type=int, default=2001)

    p = sub.add_parser("geometry", help="sample metric factor, curvature, or potential")
    _add_model_flags(p)
    p.add_argument("--quantity", choices=("metric", "curvature", "potential"),
                   default="potential")
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--grid-points", type=int, default=1001)

    p = sub.add_parser("deform", help="generic fixed-point solver vs closed form")
    _add_model_flags(p)
    p.add_argument("--n-max", type=int, default=10)

    p = sub.add_parser("verify-all", help="run the full acceptance battery")
    _add_out_flag(p)
    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    """The invocation's flags, less the output path, which does not change the
    artifact's content."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "out"}


def _artifact(columns: dict, args) -> str:
    """Named columns as a SpectrumTable, written by its to_csv, or by its
    to_json_rows as JSON rows under the invocation's config."""
    from .spectrum import SpectrumTable

    table = SpectrumTable(columns)
    if args.format == "csv":
        buf = io.StringIO()
        table.to_csv(buf)
        return buf.getvalue()
    import json

    return json.dumps({"config": _config_dict(args), "rows": table.to_json_rows()}, indent=2)


def _check_n_max(args) -> None:
    from .spectrum import _MAX_TABLE_LEVELS

    if not 0 <= args.n_max <= _MAX_TABLE_LEVELS:
        raise DomainError(
            f"--n-max must be an integer in [0, {_MAX_TABLE_LEVELS}], got {args.n_max}"
        )


def _cmd_spectrum(args, params) -> tuple[str, str, int]:
    _check_n_max(args)
    from .spectrum import spectrum_table

    table = spectrum_table(args.n_max, params)
    summary = (
        f"spectrum: {len(table['n'])} levels, E_0={_fmt(table['energy'][0])}, "
        f"E_{args.n_max}={_fmt(table['energy'][-1])}"
    )
    return _artifact(table, args), summary, 0


def _check_quantum_numbers(args) -> None:
    for flag, value in (("--k", args.k), ("--l", args.l)):
        if value < 0:
            raise DomainError(f"{flag} must be >= 0, got {value}")


def _cmd_oracle(args, params) -> tuple[str, str, int]:
    _check_quantum_numbers(args)
    if args.grid_points is not None and args.grid_points < _MIN_GRID_CELLS:
        raise DomainError(f"--grid-points {args.grid_points}: cells must be >= "
                          f"{_MIN_GRID_CELLS}, got {args.grid_points}")
    if args.r_max is not None:  # lengths in sqrt(hbar/omega)
        r_max = args.r_max * math.sqrt(params.omega / params.hbar)
        if not 0 < r_max < math.inf:
            raise DomainError(f"--r-max {args.r_max:g} is the box {r_max:g} sqrt(hbar/omega) at "
                              f"hbar={params.hbar:g}, omega={params.omega:g}; need 0 < r_max < inf")
    from .oracle import RadialGrid, default_radial_grid, oracle_report

    base = default_radial_grid(params, args.l, args.k)
    if args.r_max is None:
        r_max = base.r_max
    if args.grid_points is not None:
        flag, cells = f"--grid-points {args.grid_points}", args.grid_points
    else:  # the default cell width, or finer in a box smaller than the default
        flag = f"--k {args.k}" + ("" if args.r_max is None else f" --r-max {args.r_max:g}")
        cells = max(base.cells, math.ceil(base.cells * min(r_max / base.r_max, 2.0**40)))
    try:
        table = oracle_report(params, args.l, args.k, RadialGrid(0.0, r_max, cells))
    except GridSizeError as exc:
        raise DomainError(f"{flag}: {exc}") from exc
    worst = float(table["rel_error"].max())
    summary = f"oracle: {len(table['n'])} states, worst relative error {worst:.3e}"
    return _artifact(table, args), summary, 0


def _check_grid_points(args) -> None:
    if args.grid_points < 1:
        raise DomainError(f"--grid-points must be >= 1, got {args.grid_points}")


def _check_r_max(r_max: float) -> None:
    if not 0 < r_max < math.inf:
        raise DomainError(f"--r-max must be finite and > 0, got {r_max:g}")


def _grid(start: float, stop: float, points: int) -> list[float]:
    """`points` samples from start to stop, as a list, by numpy.linspace's
    rule: start + i*step with step = (stop - start)/(points - 1), or
    start + (i/(points - 1))*(stop - start) where that step underflows to 0,
    and the last sample stop itself."""
    if points == 1:
        return [start]
    div = points - 1
    step = (stop - start) / div
    if step == 0:
        grid = [i / div * (stop - start) + start for i in range(points)]
    else:
        grid = [i * step + start for i in range(points)]
    grid[-1] = stop
    return grid


def _finite_curve(fn, r: list[float], label: str, r_max: float) -> list[float]:
    """fn(r), one call on the whole grid; a value that leaves the doubles,
    as the metric factor and the flat (lam = 0) potentials do once r^2
    overflows, is an error, not a NaN or inf row."""
    values = fn(r)
    if not all(map(math.isfinite, values)):
        raise DomainError(f"the {label} is not a finite double on the grid to --r-max {r_max:g}")
    return values


def _cmd_wavefunction(args, params) -> tuple[str, str, int]:
    _check_quantum_numbers(args)
    _check_grid_points(args)
    if args.r_max is not None:
        _check_r_max(args.r_max)
    import numpy as np

    from .wavefunctions import RadialEigenfunction, normalize

    f = normalize(RadialEigenfunction.from_quantum_numbers(args.k, args.l, params))
    r_max = args.r_max if args.r_max is not None else 10.0 / f.beta
    r = np.linspace(0.0, r_max, args.grid_points)
    with np.errstate(over="ignore", invalid="ignore"):
        weight = (1.0 + params.lam * r**2) * r ** (params.dim - 1)
    if not np.isfinite(weight).all():
        box = f"r_max={r_max:g}" if args.r_max is None else f"--r-max {r_max:g}"
        raise DomainError(
            f"{box} is out of range at hbar={params.hbar:g}, "
            f"omega={params.omega:g}: the weight factor (1 + lam r^2) r^(N-1) overflows"
        )
    values = f(r)
    artifact = _artifact({"r": r, "value": np.atleast_1d(values), "weight_factor": weight}, args)
    summary = (
        f"wavefunction: k={args.k} l={args.l}, E={_fmt(f.energy)}, "
        f"beta={_fmt(f.beta)}, {args.grid_points} samples"
    )
    return artifact, summary, 0


def _parse_vector(text: str, dim: int, name: str) -> list[float]:
    try:
        vec = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"cannot parse {name} vector: {text!r}") from exc
    if len(vec) != dim:
        raise DomainError(f"{name} needs {dim} components, got {len(vec)}")
    if not all(map(math.isfinite, vec)):
        raise DomainError(f"{name} components must be finite, got {text!r}")
    return vec


def _cmd_classical(args, params) -> tuple[str, str, int]:
    dim = params.dim
    if args.q0 is not None:
        q0 = _parse_vector(args.q0, dim, "--q0")
    else:
        q0 = [1.0] + [0.0] * (dim - 1)
    if args.p0 is not None:
        p0 = _parse_vector(args.p0, dim, "--p0")
    else:
        p0 = [0.0] * dim
        p0[min(1, dim - 1)] = 1.0
    tol = args.tol if args.tol is not None else 1e-10
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"--tol must be finite and > 0, got {tol:g}")
    if args.samples < 2:
        raise DomainError(f"--samples must be >= 2, got {args.samples}")
    if not (math.isfinite(args.t_end) and args.t_end > 0):
        raise DomainError(f"--t-end must be finite and exceed the initial time, got {args.t_end:g}")
    import numpy as np

    from .classical import PhaseState, conserved_series, integrate_orbits

    (traj,) = integrate_orbits(
        [PhaseState(q=q0, p=p0)],
        params,
        [args.t_end],
        tol=tol,
        samples=args.samples,
    )
    series = conserved_series(traj, params)
    columns = {
        "t": traj.t,
        **{f"q_{i + 1}": traj.q[:, i] for i in range(dim)},
        **{f"p_{i + 1}": traj.p[:, i] for i in range(dim)},
        "H": series["energy"],
        **{f"drift_{label}": series[label] - series[label][0] for label in series},
    }
    artifact = _artifact(columns, args)
    drift = max(float(np.max(np.abs(series[label] - series[label][0]))) for label in series)
    summary = (
        f"classical: {args.samples} samples to t={args.t_end}, "
        f"H={_fmt(float(series['energy'][0]))}, max conserved drift {drift:.3e}"
    )
    return artifact, summary, 0


def _cmd_effective_potential(args, params) -> tuple[str, str, int]:
    _check_grid_points(args)
    _check_r_max(args.r_max)
    if not (math.isfinite(args.cn) and args.cn >= 0):
        raise DomainError(f"--cn must be finite and >= 0, got {args.cn:g}")
    start = 0.0 if args.cn == 0 else args.r_max / (10.0 * args.grid_points)
    r = _grid(start, args.r_max, args.grid_points)
    values = _finite_curve(
        lambda r: effective_potential(r, params, args.cn), r, "effective potential", args.r_max
    )
    artifact = _artifact({"r": r, "value": values}, args)
    if args.cn > 0 and params.omega > 0:
        r_min, u_min = effective_minimum(params, args.cn)
        summary = f"effective-potential: minimum {_fmt(u_min)} at r={_fmt(r_min)}"
    else:
        summary = f"effective-potential: {args.grid_points} samples"
    return artifact, summary, 0


def _cmd_geometry(args, params) -> tuple[str, str, int]:
    fns = {
        "metric": metric_factor,
        "curvature": scalar_curvature,
        "potential": potential,
    }
    _check_grid_points(args)
    _check_r_max(args.r_max)
    r = _grid(0.0, args.r_max, args.grid_points)
    values = _finite_curve(lambda r: fns[args.quantity](r, params), r, args.quantity, args.r_max)
    artifact = _artifact({"r": r, "value": values}, args)
    summary = (
        f"geometry: {args.quantity} sampled at {args.grid_points} points, "
        f"value({_fmt(args.r_max)})={_fmt(values[-1])}"
    )
    return artifact, summary, 0


def _cmd_deform(args, params) -> tuple[str, str, int]:
    _check_n_max(args)
    import numpy as np

    from .spectrum import energy_closed_form, harmonic_base, solve_deformed_spectrum

    levels = np.arange(args.n_max + 1)
    fixed = solve_deformed_spectrum(harmonic_base(params), levels, params)
    closed = energy_closed_form(levels, params)
    diff = np.abs(fixed - closed)
    columns = {
        "n": levels.astype(float),
        "energy_fixed_point": fixed,
        "energy_closed_form": closed,
        "abs_diff": diff,
    }
    artifact = _artifact(columns, args)
    summary = f"deform: {len(levels)} levels, max |fixed-point - closed| = {diff.max():.3e}"
    return artifact, summary, 0


def _cmd_verify_all(args) -> tuple[str, str, int]:
    import json

    from .verify import run_all

    results = run_all()
    all_passed = all(r.passed for r in results)
    payload = {
        "config": _config_dict(args),
        "all_passed": all_passed,
        "results": [r.as_dict() for r in results],
    }
    failed = [r.name for r in results if not r.passed]
    summary = (
        f"verify-all: {len(results) - len(failed)}/{len(results)} checks passed"
        + (f", FAILED: {', '.join(failed)}" if failed else "")
    )
    return json.dumps(payload, indent=2), summary, 0 if all_passed else 2


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "oracle": _cmd_oracle,
    "wavefunction": _cmd_wavefunction,
    "classical": _cmd_classical,
    "effective-potential": _cmd_effective_potential,
    "geometry": _cmd_geometry,
    "deform": _cmd_deform,
}


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(argv: list[str]) -> int:
    """Parse argv, execute one command, write the artifact; return exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "verify-all":
            artifact, summary, code = _cmd_verify_all(args)
        else:
            params = ModelParams(
                lam=args.lam, omega=args.omega, hbar=args.hbar, dim=args.dim
            )
            artifact, summary, code = _COMMANDS[args.command](args, params)
        if args.out is not None:
            _write_atomic(args.out, artifact)
            print(summary)
        else:
            sys.stdout.write(artifact)
            print(summary, file=sys.stderr)
        return code
    except (DomainError, ConvergenceError, BracketingError, ArithmeticError,
            LapackUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write artifact: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
