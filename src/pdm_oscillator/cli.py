"""Command-line front end emitting reproducible CSV/JSON artifacts.

Every command but verify-all takes the shared model flags (--lambda
--omega --hbar --dim --out --format) plus command-specific options;
verify-all takes only --out. Each command writes one artifact (CSV by
default; JSON for verify-all) and prints a one-line summary. Exit codes:
0 success, 1 parse/domain error, 2 verification failure (verify-all only).
Outputs contain no timestamps and all randomness is seed-fixed, so
identical invocations produce byte-identical artifacts.

The module imports the errors and the geometry, which every command uses.
The parser checks every flag's range where it declares the flag (_Ranged),
so a bad flag ends in one `error:` line naming it before any other layer
loads. Each command returns its columns and summary line; `run` wraps the
columns as a spectrum.SpectrumTable and writes the artifact with the
table's to_csv or to_json, as --format names. A command imports the layers
it runs inside its own function: `spectrum` and `deform` the spectrum, and
`wavefunction`, `classical`, `oracle` and `verify-all` their own layer with
what it imports. `spectrum`, `geometry` and `effective-potential` evaluate
closed forms on lists and never load numpy; `deform`, `wavefunction`,
`classical`, `oracle` and `verify-all` do. `json` is imported only for a
JSON artifact.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from .errors import (
    _MAX_TABLE_LEVELS,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # run prints it as one error line, where argparse would exit
        raise argparse.ArgumentError(None, message)


class _Ranged(argparse.Action):
    """Store a flag's value, or fail the parse with "<flag> must be <need>,
    got <value>" where ok(value) is false. The flag is named by its first
    option string, whatever abbreviation was typed; a float prints as :g."""

    def __init__(self, *args, need: str, ok, **kwargs):
        super().__init__(*args, **kwargs)
        self.need, self.ok = need, ok

    def __call__(self, parser, namespace, value, option_string=None):
        if not self.ok(value):
            shown = f"{value:g}" if isinstance(value, float) else value
            raise argparse.ArgumentError(
                None, f"{self.option_strings[0]} must be {self.need}, got {shown}"
            )
        setattr(namespace, self.dest, value)


def _rule(need: str, ok) -> dict:
    """add_argument keywords that check a flag's value as it is parsed."""
    return {"action": _Ranged, "need": need, "ok": ok}


def _at_least(low: int) -> dict:
    return _rule(f">= {low}", lambda v: v >= low)


_FINITE_POSITIVE = _rule("finite and > 0", lambda v: 0 < v < math.inf)
_N_MAX = _rule(f"an integer in [0, {_MAX_TABLE_LEVELS}]", lambda v: 0 <= v <= _MAX_TABLE_LEVELS)


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


def _add_sampling_flags(p: _Parser, r_max: float | None, grid_points: int) -> None:
    p.add_argument("--r-max", type=float, default=r_max, **_FINITE_POSITIVE)
    p.add_argument("--grid-points", type=int, default=grid_points, **_at_least(1))


def build_parser() -> _Parser:
    parser = _Parser(prog="pdm-oscillator", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form bound-state table")
    _add_model_flags(p)
    p.add_argument("--n-max", type=int, default=10, **_N_MAX)

    p = sub.add_parser("oracle", help="finite-difference eigenvalues vs closed form")
    _add_model_flags(p)
    p.add_argument("--l", type=int, default=2, help="largest angular number", **_at_least(0))
    p.add_argument("--k", type=int, default=2, help="largest radial number", **_at_least(0))
    p.add_argument("--grid-points", type=int, default=None,
                   help="cells from r = 0 to the wall (default: sized from the top level)")
    p.add_argument("--r-max", type=float, default=None,
                   help="box wall (default: sized from the top level)")

    p = sub.add_parser("wavefunction", help="sample a normalized radial eigenfunction")
    _add_model_flags(p)
    p.add_argument("--k", type=int, default=0, **_at_least(0))
    p.add_argument("--l", type=int, default=0, **_at_least(0))
    _add_sampling_flags(p, None, 1001)

    p = sub.add_parser("classical", help="integrate an orbit and track conservation")
    _add_model_flags(p)
    p.add_argument("--q0", type=str, default=None, help="comma-separated positions")
    p.add_argument("--p0", type=str, default=None, help="comma-separated momenta")
    p.add_argument("--t-end", type=float, default=20.0,
                   **_rule("finite and exceed the initial time", lambda v: 0 < v < math.inf))
    p.add_argument("--samples", type=int, default=2001, **_at_least(2))
    p.add_argument("--tol", type=float, default=None,
                   help="integrator tolerance (default 1e-10)", **_FINITE_POSITIVE)

    p = sub.add_parser("effective-potential", help="sample the radial effective potential")
    _add_model_flags(p)
    p.add_argument("--cn", type=float, default=100.0, help="total squared angular momentum",
                   **_rule("finite and >= 0", lambda v: 0 <= v < math.inf))
    _add_sampling_flags(p, 20.0, 2001)

    p = sub.add_parser("geometry", help="sample metric factor, curvature, or potential")
    _add_model_flags(p)
    p.add_argument("--quantity", choices=("metric", "curvature", "potential"),
                   default="potential")
    _add_sampling_flags(p, 10.0, 1001)

    p = sub.add_parser("deform", help="generic fixed-point solver vs closed form")
    _add_model_flags(p)
    p.add_argument("--n-max", type=int, default=10, **_N_MAX)

    p = sub.add_parser("verify-all", help="run the full acceptance battery")
    _add_out_flag(p)
    return parser


def _config_dict(args: argparse.Namespace) -> dict:
    """The invocation's flags, less the output path, which does not change the
    artifact's content."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "out"}


def _cmd_spectrum(args, params) -> tuple[dict, str]:
    from .spectrum import spectrum_table

    table = spectrum_table(args.n_max, params)
    summary = (
        f"spectrum: {len(table['n'])} levels, E_0={_fmt(table['energy'][0])}, "
        f"E_{args.n_max}={_fmt(table['energy'][-1])}"
    )
    return table, summary


def _cmd_oracle(args, params) -> tuple[dict, str]:
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
    return table, summary


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


def _finite_curve(values: list[float], label: str, r_max: float) -> list[float]:
    """A curve's values on the grid, from one call on the whole grid; a value
    that leaves the doubles, as the metric factor and the flat (lam = 0)
    potentials do once r^2 overflows, is an error, not a NaN or inf row."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"the {label} is not a finite double on the grid to --r-max {r_max:g}")
    return values


def _cmd_wavefunction(args, params) -> tuple[dict, str]:
    import numpy as np

    from .wavefunctions import RadialEigenfunction, normalize

    f = normalize(RadialEigenfunction.from_quantum_numbers(args.k, args.l, params))
    r_max = args.r_max if args.r_max is not None else 10.0 / f.beta
    r = np.linspace(0.0, r_max, args.grid_points)
    with np.errstate(over="ignore", invalid="ignore"):
        # 1 + lam r^2 is 1 at lam = 0, also where r^2 overflows
        weight = r ** (params.dim - 1) * (1.0 + params.lam * r**2 if params.lam else 1.0)
    if not np.isfinite(weight).all():
        box = f"r_max={r_max:g}" if args.r_max is None else f"--r-max {r_max:g}"
        raise DomainError(
            f"{box} is out of range at hbar={params.hbar:g}, "
            f"omega={params.omega:g}: the weight factor (1 + lam r^2) r^(N-1) overflows"
        )
    summary = (
        f"wavefunction: k={args.k} l={args.l}, E={_fmt(f.energy)}, "
        f"beta={_fmt(f.beta)}, {args.grid_points} samples"
    )
    return {"r": r, "value": np.atleast_1d(f(r)), "weight_factor": weight}, summary


def _parse_vector(text: str | None, default: list[float], name: str) -> list[float]:
    """The flag's comma-separated components, as many as the default's, which
    stands where the flag is not given."""
    if text is None:
        return default
    try:
        vec = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"cannot parse {name} vector: {text!r}") from exc
    if len(vec) != len(default):
        raise DomainError(f"{name} needs {len(default)} components, got {len(vec)}")
    if not all(map(math.isfinite, vec)):
        raise DomainError(f"{name} components must be finite, got {text!r}")
    return vec


def _cmd_classical(args, params) -> tuple[dict, str]:
    dim = params.dim
    q0 = _parse_vector(args.q0, [1.0] + [0.0] * (dim - 1), "--q0")
    p0 = _parse_vector(args.p0, [float(i == min(1, dim - 1)) for i in range(dim)], "--p0")
    from .classical import PhaseState, conserved_series, integrate_orbit

    traj = integrate_orbit(
        PhaseState(q=q0, p=p0),
        params,
        args.t_end,
        tol=args.tol if args.tol is not None else 1e-10,
        samples=args.samples,
    )
    series = conserved_series(traj, params)
    drifts = {f"drift_{label}": values - values[0] for label, values in series.items()}
    columns = {
        "t": traj.t,
        **{f"q_{i + 1}": traj.q[:, i] for i in range(dim)},
        **{f"p_{i + 1}": traj.p[:, i] for i in range(dim)},
        "H": series["energy"],
        **drifts,
    }
    drift = max(float(abs(values).max()) for values in drifts.values())
    summary = (
        f"classical: {args.samples} samples to t={args.t_end}, "
        f"H={_fmt(float(series['energy'][0]))}, max conserved drift {drift:.3e}"
    )
    return columns, summary


def _cmd_effective_potential(args, params) -> tuple[dict, str]:
    start = 0.0 if args.cn == 0 else args.r_max / (10.0 * args.grid_points)
    r = _grid(start, args.r_max, args.grid_points)
    values = _finite_curve(effective_potential(r, params, args.cn), "effective potential",
                           args.r_max)
    if args.cn > 0 and params.omega > 0:
        r_min, u_min = effective_minimum(params, args.cn)
        summary = f"effective-potential: minimum {_fmt(u_min)} at r={_fmt(r_min)}"
    else:
        summary = f"effective-potential: {args.grid_points} samples"
    return {"r": r, "value": values}, summary


def _cmd_geometry(args, params) -> tuple[dict, str]:
    fns = {
        "metric": metric_factor,
        "curvature": scalar_curvature,
        "potential": potential,
    }
    r = _grid(0.0, args.r_max, args.grid_points)
    values = _finite_curve(fns[args.quantity](r, params), args.quantity, args.r_max)
    summary = (
        f"geometry: {args.quantity} sampled at {args.grid_points} points, "
        f"value({_fmt(args.r_max)})={_fmt(values[-1])}"
    )
    return {"r": r, "value": values}, summary


def _cmd_deform(args, params) -> tuple[dict, str]:
    from .spectrum import energy_closed_form, harmonic_base, solve_deformed_spectrum

    levels = list(range(args.n_max + 1))
    fixed = solve_deformed_spectrum(harmonic_base(params), levels, params)
    closed = energy_closed_form(levels, params)
    diff = abs(fixed - closed)
    columns = {
        "n": [float(n) for n in levels],
        "energy_fixed_point": fixed,
        "energy_closed_form": closed,
        "abs_diff": diff,
    }
    summary = f"deform: {len(levels)} levels, max |fixed-point - closed| = {diff.max():.3e}"
    return columns, summary


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
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify-all":
            artifact, summary, code = _cmd_verify_all(args)
        else:
            params = ModelParams(
                lam=args.lam, omega=args.omega, hbar=args.hbar, dim=args.dim
            )
            columns, summary = _COMMANDS[args.command](args, params)
            from .spectrum import SpectrumTable

            table, code = SpectrumTable(columns), 0
            artifact = table.to_csv() if args.format == "csv" else table.to_json(_config_dict(args))
        if args.out is not None:
            _write_atomic(args.out, artifact)
            print(summary)
        else:
            sys.stdout.write(artifact)
            print(summary, file=sys.stderr)
        return code
    except (argparse.ArgumentError, DomainError, ConvergenceError, BracketingError,
            ArithmeticError, LapackUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write artifact: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
