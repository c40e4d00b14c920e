"""One fresh interpreter: set up a workload, time its rounds, check every output.

Started by run.py as

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

It prints READY when set-up is done (run.py times set-up up to that line),
then reference figures, and as its last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Operations are timed in rounds, in an order drawn from the seed for each
round (see timed_run). Every operation is deterministic, so the spread of
its repeats is machine noise: `best_s` takes each operation's fastest
repeat, `item_p50_s` its median repeat, and both are scaled by the
machine's speed during the run (see end_to_end).

With --trace 1 the worker runs one untraced round and one traced round,
and reports per-layer figures from the traced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

import ops

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
CALL_TARGET_S = 0.75
MAX_CALLS = 50
# The machine's speed drifts over minutes (README.md, "Steadiness"). Between
# timed calls, at most every CALIBRATION_EVERY_S, the worker times
# CALIBRATION_CALLS calls of a fixed piece of work of the program's kind;
# timing metrics are scaled by CALIBRATION_REF_S over the run's median
# calibration time.
CALIBRATION_EVERY_S = 0.25
CALIBRATION_CALLS = 5
CALIBRATION_REF_S = 0.002
IMPORT_PROBES = 3

VERIFY_CHECKS = {
    "check_orbit_closure",
    "check_classical_conservation",
    "check_oracle_equivalence",
    "check_orthonormality",
    "check_eigenfunction_residual",
}


class Tally:
    """Timings, attempts, failures and wrong outputs of one run."""

    def __init__(self):
        self.times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.faults: dict[str, str] = {}
        self.problems: list[str] = []

    def record(self, op, fault, problems) -> None:
        self.attempted += 1
        if fault is not None:
            self.failed += 1
            self.faults[op.name] = fault
        self.problems += [f"{op.name}: {p}" for p in problems]


def _call(op):
    try:
        return op.run(), None
    except Exception as exc:  # a library call that raises has failed; keep going
        return None, f"{type(exc).__name__}: {exc}"


def _verify(op, output, fault, tally: Tally) -> None:
    problems = []
    if fault is None:
        fault, problems = op.verify(output)
    tally.record(op, fault, problems)


def timed_call(op, tally: Tally):
    """Call an operation once, recording its time; returns (output, fault)."""
    start = time.perf_counter()
    output, fault = _call(op)
    tally.times[op.name].append(time.perf_counter() - start)
    return output, fault


def run_one(op, tally: Tally) -> None:
    """Time one call, then check its output (untimed)."""
    _verify(op, *timed_call(op, tally), tally)


def import_times() -> dict[str, float]:
    """Cumulative import seconds of pdm_oscillator and scipy.integrate, from -X importtime.

    Median of IMPORT_PROBES fresh interpreters; 0 for a module not imported.
    """
    samples = defaultdict(list)
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import pdm_oscillator"],
            cwd=ROOT, env=ops.package_env(ROOT), capture_output=True, text=True, timeout=60, check=True,
        )
        found = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[0].startswith("import time:") and fields[1].strip().isdigit():
                found[fields[2].strip()] = int(fields[1]) * 1e-6
        for name in ("pdm_oscillator", "scipy.integrate"):
            samples[name].append(found.get(name, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def calibration_call() -> float:
    """Seconds for a fixed piece of work independent of the package: scipy's
    RK45 on a flat 2D oscillator, the integrator the classical layer uses."""
    start = time.perf_counter()
    solve_ivp(_flat_rhs, (0.0, 1.0), [1.0, 0.0, 0.0, 0.8], rtol=1e-10, atol=1e-10)
    return time.perf_counter() - start


def _flat_rhs(_t, y):
    return np.array([y[2], y[3], -y[0], -y[1]])


def end_to_end(tally: Tally, peak_rss_mb: float, calibration: list[float]) -> dict:
    """best_s sums each operation's fastest repeat. item_p50_s is the median over
    operations of each one's median repeat: for calls of 50-100 ms the fastest
    of a few dozen repeats depends on whether the run met a quiet spell, the
    median does not (README.md, "Steadiness"). Both are scaled to the
    reference speed at which a calibration call takes CALIBRATION_REF_S."""
    fastest = [min(times) for times in tally.times.values()]
    typical = [statistics.median(times) for times in tally.times.values()]
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    print(f"reference: unscaled best_s {sum(fastest):.4f} s, item_p50_s {statistics.median(typical):.4f} s; "
          f"{len(calibration)} calibration calls, median {1e3 * statistics.median(calibration):.4f} ms, "
          f"scale {scale:.4f}")
    return {
        "best_s": {"value": sum(fastest) * scale, "unit": "s"},
        "item_p50_s": {"value": statistics.median(typical) * scale, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(summary, counts, check_times, imports, artifact_bytes, overhead_pct) -> dict:
    def span(name, field):
        return summary.get(name, {}).get(field, 0)

    m = {}
    for fn in ("integrate_orbit", "estimate_radial_period", "closure_check", "conserved_series"):
        m[f"classical.{fn}.self_s"] = (span(f"classical.{fn}", "self_s"), "s")
    m["classical.integrate_orbit.calls"] = (span("classical.integrate_orbit", "calls"), "count")
    m["classical.rhs.calls"] = (counts.get("classical.rhs.calls", 0), "count")
    for check in sorted(VERIFY_CHECKS):
        m[f"verify.{check}.s"] = (check_times.get(check, 0.0), "s")
    m["verify.other_checks.s"] = (
        sum(t for name, t in check_times.items() if name not in VERIFY_CHECKS), "s")
    for fn in ("spectrum_table", "energy_implicit", "solve_deformed_spectrum", "to_csv"):
        m[f"spectrum.{fn}.self_s"] = (span(f"spectrum.{fn}", "self_s"), "s")
    # to_json builds its rows with to_json_rows, which the CLI also calls directly
    m["spectrum.to_json.self_s"] = (span("spectrum.to_json", "self_s") + span("spectrum.to_json_rows", "self_s"), "s")
    m["spectrum.solve_deformed_spectrum.calls"] = (span("spectrum.solve_deformed_spectrum", "calls"), "count")
    for fn in ("oracle_report", "discretize_radial", "solve_generalized_eigen", "grid_eigen_residual"):
        m[f"oracle.{fn}.self_s"] = (span(f"oracle.{fn}", "self_s"), "s")
    m["oracle.solve_generalized_eigen.calls"] = (span("oracle.solve_generalized_eigen", "calls"), "count")
    m["oracle.unknowns"] = (counts.get("oracle.unknowns", 0), "count")
    for fn in ("normalize", "weighted_inner_product"):
        m[f"wavefunctions.{fn}.calls"] = (span(f"wavefunctions.{fn}", "calls"), "count")
        m[f"wavefunctions.{fn}.self_s"] = (span(f"wavefunctions.{fn}", "self_s"), "s")
    m["wavefunctions.eval_points"] = (counts.get("wavefunctions.eval_points", 0), "count")
    m["specfun.integrate.calls"] = (span("specfun.integrate", "calls"), "count")
    m["specfun.integrate.self_s"] = (span("specfun.integrate", "self_s"), "s")
    m["import.pdm_oscillator_s"] = (imports["pdm_oscillator"], "s")
    m["import.scipy_integrate_s"] = (imports["scipy.integrate"], "s")
    m["cli.run.self_s"] = (span("cli.run", "self_s"), "s")
    m["cli.artifact_bytes"] = (artifact_bytes, "B")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def merge_summaries(summaries) -> dict:
    total = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for summary in summaries:
        for name, entry in summary.items():
            for field, value in entry.items():
                total[name][field] += value
    return dict(total)


def traced_run(workload, op_list, rng, ctx: ops.Context, tally: Tally, seed: int) -> dict:
    import tracer

    start = time.perf_counter()
    for i in rng.permutation(len(op_list)):
        run_one(op_list[i], tally)
    untraced_s = time.perf_counter() - start

    rec = tracer.Recorder()
    if workload == "cli-cold":
        ctx.trace_dir = OUT_DIR / "spans"
        ctx.trace_dir.mkdir(parents=True, exist_ok=True)
        restore = lambda: None
    else:
        restore = tracer.install(rec)
    start = time.perf_counter()
    try:
        # checks wait until tracing stops: they call the package too
        outputs = [(op_list[i], *timed_call(op_list[i], tally)) for i in rng.permutation(len(op_list))]
    finally:
        restore()
    traced_s = time.perf_counter() - start
    ctx.trace_dir = None
    for op, output, fault in outputs:
        _verify(op, output, fault, tally)

    summaries = [tracer.summarize(rec.spans)]
    counts = dict(rec.counts)
    cli_spans = {}
    artifact_bytes = 0
    if workload == "cli-cold":
        for op, output, fault in outputs:
            path = OUT_DIR / "spans" / f"{op.name}.json"
            if path.exists():
                data = json.loads(path.read_text())
                cli_spans[op.name] = data["spans"]
                summaries.append(tracer.summarize(data["spans"]))
                for key, value in data["counts"].items():
                    counts[key] = counts.get(key, 0) + value
            if output is not None and output.artifact is not None:
                artifact_bytes += len(output.artifact.encode())
    summary = merge_summaries(summaries)
    check_times = {name: times[-1] for name, times in tally.times.items()} if workload == "battery" else {}
    overhead_pct = 100.0 * (traced_s / untraced_s - 1.0)
    metrics = per_layer(summary, counts, check_times, import_times(), artifact_bytes, overhead_pct)

    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "untraced_round_s": untraced_s,
        "traced_round_s": traced_s,
        "spans": rec.spans,
        "cli_spans": cli_spans,
        "summary": summary,
        "counts": counts,
    }))
    print(f"trace: untraced round {untraced_s:.3f} s, traced round {traced_s:.3f} s, "
          f"overhead {overhead_pct:+.1f}%; spans in {trace_path.relative_to(ROOT)}")
    return metrics


def timed_run(op_list, rng, seconds: float, tally: Tally, workload, in_children: bool) -> dict:
    """Time the operations in rounds, each round in an order drawn from the seed.

    Unless the workload runs whole rounds (every operation once a round),
    each operation is called about CALL_TARGET_S worth of times a round
    (between 1 and MAX_CALLS, sized by its first call), and these calls are
    shuffled among the others, so cheap calls are timed often and spread
    over the run. Rounds go on until --seconds have passed and the
    workload's MIN_ROUNDS are done.
    """
    calls: dict[int, int] = {}
    calibration = [calibration_call() for _ in range(CALIBRATION_CALLS)]
    calibrated = start = time.perf_counter()
    rounds = 0
    while rounds < workload.MIN_ROUNDS or time.perf_counter() - start < seconds:
        queue = [i for i in range(len(op_list)) for _ in range(calls.get(i, 1))]
        rng.shuffle(queue)
        pos = 0
        while pos < len(queue):
            i = queue[pos]
            pos += 1
            if time.perf_counter() - calibrated >= CALIBRATION_EVERY_S:
                calibration += [calibration_call() for _ in range(CALIBRATION_CALLS)]
                calibrated = time.perf_counter()
            run_one(op_list[i], tally)
            if i not in calls:
                first = tally.times[op_list[i].name][0]
                calls[i] = 1 if workload.WHOLE_ROUNDS else min(MAX_CALLS, max(1, round(CALL_TARGET_S / first)))
                for _ in range(calls[i] - 1):
                    queue.insert(int(rng.integers(pos, len(queue) + 1)), i)
        rounds += 1
    wall = time.perf_counter() - start
    calibration += [calibration_call() for _ in range(CALIBRATION_CALLS)]
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    all_samples = [t for times in tally.times.values() for t in times]
    q1, q2, q3 = statistics.quantiles(all_samples, n=4)
    print(f"reference: {rounds} rounds in {wall:.3f} s wall; all {len(all_samples)} samples: "
          f"median {q2:.4f} s, quartiles {q1:.4f} / {q3:.4f} s")
    for name in sorted(tally.times):
        times = tally.times[name]
        print(f"  {name:60s} best {min(times):.4f}  median {statistics.median(times):.4f}  n={len(times)}")
    return end_to_end(tally, peak_rss_mb, calibration)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("battery", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ctx = ops.Context(ROOT, OUT_DIR)
    rng = np.random.default_rng(args.seed)
    if args.workload == "cli-cold":
        # no warm-up: every operation is a cold start by design
        import cli_cold as module
    else:
        sys.path.insert(0, str(ROOT / "src"))
        import pdm_oscillator

        if not Path(pdm_oscillator.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"pdm_oscillator imported from {pdm_oscillator.__file__}, not {ROOT / 'src'}")
        import battery as module

        module.warm_up()
    op_list, final_check = module.build(rng, ctx)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    if args.trace:
        metrics = traced_run(args.workload, op_list, rng, ctx, tally, args.seed)
    else:
        metrics = timed_run(op_list, rng, args.seconds, tally, module, in_children=args.workload == "cli-cold")
    tally.problems += final_check()

    for name, fault in sorted(tally.faults.items()):
        print(f"failed: {name}: {fault}")
    for problem in tally.problems:
        print(f"wrong: {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
