"""Benchmark of the pdm-oscillator solver suite. Run from the repository root:

    python3 perfbench/run.py --workload battery|cli-cold --seed N --seconds S --trace 0|1

Set-up is timed SETUPS times, each in a fresh interpreter, from start to
the worker's READY line; `setup_s` is their median. The last of them goes
on to time the workload (see worker.py). The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
Uses the standard library only, so that its own start-up stays small.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT_DIR = ROOT / "perfbench" / "out"
SETUPS = 3
DEADLINE_S = 170


class BenchError(Exception):
    pass


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float, threading.Timer]:
    """Start a worker and wait for READY; returns it with its set-up seconds."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd + (["--setup-only"] if setup_only else []), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(DEADLINE_S, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, timer)
        raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup_s, timer


def finish(proc: subprocess.Popen, timer: threading.Timer) -> str:
    """Wait for the worker to end; returns the rest of its standard output."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pdm_oscillator" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'pdm_oscillator'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    OUT_DIR.mkdir(parents=True)

    setups = []
    for _ in range(SETUPS - 1 if args.trace == 0 else 0):
        proc, setup_s, timer = start_worker(args, setup_only=True)
        finish(proc, timer)
        if proc.returncode != 0:
            raise BenchError(f"set-up worker exited with {proc.returncode}")
        setups.append(setup_s)
    proc, setup_s, timer = start_worker(args, setup_only=False)
    setups.append(setup_s)
    lines = finish(proc, timer).splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    if args.trace == 0:
        print(f"reference: set-up samples {', '.join(f'{s:.4f}' for s in setups)} s")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        raise BenchError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(wanted)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
