"""Run one CLI command with spans recorded around the package's layers.

Usage: python3 perfbench/trace_cli.py SPANS.json <pdm-oscillator arguments>

Behaves like `python -m pdm_oscillator.cli` (same exit code, same
tracebacks), and writes the spans and counters to SPANS.json on exit.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pdm_oscillator.cli as cli  # noqa: E402

import tracer  # noqa: E402

if __name__ == "__main__":
    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        code = rec.wrap("cli.run", cli.run)(sys.argv[2:])
    finally:
        rec.dump(sys.argv[1])
    sys.exit(code)
