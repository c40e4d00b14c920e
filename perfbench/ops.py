"""Operations the benchmark times, and helpers shared by their output checks."""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


@dataclass
class Context:
    """Where a run works: the checkout root, its output directory, and, during
    a traced CLI round, the directory that traced children write spans to."""

    root: Path
    out_dir: Path
    trace_dir: Path | None = None


@dataclass
class Op:
    """One timed operation: a library call or one CLI invocation.

    `run` does the work and returns its output. `verify` looks at an output
    and returns (fault, problems): a fault means the operation failed (it
    counts in `failed`), problems mean it finished with wrong output (the
    run is then not correct).
    """

    name: str
    run: Callable[[], Any]
    verify: Callable[[Any], tuple[str | None, list[str]]]


def package_env(root: Path) -> dict:
    """Environment for a child interpreter that imports the package from root/src."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_outputs(check: Callable[[Any], list[str]]):
    """Wrap a check of a library call's output: such a call fails only by raising."""
    return lambda output: (None, check(output))


def rel_problems(label: str, got, want, rtol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want) / np.abs(want)
    worst = float(np.max(err)) if err.size else 0.0
    return [] if worst <= rtol else [f"{label}: relative error {worst:.3e} > {rtol:g}"]


def abs_problems(label: str, got, want, atol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if worst <= atol else [f"{label}: error {worst:.3e} > {atol:g}"]


def up_to_sign_problems(label: str, got, want, rtol: float = 1e-7) -> list[str]:
    """Eigenfunction values agree with the reference up to an overall sign."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = float(np.max(np.abs(want)))
    worst = min(float(np.max(np.abs(got - want))), float(np.max(np.abs(got + want)))) / scale
    return [] if worst <= rtol else [f"{label}: values off by {worst:.3e} of max > {rtol:g}"]


def increasing_problems(label: str, values) -> list[str]:
    return [] if np.all(np.diff(values) > 0) else [f"{label}: not strictly increasing"]


def parse_columns(text: str, fmt: str) -> dict[str, list]:
    """Columns of a CSV table or of a JSON {"rows": [...]} artifact, as exact floats."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}
    payload = json.loads(text)
    rows = payload["rows"] if isinstance(payload, dict) else payload
    return {
        name: [float("nan") if row[name] is None else float(row[name]) for row in rows]
        for name in rows[0]
    }

