import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdm_oscillator.cli as cli
from pdm_oscillator import classical, verify
from pdm_oscillator.verify import CheckResult


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


class TestSpectrumCommand:
    def test_reference_table(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = cli.run(
            ["spectrum", "--lambda", "0.02", "--omega", "1", "--hbar", "1",
             "--dim", "3", "--n-max", "10", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 11
        energies = [float(r["energy"]) for r in rows]
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert all(e < 25.0 for e in energies)

    def test_flat_single_row(self, tmp_path):
        out = tmp_path / "flat.csv"
        code = cli.run(
            ["spectrum", "--lambda", "0", "--omega", "1", "--dim", "3",
             "--n-max", "0", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["energy"]) == pytest.approx(1.5, rel=1e-15)

    def test_json_carries_config(self, tmp_path):
        out = tmp_path / "spectrum.json"
        code = cli.run(
            ["spectrum", "--n-max", "3", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["lam"] == 0.02
        assert payload["config"]["command"] == "spectrum"
        assert "out" not in payload["config"] and "tol" not in payload["config"]
        assert len(payload["rows"]) == 4

    def test_huge_scale_fits_in_double(self, tmp_path):
        # omega^2 = 1e320 overflows, but every energy and gap is finite
        out = tmp_path / "huge.csv"
        code = cli.run(
            ["spectrum", "--omega", "1e160", "--lambda", "1e20", "--n-max", "10",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 11
        for n, row in enumerate(rows):
            # g = lam*hbar/omega = 1e-140, so E_n = omega*(n + 3/2) to rounding
            assert float(row["energy"]) == pytest.approx(1e160 * (n + 1.5), rel=1e-15)
            assert float(row["gap_to_threshold"]) == pytest.approx(5e299, rel=1e-15)
            assert float(row["residual"]) <= 1e-15 * float(row["energy"])


class TestEffectivePotentialCommand:
    def test_reference_minimum_row(self, tmp_path):
        out = tmp_path / "eff.csv"
        code = cli.run(
            ["effective-potential", "--lambda", "0.02", "--cn", "100",
             "--omega", "1", "--r-max", "20", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        best = min(rows, key=lambda r: float(r["value"]))
        assert float(best["r"]) == pytest.approx(3.49, abs=0.01)
        assert float(best["value"]) == pytest.approx(8.2, abs=0.01)


class TestGeometryCommand:
    def test_curvature_origin(self, tmp_path):
        out = tmp_path / "curv.csv"
        code = cli.run(
            ["geometry", "--quantity", "curvature", "--r-max", "5",
             "--grid-points", "11", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(-0.24, rel=1e-12)


class TestWavefunctionCommand:
    def test_columns_and_weight(self, tmp_path):
        out = tmp_path / "wf.csv"
        code = cli.run(
            ["wavefunction", "--k", "1", "--l", "1", "--grid-points", "50",
             "--r-max", "8", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["r", "value", "weight_factor"]
        r = float(rows[30]["r"])
        expected = (1.0 + 0.02 * r * r) * r * r  # (1 + lam r^2) r^(N-1), N=3
        assert float(rows[30]["weight_factor"]) == pytest.approx(expected, rel=1e-12)


class TestClassicalCommand:
    def test_drift_columns_small(self, tmp_path):
        out = tmp_path / "orbit.csv"
        code = cli.run(
            ["classical", "--dim", "2", "--q0", "1.3,0.2", "--p0=-0.1,0.9",
             "--t-end", "10", "--samples", "201", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 201
        names = list(rows[0])
        assert names[:6] == ["t", "q_1", "q_2", "p_1", "p_2", "H"]
        drifts = [abs(float(r["drift_energy"])) for r in rows]
        assert max(drifts) < 1e-9

    def test_vector_length_validation(self, tmp_path):
        code = cli.run(
            ["classical", "--dim", "3", "--q0", "1,2", "--out",
             str(tmp_path / "x.csv")]
        )
        assert code == 1


class TestDeformCommand:
    def test_matches_closed_form(self, tmp_path):
        out = tmp_path / "deform.csv"
        code = cli.run(["deform", "--n-max", "5", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert all(float(r["abs_diff"]) < 1e-10 for r in rows)

    def test_huge_scale_fits_in_double(self, tmp_path):
        # omega^2 = 1e320 overflows, but every level is about 1e160
        out = tmp_path / "huge.csv"
        code = cli.run(
            ["deform", "--omega", "1e160", "--lambda", "1e20", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 11
        for row in rows:
            closed = float(row["energy_closed_form"])
            assert abs(float(row["energy_fixed_point"]) - closed) <= 1e-15 * closed


class TestOracleCommand:
    def test_small_report(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = cli.run(
            ["oracle", "--l", "1", "--k", "1", "--grid-points", "1500",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(float(r["rel_error"]) < 1e-4 for r in rows)

    def test_levels_rounded_to_the_threshold(self, tmp_path):
        # at lam = 1e6 every level from n = 43 on rounds to the threshold
        # 5e-7, where Omega from sqrt(omega^2 - 2 lam E) is 0
        out = tmp_path / "oracle.csv"
        assert cli.run(["oracle", "--lambda", "1e6", "--l", "0", "--k", "25", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 26
        assert all(float(r["rel_error"]) < 1e-4 for r in rows)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["spectrum", "--n-max", "50", "--out"]
        assert cli.run(argv + [str(a)]) == 0
        assert cli.run(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        # verify-all runs the real battery code on its sub-second checks.
        monkeypatch.setattr(verify, "ALL_CHECKS", (
            verify.check_effective_minimum,
            verify.check_spectrum_self_consistency,
            verify.check_degeneracy,
            verify.check_generic_deformation,
        ))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.run(["verify-all", "--out", str(a)]) == 0
        assert cli.run(["verify-all", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestErrorPaths:
    def test_unknown_flag(self):
        assert cli.run(["spectrum", "--bogus", "1"]) == 1

    def test_unknown_command(self):
        assert cli.run(["frobnicate"]) == 1

    def test_negative_lambda(self, tmp_path):
        code = cli.run(
            ["spectrum", "--lambda", "-0.5", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1

    def test_unwritable_output(self):
        code = cli.run(
            ["spectrum", "--n-max", "1", "--out", "/nonexistent-dir/out.csv"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["effective-potential", "--grid-points", "0"],
            ["geometry", "--grid-points", "0"],
            ["wavefunction", "--grid-points", "0"],
            ["deform", "--n-max", "-1"],
            ["classical", "--samples", "0"],
            ["oracle", "--l", "-1"],
        ],
        ids=["effective-potential", "geometry", "wavefunction", "deform", "classical", "oracle"],
    )
    def test_bad_count_is_one_error_line(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert cli.run(argv + ["--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--tol", "1e-3"],
            ["verify-all", "--lambda", "0.5"],
            ["deform", "--tol", "1e-3"],
        ],
        ids=["spectrum-tol", "verify-all-lambda", "deform-tol"],
    )
    def test_unread_flag_is_one_error_line(self, capsys, argv):
        # --tol is read by classical only; verify-all takes --out alone
        assert cli.run(argv) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("command", ["oracle"])
    def test_overflow_is_one_error_line(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        argv = [command, "--omega", "1e160", "--lambda", "1e20", "--out", str(out)]
        assert cli.run(argv) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    def test_huge_box_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.run(["oracle", "--r-max", "1e200", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "r_max" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "deform"])
    def test_underflow_is_one_error_line(self, tmp_path, capsys, command):
        # the threshold omega^2/(2 lam) = 2.5e-399, and so every level, is
        # below the smallest double
        out = tmp_path / "x.csv"
        assert cli.run([command, "--omega", "1e-200", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "underflow a double" in lines[0]
        assert not out.exists()

    def test_unconverged_solve_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        import pdm_oscillator.spectrum as spectrum_module

        monkeypatch.setattr(spectrum_module, "_BISECT_ITERATIONS", 3)
        out = tmp_path / "x.csv"
        assert cli.run(["deform", "--n-max", "3", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "residual" in lines[0]
        assert not out.exists()

    def test_failed_eigensolve_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("stein (eigh_tridiagonal) err 1")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        out = tmp_path / "x.csv"
        assert cli.run(["oracle", "--l", "0", "--k", "0", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "eigensolve failed" in lines[0]
        assert not out.exists()

    def test_failed_integration_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        make_rhs = classical.hamilton_rhs
        calls = [0]

        def nan_after_five(params):
            rhs = make_rhs(params)

            def patched(t, y):
                calls[0] += 1
                if calls[0] > 100_000:  # stands in for a timeout
                    raise RuntimeError("integration did not stop")
                out = rhs(t, y)
                return out if calls[0] <= 5 else np.full_like(out, np.nan)

            return patched

        monkeypatch.setattr(classical, "hamilton_rhs", nan_after_five)
        out = tmp_path / "x.csv"
        assert cli.run(["classical", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()


class TestVerifyAll:
    def test_failure_sets_exit_code_two(self, tmp_path, monkeypatch):
        fake = [
            CheckResult(name="good", passed=True, measured=0.0, expected="x",
                        tolerance=1.0),
            CheckResult(name="bad", passed=False, measured=9.0, expected="x",
                        tolerance=1.0),
        ]
        monkeypatch.setattr(cli, "run_all", lambda: fake)
        out = tmp_path / "verify.json"
        code = cli.run(["verify-all", "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is False
        assert [r["name"] for r in payload["results"]] == ["good", "bad"]
        assert payload["results"][1]["measured"] == 9.0

    def test_success_sets_exit_code_zero(self, tmp_path, monkeypatch):
        fake = [
            CheckResult(name="good", passed=True, measured=0.0, expected="x",
                        tolerance=1.0, details={"extra": math.inf}),
        ]
        monkeypatch.setattr(cli, "run_all", lambda: fake)
        out = tmp_path / "verify.json"
        assert cli.run(["verify-all", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True
        # non-finite detail values are serialized as null for strict JSON
        assert payload["results"][0]["details"]["extra"] is None


class TestImportHygiene:
    SCRIPT = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import pdm_oscillator
import pdm_oscillator.cli
assert not scipy_modules(), f"import loads {scipy_modules()}"
assert pdm_oscillator.cli.run(["spectrum", "--n-max", "5", "--out", sys.argv[1]]) == 0
assert not scipy_modules(), f"spectrum loads {scipy_modules()}"
assert pdm_oscillator.cli.run(["wavefunction", "--k", "2", "--l", "1", "--out", sys.argv[2]]) == 0
assert not scipy_modules(), f"wavefunction loads {scipy_modules()}"
assert pdm_oscillator.cli.run(["classical", "--t-end", "2", "--samples", "11", "--out", sys.argv[3]]) == 0
assert not scipy_modules(), f"classical loads {scipy_modules()}"
radial = pdm_oscillator.normalize(
    pdm_oscillator.RadialEigenfunction.from_quantum_numbers(3, 1, pdm_oscillator.ModelParams(lam=0.02))
)
assert abs(pdm_oscillator.weighted_inner_product(radial, radial, radial.params) - 1.0) < 1e-12
assert not scipy_modules(), f"weighted_inner_product loads {scipy_modules()}"
flat = pdm_oscillator.ModelParams(lam=0.0, omega=1.0, dim=2)
start = pdm_oscillator.PhaseState(q=[1.0, 0.0], p=[0.0, 0.8])
orbit = pdm_oscillator.integrate_orbit(start, flat, t_end=7.0, samples=11)
assert pdm_oscillator.closure_check(orbit, tol=1e-6)[0]
assert not scipy_modules(), f"closure_check loads {scipy_modules()}"
"""

    def test_closed_form_commands_load_no_scipy(self, tmp_path):
        # a fresh interpreter: this test process has loaded scipy long ago
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "s.csv"), str(tmp_path / "w.csv"),
             str(tmp_path / "c.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
