import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pdm_oscillator.cli as cli
from pdm_oscillator import classical, oracle, verify
from pdm_oscillator.spectrum import SpectrumTable
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

    @pytest.mark.parametrize(
        "argv, last",
        [
            (["geometry", "--quantity", "potential"], 25.0),
            (["geometry", "--quantity", "curvature"], -0.0),
            (["effective-potential"], 25.0),
        ],
        ids=["potential", "curvature", "effective-potential"],
    )
    def test_far_box_is_finite(self, tmp_path, argv, last):
        # r^2 overflows at the wall, yet at lam > 0 each curve saturates there
        out = tmp_path / "far.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.run(argv + ["--r-max", "1e160", "--grid-points", "5", "--out", str(out)])
        assert code == 0
        values = [float(row["value"]) for row in read_csv(out)]
        assert all(math.isfinite(v) for v in values)
        assert values[-1] == last

    @pytest.mark.parametrize(
        "argv",
        [["geometry", "--quantity", "potential"], ["effective-potential"]],
        ids=["potential", "effective-potential"],
    )
    def test_omega_squared_overflow_is_not_an_error(self, tmp_path, capsys, argv):
        # omega^2 = 1e320 overflows, but the curves saturate at 5e299
        out = tmp_path / "huge.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.run(argv + ["--omega", "1e160", "--lambda", "1e20", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        values = [float(row["value"]) for row in read_csv(out)]
        assert values[-1] == pytest.approx(5e299, rel=1e-12)

    @pytest.mark.parametrize(
        "argv, u_min, r_min",
        [
            (["--cn", "1e300"], 25.0, 2e149),
            (["--omega", "1e-170"], 0.0, 2e170),  # u_min = 2.5e-339 underflows
            (["--omega", "1e160", "--lambda", "1e20"], 1e161, 10**-79.5),
            (["--lambda", "1e200", "--cn", "1e200"], 5e-201, 2**0.5 * 1e200),  # lam*c_n overflows
        ],
        ids=["huge-cn", "tiny-omega", "huge-omega", "huge-lambda-cn"],
    )
    def test_minimum_at_extreme_scales(self, tmp_path, capsys, argv, u_min, r_min):
        code = cli.run(["effective-potential", *argv, "--out", str(tmp_path / "eff.csv")])
        summary = capsys.readouterr().out
        assert code == 0 and summary.startswith("effective-potential: minimum ")
        value, at = summary.split()[2::2]
        assert float(value) == pytest.approx(u_min, rel=1e-14, abs=0.0)
        assert float(at.removeprefix("r=")) == pytest.approx(r_min, rel=1e-14)


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

    @pytest.mark.parametrize(
        "argv",
        [["--k", "0", "--l", "0"], ["--k", "2", "--l", "1"], ["--omega", "1e-8"]],
        ids=["ground", "k2-l1", "small-omega"],
    )
    def test_levels_rounded_to_the_threshold_are_bound(self, tmp_path, argv):
        # at lam = 1e8 the closed-form levels round to the continuum threshold;
        # they are bound states all the same
        out = tmp_path / "wf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["wavefunction", "--lambda", "1e8", *argv, "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.values())


    @pytest.mark.parametrize(
        "scale, error",
        [
            (["--lambda", "0.02", "--omega", "1e-100", "--hbar", "1e-8"], "weight factor"),
            (["--lambda", "1e8", "--omega", "1e-8", "--hbar", "1e-8"], None),
        ],
        ids=["weight-overflows", "writes"],
    )
    def test_ground_level_is_bound_at_any_scale(self, tmp_path, capsys, scale, error):
        # the unclamped closed form rounds E_0 up to 3.7e-16 relative above
        # the threshold (2.5000000000000007e-199 against 2.5e-199 in the
        # first corner), but every level is bound for lam > 0: the run
        # writes its table, or fails on the scale alone
        out = tmp_path / "wf.csv"
        argv = ["wavefunction", *scale, "--k", "0", "--l", "0", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(argv)
        if error is None:
            assert code == 0
            rows = read_csv(out)
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row.values())
        else:
            assert code == 1
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and error in lines[0]
            assert not out.exists()


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

    def test_extreme_omega_without_warnings(self, tmp_path, capsys):
        # at omega = 1e150 the state's momenta and rates reach 1e150: the
        # first step's RMS norms must not square them
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["classical", "--omega", "1e150", "--t-end", "1e-149", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        rows = read_csv(out)
        assert len(rows) == 2001
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())


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


    def test_one_box_for_every_grid(self, tmp_path):
        # the box is sized at (l_max, k_max) for every l, whether or not
        # --grid-points is given, and --grid-points counts cells: its default
        # is the cell count default_radial_grid gives the top level
        from pdm_oscillator import ModelParams, default_radial_grid

        cells = default_radial_grid(ModelParams(lam=0.02, dim=3), 2, 2).cells
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert cli.run(["oracle", "--out", str(a)]) == 0
        assert cli.run(["oracle", "--grid-points", str(cells), "--out", str(b)]) == 0
        assert cli.run(["oracle", "--grid-points", str(cells + 1), "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() != c.read_bytes()

    def test_tiny_box_from_r_zero_writes_a_table(self, tmp_path):
        # at hbar = 1e-20 the unit of length is 1e-10, so --r-max 1e-17 is the
        # box 1e-7: with cells from r = 0 there is no inner cutoff for it to
        # fall inside, and the table shows the states squeezed by the wall
        out = tmp_path / "x.csv"
        argv = ["oracle", "--hbar", "1e-20", "--r-max", "1e-17", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(argv) == 0
        rows = read_csv(out)
        assert len(rows) == 9
        assert all(float(r["rel_error"]) > 1.0 for r in rows)

    def test_r_max_keeps_the_cell_width(self, tmp_path, monkeypatch):
        # a given box keeps the default cell width: 3 times the default box
        # gets 3 times its cells and the same accuracy, and a smaller box
        # keeps the default count
        from pdm_oscillator import ModelParams, default_radial_grid

        base = default_radial_grid(ModelParams(lam=0.02, dim=3), 2, 2)
        grids, report = [], oracle.oracle_report

        def recording(params, l_max, k_max, grid):
            grids.append(grid)
            return report(params, l_max, k_max, grid)

        monkeypatch.setattr(oracle, "oracle_report", recording)
        out = tmp_path / "x.csv"
        assert cli.run(["oracle", "--r-max", str(3.0 * base.r_max), "--out", str(out)]) == 0
        assert all(float(r["rel_error"]) < 1e-10 for r in read_csv(out))
        assert cli.run(["oracle", "--r-max", str(0.5 * base.r_max), "--out", str(out)]) == 0
        assert 3 * base.cells <= grids[0].cells <= 3 * base.cells + 1
        assert grids[1].cells == base.cells

    def test_r_max_is_a_physical_length(self, tmp_path):
        # the oracle's unit of length is sqrt(hbar/omega) = 2 at hbar = 4, so
        # --r-max 20 there is the box 10 of the model at g = lam hbar/omega = 0.08
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = ["--grid-points", "400"]
        assert cli.run(["oracle", "--hbar", "4", "--r-max", "20", *grid, "--out", str(a)]) == 0
        assert cli.run(["oracle", "--lambda", "0.08", "--r-max", "10", *grid, "--out", str(b)]) == 0
        a, b = read_csv(a), read_csv(b)
        for column in ("rel_error", "convergence_order", "boundary_contaminated"):
            assert [r[column] for r in a] == [r[column] for r in b]

    def test_huge_omega_writes_a_table(self, tmp_path):
        # omega^2 = 1e320 overflows, but g = lam hbar/omega = 1e-140 is flat in
        # double precision: the table's errors and orders are those of lam = 0,
        # and its energies 1e160 times theirs
        huge, flat = tmp_path / "huge.csv", tmp_path / "flat.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(["oracle", "--omega", "1e160", "--lambda", "1e20", "--out", str(huge)])
        assert code == 0
        assert cli.run(["oracle", "--lambda", "0", "--out", str(flat)]) == 0
        huge, flat = read_csv(huge), read_csv(flat)
        assert len(huge) == 9
        assert all(float(r["rel_error"]) < 1e-10 for r in huge)
        for column in ("n", "k", "l", "rel_error", "convergence_order"):
            assert [r[column] for r in huge] == [r[column] for r in flat]
        for h, f in zip(huge, flat):
            assert float(h["energy"]) == pytest.approx(1e160 * float(f["energy"]), rel=1e-15)

    @pytest.mark.parametrize(
        "scale, lam",
        [("1e-100", lam) for lam in ("0", "1e-30", "1e-8", "0.02")]
        + [("1e100", lam) for lam in ("0", "1e-30", "1e-8", "0.02", "1e8")],
    )
    def test_extreme_scales_write_tables(self, tmp_path, scale, lam):
        # at omega = hbar, g = lam: the oracle solves the model at omega = hbar = 1
        out = tmp_path / "oracle.csv"
        argv = ["oracle", "--omega", scale, "--hbar", scale, "--lambda", lam, "--dim", "3",
                "--l", "1", "--k", "1", "--grid-points", "400", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(argv) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(float(r["rel_error"]) < 1e-7 for r in rows)

    @pytest.mark.parametrize("lam", ["0", "1e-30", "1e-8", "0.02", "1e8", "1e30"])
    @pytest.mark.parametrize("omega", ["1e-100", "1e-8", "1", "1e8", "1e100"])
    @pytest.mark.parametrize("hbar", ["1e-100", "1e-8", "1", "1e8", "1e100"])
    def test_corner_sweep(self, tmp_path, capsys, lam, omega, hbar):
        # every corner either writes a table that agrees with the closed form
        # or ends in one error line, never in a traceback or a warning; the
        # oracle sees only g = lam hbar/omega, and every corner with lam = 0
        # or g <= 1e8 writes a table
        out = tmp_path / "oracle.csv"
        argv = ["oracle", "--lambda", lam, "--omega", omega, "--hbar", hbar, "--dim", "3",
                "--l", "1", "--k", "1", "--grid-points", "400", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(argv)
        g = float(lam) * (float(hbar) / float(omega))
        assert code == 0 or g > 1e8
        if code == 0:
            assert all(float(r["rel_error"]) < 1e-4 for r in read_csv(out))
        else:
            assert code == 1
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert not out.exists()


class TestDeterminism:
    # every command but verify-all, at small sizes
    RERUN_COMMANDS = {
        "spectrum": ["spectrum", "--n-max", "50"],
        "deform": ["deform", "--n-max", "5"],
        "wavefunction": ["wavefunction", "--k", "2", "--l", "1", "--grid-points", "51"],
        "classical": ["classical", "--t-end", "5", "--samples", "11"],
        "effective-potential": ["effective-potential", "--grid-points", "101"],
        "geometry": ["geometry", "--quantity", "curvature", "--grid-points", "101"],
        "oracle": ["oracle", "--l", "1", "--k", "1", "--grid-points", "400"],
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(RERUN_COMMANDS))
    def test_byte_identical_command_reruns(self, tmp_path, command, fmt):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        argv = self.RERUN_COMMANDS[command] + ["--format", fmt, "--out"]
        assert cli.run(argv + [str(a)]) == 0
        assert cli.run(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(RERUN_COMMANDS))
    def test_one_table_writer_call_per_artifact(self, tmp_path, monkeypatch, command, fmt):
        # every artifact is written by SpectrumTable.to_csv or to_json_rows,
        # once, which is what a traced run times as serialization
        calls = []
        for method in ("to_csv", "to_json_rows"):
            def counted(table, *args, _method=method, _original=getattr(SpectrumTable, method)):
                calls.append(_method)
                return _original(table, *args)

            monkeypatch.setattr(SpectrumTable, method, counted)
        argv = self.RERUN_COMMANDS[command] + ["--format", fmt, "--out", str(tmp_path / "x")]
        assert cli.run(argv) == 0
        assert calls == ["to_csv" if fmt == "csv" else "to_json_rows"]

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
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


    # every command but verify-all and wavefunction, whose np.exp values
    # differ between numpy's SIMD targets
    DISPATCH_COMMANDS = [
        ["spectrum", "--n-max", "20"],
        ["deform", "--n-max", "5"],
        ["effective-potential", "--grid-points", "101"],
        ["classical", "--t-end", "5", "--samples", "11"],
        ["oracle", "--l", "1", "--k", "1", "--grid-points", "400"],
        *(["geometry", "--quantity", q] for q in ("metric", "curvature", "potential")),
    ]

    def test_independent_of_cpu_dispatch(self, tmp_path):
        # numpy picks each loop's SIMD kernel at run time; a child with every
        # enabled dispatch target above the baseline switched off writes the
        # same bytes (on a machine with none, it is the same run)
        from numpy._core import _multiarray_umath as umath

        disabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
        script = (
            "import sys\n"
            "from pdm_oscillator import cli\n"
            "for i, argv in enumerate(eval(sys.argv[2])):\n"
            "    for fmt in ('csv', 'json'):\n"
            "        out = f'{sys.argv[1]}/{i}.{fmt}'\n"
            "        assert cli.run(argv + ['--format', fmt, '--out', out]) == 0, argv\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        for name, features in (("enabled", ""), ("baseline", " ".join(disabled))):
            (tmp_path / name).mkdir()
            env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=features)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / name), repr(self.DISPATCH_COMMANDS)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        for i, argv in enumerate(self.DISPATCH_COMMANDS):
            for fmt in ("csv", "json"):
                enabled = (tmp_path / "enabled" / f"{i}.{fmt}").read_bytes()
                assert enabled == (tmp_path / "baseline" / f"{i}.{fmt}").read_bytes(), argv


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
            ["deform", "--n-max", "100001"],
            ["classical", "--samples", "0"],
            ["oracle", "--l", "-1"],
        ],
        ids=["effective-potential", "geometry", "wavefunction", "deform", "deform-cap",
             "classical", "oracle"],
    )
    def test_bad_count_is_one_error_line(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert cli.run(argv + ["--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["geometry", "--r-max", "nan"], "--r-max"),
            (["geometry", "--r-max", "0"], "--r-max"),
            (["geometry", "--r-max", "inf"], "--r-max"),
            (["geometry", "--quantity", "potential", "--lambda", "0", "--r-max", "1e200"],
             "--r-max"),
            (["geometry", "--quantity", "metric", "--r-max", "1e200"], "--r-max"),
            (["effective-potential", "--r-max", "nan"], "--r-max"),
            (["effective-potential", "--lambda", "0", "--r-max", "1e200"], "--r-max"),
            (["wavefunction", "--r-max", "0"], "--r-max"),
            (["wavefunction", "--r-max", "nan"], "--r-max"),
            (["classical", "--tol", "nan"], "tol must be finite and > 0"),
            (["classical", "--tol", "inf"], "tol must be finite and > 0"),
        ],
        ids=["geometry-nan", "geometry-zero", "geometry-inf", "geometry-potential-overflows",
             "geometry-metric-overflows", "effective-potential-nan",
             "effective-potential-overflows", "wavefunction-zero", "wavefunction-nan",
             "classical-tol-nan", "classical-tol-inf"],
    )
    def test_bad_box_or_tolerance_is_one_error_line(self, tmp_path, capsys, argv, flag):
        # a box that is not a positive double, or one where a closed form
        # leaves the doubles (the metric factor, or the flat potential, once
        # r^2 overflows), would give rows at r = 0 only or NaN rows; a NaN or
        # infinite tolerance would stall the step-size control
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.run(argv + ["--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and flag in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["oracle", "--k", "-1"], "--k"),
            (["oracle", "--l", "-1"], "--l"),
            (["wavefunction", "--k", "-1"], "--k"),
            (["wavefunction", "--l", "-1"], "--l"),
        ],
        ids=["oracle-k", "oracle-l", "wavefunction-k", "wavefunction-l"],
    )
    def test_bad_quantum_number_names_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "x.csv"
        assert cli.run(argv + ["--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag} ")
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

    def test_underflowing_width_names_the_scale(self, tmp_path, capsys):
        wavefunction = ["wavefunction", "--omega", "1e-100", "--hbar", "1e100", "--k", "2",
                        "--l", "1"]
        cases = [
            (["oracle", "--hbar", "1e200"], "hbar=1e+200"),
            (wavefunction + ["--lambda", "1e-30"], "hbar=1e+100 and omega=1e-100"),
            (wavefunction + ["--lambda", "1e8"], "hbar=1e+100 and omega=1e-100"),
        ]
        out = tmp_path / "x.csv"
        for argv, scale in cases:
            assert cli.run(argv + ["--out", str(out)]) == 1
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert scale in lines[0]
            assert not out.exists()

    def test_overflowing_weight_names_the_scale(self, tmp_path, capsys):
        # at hbar = 1e100 the box 10/beta reaches 1e94, where the weight
        # factor (1 + lam r^2) r^2 overflows
        out = tmp_path / "x.csv"
        argv = ["wavefunction", "--lambda", "0.02", "--omega", "1e-8", "--hbar", "1e100",
                "--k", "0", "--l", "0", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(argv) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "hbar=1e+100, omega=1e-08" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["classical", "--omega", "1e160", "--t-end", "1e-159"],
            ["classical", "--omega", "1e100", "--q0", "1e60,0,0", "--t-end", "1e-99"],
            ["oracle", "--omega", "1e200", "--hbar", "1e200", "--grid-points", "400"],
        ],
        ids=["classical-omega-squared", "classical-energy", "oracle"],
    )
    def test_overflow_is_one_error_line(self, tmp_path, capsys, argv):
        # omega^2 = 1e320, omega^2 q^2 = 1e320 and the unit hbar omega = 1e400
        # overflow a double
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(argv + ["--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "omega=" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "r_max, hbar, box",
        [("-1", "1", "-1"), ("0", "1", "0"), ("1e200", "1e-300", "inf")],
    )
    def test_nonpositive_or_infinite_box_names_the_flag(self, tmp_path, capsys, r_max, hbar, box):
        # --r-max is a length in the model's units; in units of sqrt(hbar/omega)
        # the box must be positive and finite
        out = tmp_path / "x.csv"
        argv = ["oracle", "--hbar", hbar, "--r-max", r_max, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(argv) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: --r-max {float(r_max):g} ")
        assert f"the box {box} sqrt(hbar/omega)" in lines[0] and f"hbar={float(hbar):g}" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--k", "999"], "--k 999: "),
            (["--k", "182"], "--k 182: "),
            (["--r-max", "1e300"], "--k 2 --r-max 1e+300: "),
            (["--grid-points", "50"], "--grid-points 50: "),
            (["--grid-points", "400", "--k", "150"], "--grid-points 400: "),
            (["--grid-points", "60000", "--k", "150"], "--grid-points 60000: "),
        ],
        ids=["k-far-past-the-bound", "k-past-the-bound", "box-past-the-bound", "too-few-cells",
             "k-over-cells", "cells-past-the-bound"],
    )
    def test_grid_error_names_the_flag(self, tmp_path, capsys, monkeypatch, argv, flag):
        # a grid too small for --k, or an eigenvector block past the bound
        # (at the default l = 2, first passed at k = 182), ends in one error
        # line naming --grid-points where it was given and --k, with --r-max
        # where it was given, otherwise, before any eigensolve runs
        def unreachable():
            raise AssertionError("an eigensolve was called")

        monkeypatch.setattr(oracle, "_lapack", unreachable)
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(["oracle", *argv, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag}")
        assert not out.exists()

    def test_grid_too_coarse_for_the_level_spacing_names_the_flag(self, tmp_path, capsys):
        # 1000 cells hold k = 80 within the size bounds, but the coarse
        # grid's top levels are off by more than their spacing, so inverse
        # iteration on the refined grid lands on a neighbouring level
        out = tmp_path / "x.csv"
        argv = ["oracle", "--lambda", "0.02", "--l", "0", "--k", "80", "--grid-points", "1000"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run([*argv, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --grid-points 1000: ")
        assert "too coarse for the level spacing" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("hbar", ["1e7", "1e8", "1e10"])
    def test_huge_g_names_the_scale(self, tmp_path, capsys, hbar):
        # g = lam hbar/omega = 1e307, 1e308 and inf: the box overflows, the
        # threshold 1/(2g) rounds to 0, and g itself overflows
        out = tmp_path / "x.csv"
        argv = ["oracle", "--lambda", "1e300", "--hbar", hbar, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(argv) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "g = lam*hbar/omega" in lines[0]
        assert "hbar=" in lines[0] and "omega=" in lines[0]
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
        _, stein = oracle._lapack()
        monkeypatch.setattr(oracle, "_lapack", lambda: (lambda *args: 1, stein))
        out = tmp_path / "x.csv"
        assert cli.run(["oracle", "--l", "0", "--k", "0", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "eigensolve failed" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["library", "symbol"])
    @pytest.mark.parametrize("argv", [["oracle", "--l", "0", "--k", "0"], ["verify-all"]],
                             ids=["oracle", "verify-all"])
    def test_missing_lapack_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv, missing):
        # a numpy linked to a LAPACK without scipy-openblas64's LAPACKE names
        import ctypes

        class NoSymbols:
            def __init__(self, path):
                if missing == "library":
                    raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
        monkeypatch.setattr(oracle, "_lapack", oracle._lapack.__wrapped__)
        out = tmp_path / "x.out"
        assert cli.run([*argv, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: the oracle needs LAPACK stebz")
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
        monkeypatch.setattr(verify, "run_all", lambda: fake)
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
        monkeypatch.setattr(verify, "run_all", lambda: fake)
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
for argv in (
    ["spectrum", "--n-max", "5"],
    ["deform", "--n-max", "5"],
    ["geometry", "--grid-points", "5"],
    ["effective-potential", "--grid-points", "5"],
    ["wavefunction", "--k", "2", "--l", "1"],
    ["classical", "--t-end", "2", "--samples", "11"],
    ["oracle", "--l", "2", "--k", "2"],
    ["verify-all"],
):
    assert pdm_oscillator.cli.run([*argv, "--out", sys.argv[1]]) == 0
    assert not scipy_modules(), f"{argv[0]} loads {scipy_modules()}"
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

    # the public names of each layer, all of which the package exports
    PUBLIC = {
        "classical": ["PhaseState", "RKStats", "Trajectory", "closure_check", "conserved_series",
                      "estimate_radial_period", "exact_orbit", "hamilton_rhs", "hamiltonian",
                      "integrate_orbit", "integrate_orbits"],
        "errors": ["BracketingError", "ConvergenceError", "DomainError", "GridSizeError",
                   "LapackUnavailableError"],
        "geometry": ["ModelParams", "effective_minimum", "effective_potential",
                     "metric_factor", "potential", "scalar_curvature"],
        "oracle": ["DiscretizedOperator", "RadialGrid", "default_radial_grid", "discretize_radial",
                   "grid_eigen_residual", "oracle_report", "solve_generalized_eigen"],
        "specfun": ["hermite_function", "integrate", "laguerre"],
        "spectrum": ["SpectrumTable", "angular_multiplicity", "continuum_threshold", "degeneracy",
                     "effective_frequency", "energy_closed_form", "energy_implicit",
                     "harmonic_base", "json_rows", "solve_deformed_spectrum", "spectrum_table",
                     "threshold_gap", "write_csv"],
        "wavefunctions": ["CartesianEigenfunction", "RadialEigenfunction", "normalize",
                          "weighted_inner_product"],
    }

    @staticmethod
    def fresh(script, *args) -> str:
        """Standard output of `script` in a fresh interpreter: this test
        process has loaded every module long ago."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, *map(str, args)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_no_command_loads_scipy(self, tmp_path):
        self.fresh(self.SCRIPT, tmp_path / "x.out")

    def test_package_import_loads_no_layer(self):
        script = """
import json, sys
import pdm_oscillator

assert not hasattr(pdm_oscillator, "__wrapped__")
loaded = sorted(m for m in sys.modules if m.startswith("pdm_oscillator"))
listed = dir(pdm_oscillator)
public = json.loads(sys.argv[1])
same = {name: getattr(pdm_oscillator, name) is getattr(getattr(pdm_oscillator, layer), name)
        for layer, names in public.items() for name in names}
print(json.dumps({"loaded": loaded, "listed": listed, "same": same, "all": pdm_oscillator.__all__}))
"""
        result = json.loads(self.fresh(script, json.dumps(self.PUBLIC)))
        assert result["loaded"] == ["pdm_oscillator"]
        names = [name for names in self.PUBLIC.values() for name in names]
        assert set(result["listed"]) >= set(self.PUBLIC) | set(names)
        assert result["same"] == dict.fromkeys(names, True)
        assert sorted(result["all"]) == sorted([*self.PUBLIC, *names])

    def test_importing_cli_from_the_package_loads_no_other_layer(self):
        script = """
import sys
from pdm_oscillator import cli

print(*sorted(m for m in sys.modules if m.startswith("pdm_oscillator")))
"""
        loaded = self.fresh(script).split()
        assert loaded == ["pdm_oscillator", *(f"pdm_oscillator.{m}" for m in ("cli", "errors", "geometry"))]

    # the closed-form commands evaluate their formulas on lists, without numpy
    @pytest.mark.parametrize(
        "argv, layers, numpy",
        [
            (["spectrum", "--n-max", "3"], ["geometry", "spectrum"], False),
            (["deform", "--n-max", "3"], ["geometry", "spectrum"], True),
            (["geometry", "--grid-points", "5"], ["geometry", "spectrum"], False),
            (["geometry", "--quantity", "metric", "--grid-points", "5"],
             ["geometry", "spectrum"], False),
            (["geometry", "--quantity", "curvature", "--grid-points", "5"],
             ["geometry", "spectrum"], False),
            (["effective-potential", "--grid-points", "5"], ["geometry", "spectrum"], False),
            (["wavefunction", "--grid-points", "5"],
             ["geometry", "specfun", "spectrum", "wavefunctions"], True),
            (["classical", "--t-end", "1", "--samples", "3"],
             ["classical", "geometry", "spectrum"], True),
            (["oracle", "--l", "0", "--k", "0"], ["geometry", "oracle", "spectrum"], True),
        ],
        ids=["spectrum", "deform", "geometry", "geometry-metric", "geometry-curvature",
             "effective-potential", "wavefunction", "classical", "oracle"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_command_loads_only_its_layer(self, tmp_path, argv, layers, numpy, fmt):
        script = """
import sys
import pdm_oscillator.cli

code = pdm_oscillator.cli.run(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("pdm_oscillator."))
has_json = "json" in sys.modules
has_numpy = "numpy" in sys.modules
import json
print(json.dumps({"code": code, "loaded": loaded, "json": has_json, "numpy": has_numpy}))
"""
        stdout = self.fresh(script, *argv, "--format", fmt, "--out", tmp_path / f"x.{fmt}")
        result = json.loads(stdout.splitlines()[-1])
        assert result["code"] == 0
        want = ["cli", "errors", *layers]
        assert result["loaded"] == sorted(f"pdm_oscillator.{m}" for m in want)
        assert result["json"] == (fmt == "json")
        assert result["numpy"] == numpy

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["classical", "--samples", "0"], "--samples"),
            (["classical", "--t-end", "-1"], "--t-end"),
            (["classical", "--tol", "0"], "--tol"),
            (["effective-potential", "--grid-points", "0"], "--grid-points"),
            (["effective-potential", "--cn", "-1"], "--cn"),
            (["spectrum", "--dim", "0"], "dim"),
            (["spectrum", "--n-max", "-1"], "--n-max"),
            (["deform", "--n-max", "100001"], "--n-max"),
            (["oracle", "--grid-points", "50"], "--grid-points"),
        ],
        ids=["classical-samples", "classical-t-end", "classical-tol", "effective-potential-grid",
             "effective-potential-cn", "spectrum-dim", "spectrum-n-max", "deform-n-max",
             "oracle-grid-points"],
    )
    def test_bad_flag_fails_before_numpy_loads(self, argv, flag):
        # a bad flag is one error line that names it, printed before any
        # layer that needs numpy is imported
        script = """
import contextlib, io, json, sys
import pdm_oscillator.cli

err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = pdm_oscillator.cli.run(sys.argv[1:])
print(json.dumps({"code": code, "stderr": err.getvalue(), "numpy": "numpy" in sys.modules}))
"""
        result = json.loads(self.fresh(script, *argv).splitlines()[-1])
        lines = result["stderr"].strip().splitlines()
        assert result["code"] == 1 and len(lines) == 1, result
        assert lines[0].startswith(f"error: {flag} ")
        assert result["numpy"] is False
