"""Command-line surface: unit parsing, goldens, round-trips, determinism, exit codes."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bellsim import ValidationError, aspect_point
from bellsim.cli import main, provenance_to_argv
from bellsim.output import read_table
from bellsim.units import parse_angle, parse_angle_list, parse_frequency, parse_time

SQRT2 = math.sqrt(2)


class TestUnits:
    def test_angle_parsing(self):
        assert parse_angle("22.5deg") == pytest.approx(math.pi / 8, abs=1e-12)
        assert parse_angle("0.5rad") == 0.5
        assert parse_angle("180deg") == pytest.approx(0.0, abs=1e-12)

    def test_deg_and_rad_agree(self):
        for d in (0.0, 22.5, 45.0, 67.5, 123.4):
            r = math.radians(d)
            assert parse_angle(f"{d}deg") == pytest.approx(parse_angle(f"{r!r}rad"), abs=1e-12)

    def test_angle_requires_unit(self):
        with pytest.raises(ValidationError):
            parse_angle("0.5")
        with pytest.raises(ValidationError):
            parse_angle(0.5)

    def test_angle_list(self):
        quad = parse_angle_list("0deg,22.5deg,45deg,67.5deg", 4)
        assert quad == pytest.approx((0, math.pi / 8, math.pi / 4, 3 * math.pi / 8), abs=1e-12)
        with pytest.raises(ValidationError):
            parse_angle_list("0deg,45deg", 4)

    def test_frequency_forms(self):
        assert parse_frequency("46.2MHz") == 46.2e6
        assert parse_frequency("48.4e6") == 48.4e6
        assert parse_frequency("48400000") == 48.4e6
        assert parse_frequency("12kHz") == 12e3
        assert parse_frequency(5e6) == 5e6
        with pytest.raises(ValidationError):
            parse_frequency("-3MHz")
        with pytest.raises(ValidationError):
            parse_frequency("fast")

    def test_time_forms(self):
        assert parse_time("43ns") == 43e-9
        assert parse_time("1ms") == 1e-3
        assert parse_time("2.5us") == pytest.approx(2.5e-6, rel=1e-15)
        assert parse_time(4.3e-8) == 4.3e-8
        with pytest.raises(ValidationError):
            parse_time("soon")


class TestCurves:
    def test_golden_row(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["curves", "--points", "9", "--output", str(out), "--format", "csv"]) == 0
        _, rows = read_table(out)
        row = rows[1]  # delta = pi/8
        assert row["delta"] == pytest.approx(math.pi / 8, abs=1e-12)
        assert row["qm"] == pytest.approx(0.7071, abs=1e-4)
        assert row["sc"] == pytest.approx(0.3536, abs=1e-4)
        assert row["vt"] == pytest.approx(0.7071, abs=1e-4)
        assert row["mclhv"] == pytest.approx(0.5, abs=1e-12)
        assert row["vt"] == pytest.approx(row["qm"], abs=1e-12)
        # delta = pi/2 antipodal point for the semiclassical curve
        assert rows[4]["sc"] == pytest.approx(-0.5, abs=1e-12)
        assert rows[0]["qm"] == 1.0

    def test_empty_model_set_is_validation_error(self, tmp_path):
        assert main(["curves", "--models", "", "--output", str(tmp_path / "x.csv")]) == 1

    def test_svg_output(self, tmp_path):
        out = tmp_path / "curves.svg"
        assert main(["curves", "--points", "5", "--format", "svg", "--output", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert {p.get("data-name") for p in polys} == {"qm", "sc", "vt", "mclhv"}
        qm = next(p for p in polys if p.get("data-name") == "qm")
        ys = [float(v) for v in qm.get("data-y").split()]
        assert ys[0] == 1.0 and ys[-1] == pytest.approx(1.0, abs=1e-12)


class TestBell:
    def test_closed_form_sprime(self, capsys):
        assert main(["bell", "--f", "0.9", "--form", "sprime"]) == 0
        out = capsys.readouterr().out
        value = float([ln for ln in out.splitlines() if ln.startswith("value:")][0].split()[1])
        assert value == pytest.approx(0.136, abs=5e-4)

    def test_closed_form_s_random_choice(self, capsys):
        assert main(["bell", "--f", "0.5", "--form", "s"]) == 0
        out = capsys.readouterr().out
        value = float([ln for ln in out.splitlines() if ln.startswith("value:")][0].split()[1])
        assert value == pytest.approx(SQRT2, abs=1e-12)

    def test_station_frequencies_report_components(self, tmp_path):
        out = tmp_path / "bell.jsonl"
        code = main([
            "bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--round-trip", "43ns",
            "--form", "sprime", "--output", str(out), "--format", "jsonl",
        ])
        assert code == 0
        _, rows = read_table(out)
        row = rows[0]
        assert row["f_alice"] == pytest.approx(0.9732, abs=1e-4)
        assert row["f_bob"] == pytest.approx(0.8376, abs=1e-4)
        assert row["f"] == pytest.approx(0.9054, abs=1e-4)
        assert row["value"] == pytest.approx(-0.5 + row["f"] / SQRT2, abs=1e-12)
        for key in ("n_ab", "n_ab_alt", "n_a_alt_b", "n_a_alt_b_alt"):
            assert 0.0 <= row[key] <= 1.0

    def test_monte_carlo_engine(self, tmp_path):
        out = tmp_path / "bell_mc.csv"
        code = main([
            "bell", "--f", "0.9", "--form", "sprime", "--engine", "both",
            "--pairs", "150000", "--seed", "7", "--output", str(out), "--format", "csv",
        ])
        assert code == 0
        _, rows = read_table(out)
        row = rows[0]
        assert abs(row["mc_value"] - row["value"]) <= 4 * row["mc_std_error"]

    def test_monte_carlo_timeline_engine(self, tmp_path):
        out = tmp_path / "bell_mc_timeline.jsonl"
        code = main([
            "bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--round-trip", "43ns",
            "--form", "sprime", "--engine", "both", "--pairs", "150000",
            "--seed", "8", "--output", str(out), "--format", "jsonl",
        ])
        assert code == 0
        _, rows = read_table(out)
        row = rows[0]
        assert abs(row["mc_value"] - row["value"]) <= 4 * row["mc_std_error"]

    def test_quad_in_degrees_equals_radians(self, tmp_path):
        deg = tmp_path / "deg.csv"
        rad = tmp_path / "rad.csv"
        quad_rad = ",".join(f"{math.radians(d)!r}rad" for d in (0, 22.5, 45, 67.5))
        assert main(["bell", "--f", "0.8", "--quad", "0deg,22.5deg,45deg,67.5deg",
                     "--output", str(deg), "--format", "csv"]) == 0
        assert main(["bell", "--f", "0.8", "--quad", quad_rad,
                     "--output", str(rad), "--format", "csv"]) == 0
        _, rows_deg = read_table(deg)
        _, rows_rad = read_table(rad)
        assert abs(rows_deg[0]["value"] - rows_rad[0]["value"]) <= 1e-12

    def test_missing_fraction_source(self):
        assert main(["bell"]) == 1


class TestMalformedInput:
    @pytest.mark.parametrize("argv, option", [
        (["bell", "--f", "abc"], "--f"),
        (["curves", "--points", "x"], "--points"),
        (["bell", "--f", "0.9", "--seed", "zz"], "--seed"),
        (["sweep", "--variable", "f_direct", "--start", "0", "--stop", "1",
          "--weights", "a,b"], "--weights"),
    ])
    def test_malformed_number_is_validation_error(self, argv, option, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert f"error: {option}:" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_validation_error(self, workers, capsys):
        code = main(["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--engine", "mc",
                     "--pairs", "1000", "--workers", workers])
        assert code == 1
        assert "workers" in capsys.readouterr().err


class TestSweepCommand:
    def test_default_grid_golden_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--variable", "frequency_common", "--start", "0", "--stop", "100MHz",
            "--round-trip", "43ns", "--output", str(out), "--format", "csv",
        ])
        assert code == 0
        _, rows = read_table(out)
        assert len(rows) == 1201
        node = 1 / 43e-9
        nearest = min(rows, key=lambda r: abs(r["x"] - node))
        assert nearest["s_prime"] == pytest.approx(0.207, abs=1e-3)

    def test_csv_and_jsonl_hold_identical_values(self, tmp_path):
        args = ["sweep", "--variable", "frequency_common", "--start", "10MHz",
                "--stop", "30MHz", "--points", "41", "--round-trip", "43ns"]
        csv_path = tmp_path / "s.csv"
        jsonl_path = tmp_path / "s.jsonl"
        assert main(args + ["--output", str(csv_path), "--format", "csv"]) == 0
        assert main(args + ["--output", str(jsonl_path), "--format", "jsonl"]) == 0
        _, csv_rows = read_table(csv_path)
        _, jsonl_rows = read_table(jsonl_path)
        assert len(csv_rows) == len(jsonl_rows)
        for r1, r2 in zip(csv_rows, jsonl_rows):
            assert set(r1) == set(r2)
            for k in r1:
                if isinstance(r1[k], float):
                    assert r1[k] == r2[k]  # exact: 17 significant digits round-trip
                else:
                    assert r1[k] == r2[k]

    def test_monte_carlo_columns(self, tmp_path):
        out = tmp_path / "mc.jsonl"
        code = main([
            "sweep", "--variable", "f_direct", "--start", "0.3", "--stop", "0.9",
            "--points", "3", "--engines", "closed_form,monte_carlo",
            "--mc-pairs", "30000", "--seed", "11",
            "--output", str(out), "--format", "jsonl",
        ])
        assert code == 0
        _, rows = read_table(out)
        for row in rows:
            assert row["mc_s_prime"] is not None
            assert row["mc_s_prime_err"] > 0
            assert row["mc_s_chsh"] is not None
            assert abs(row["mc_s_prime"] - row["s_prime"]) <= 6 * row["mc_s_prime_err"]

    def test_svg_plot_embeds_full_precision_data(self, tmp_path):
        out = tmp_path / "plot.svg"
        code = main([
            "sweep", "--variable", "frequency_common", "--start", "0", "--stop", "50MHz",
            "--points", "101", "--round-trip", "43ns",
            "--output", str(out), "--format", "svg",
        ])
        assert code == 0
        root = ET.fromstring(out.read_text())
        poly = next(e for e in root.iter() if e.tag.endswith("polyline"))
        assert poly.get("data-name") == "s_prime"
        ys = [float(v) for v in poly.get("data-y").split()]
        assert max(ys) <= 0.20710678118654746 + 1e-12
        assert min(ys) >= -0.5 - 1e-12
        refs = {e.get("data-name"): float(e.get("data-value"))
                for e in root.iter() if e.tag.split("}")[-1] == "line" and e.get("data-name")}
        assert refs["quantum"] == pytest.approx(0.20710678118654746, abs=1e-12)
        assert refs["semiclassical"] == pytest.approx(-0.14644660940672627, abs=1e-12)
        band = next(e for e in root.iter() if e.get("class") == "band")
        assert (float(band.get("data-y0")), float(band.get("data-y1"))) == (-1.0, 0.0)

    def test_rerun_from_provenance_header_reproduces_output(self, tmp_path):
        first = tmp_path / "a.csv"
        args = ["sweep", "--variable", "frequency_common", "--start", "5MHz",
                "--stop", "25MHz", "--points", "21", "--round-trip", "43ns",
                "--output", str(first), "--format", "csv"]
        assert main(args) == 0
        provenance, _ = read_table(first)
        second = tmp_path / "b.csv"
        argv = provenance_to_argv(provenance) + ["--output", str(second)]
        assert main(argv) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_extra_plot_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.svg"
        code = main([
            "sweep", "--variable", "frequency_common", "--start", "0", "--stop", "50MHz",
            "--points", "51", "--output", str(out), "--format", "csv", "--plot", str(plot),
        ])
        assert code == 0
        assert plot.exists() and out.exists()

    def test_runtime_error_exit_code(self, tmp_path):
        code = main([
            "sweep", "--variable", "frequency_common", "--start", "10MHz", "--stop", "20MHz",
            "--points", "2", "--engines", "monte_carlo", "--mc-pairs", "2",
            "--output", str(tmp_path / "x.csv"),
        ])
        assert code == 2


class TestSyncCommand:
    def test_both_stations(self, capsys):
        assert main(["sync", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz",
                     "--round-trip", "43ns"]) == 0
        out = dict(
            line.split(": ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["f_alice"]) == pytest.approx(0.9732, abs=1e-4)
        assert float(out["f_bob"]) == pytest.approx(0.8376, abs=1e-4)
        assert float(out["f"]) == pytest.approx(0.9054, abs=1e-4)
        assert float(out["f_prime"]) == pytest.approx(0.0678, abs=1e-4)

    def test_requires_frequency(self):
        assert main(["sync"]) == 1


class TestAspectCommand:
    def test_report_matches_aspect_point(self, tmp_path):
        out = tmp_path / "aspect.csv"
        assert main(["aspect", "--output", str(out), "--format", "csv"]) == 0
        _, rows = read_table(out)
        row = rows[0]
        want = aspect_point().as_dict()
        for key, value in want.items():
            assert row[key] == pytest.approx(value, abs=1e-12)
        assert row["reported_s_prime"] == pytest.approx(0.136, abs=5e-4)
        assert row["measured_s_prime"] == 0.101
        assert row["measured_s_prime_error"] == 0.020

    def test_text_report_prints_comparison(self, capsys):
        assert main(["aspect"]) == 0
        out = capsys.readouterr().out
        assert "0.101" in out and "0.02" in out


class TestExportTrials:
    def test_zero_pairs_rejected(self, tmp_path, capsys):
        code = main(["export-trials", "--pairs", "0", "--output", str(tmp_path / "t.jsonl")])
        assert code == 1

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        args = ["export-trials", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz",
                "--round-trip", "43ns", "--pairs", "20000", "--seed", "5"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        args = ["export-trials", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz",
                "--round-trip", "43ns", "--pairs", "60000", "--seed", "5"]
        assert main(args + ["--workers", "1", "--output", str(a)]) == 0
        assert main(args + ["--workers", "4", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_aspect_preset_sync_fraction_in_file(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        args = ["export-trials", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz",
                "--round-trip", "43ns", "--pairs", "200000", "--seed", "9",
                "--output", str(path)]
        assert main(args) == 0
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["provenance"]["command"] == "export-trials"
        records = [json.loads(ln) for ln in lines[1:]]
        assert len(records) == 200000
        in_sync = np.mean([r["a_v"] == r["a_m"] for r in records])
        assert abs(in_sync - 0.9732) <= 0.002
        sample = records[0]
        assert set(sample) == {
            "emission_time", "lambda", "a_v", "b_v", "a_m", "b_m", "alpha", "beta"
        }
        assert sample["alpha"] in (-1, 1) and sample["beta"] in (-1, 1)

    def test_io_error_exit_code(self, tmp_path):
        code = main(["export-trials", "--pairs", "10",
                     "--output", str(tmp_path / "no_dir" / "t.jsonl")])
        assert code == 3

    def test_rerun_from_provenance_header(self, tmp_path):
        first = tmp_path / "a.jsonl"
        args = ["export-trials", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz",
                "--round-trip", "43ns", "--pairs", "20000", "--seed", "6",
                "--output", str(first)]
        assert main(args) == 0
        head = json.loads(first.read_text().splitlines()[0])
        second = tmp_path / "b.jsonl"
        argv = provenance_to_argv(head["provenance"]) + ["--output", str(second)]
        assert main(argv) == 0
        assert first.read_bytes() == second.read_bytes()


class TestConsoleScript:
    def test_installed_entry_point(self):
        import shutil
        import subprocess
        import sys

        exe = shutil.which("bellsim")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "sync", "--nu-a", "46.2MHz", "--round-trip", "43ns"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "f_alice: 0.97" in proc.stdout


class TestConfigFile:
    def test_config_supplies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 99,
            "sweep": {
                "variable": "frequency_common",
                "start": "10MHz", "stop": "30MHz", "points": 11,
                "round_trip": "43ns", "format": "csv",
            },
        }))
        out1 = tmp_path / "cfg_run.csv"
        assert main(["sweep", "--config", str(cfg), "--output", str(out1)]) == 0
        prov, rows = read_table(out1)
        assert len(rows) == 11
        assert prov["seed"] == 99
        out2 = tmp_path / "cfg_run2.csv"
        assert main(["sweep", "--config", str(cfg), "--points", "5",
                     "--output", str(out2)]) == 0
        _, rows2 = read_table(out2)
        assert len(rows2) == 5

    def test_bad_angle_flag_is_validation_error(self, tmp_path):
        assert main(["bell", "--f", "0.9", "--quad", "0,0.3927,0.7854,1.178"]) == 1
