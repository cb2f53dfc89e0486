"""Command-line surface: unit parsing, goldens, round-trips, determinism, exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bellsim
from bellsim import (
    RngSpec, StationConfig, ValidationError, aspect_point, cli, run_timeline, svgplot,
)
from bellsim.cli import main, provenance_to_argv
from bellsim.models import normalize_angle
from bellsim.output import read_table
from bellsim.sweep import SweepError
from bellsim.units import (
    parse_angle, parse_angle_list, parse_frequency, parse_phase, parse_time,
)

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

    def test_phase_forms(self):
        assert parse_phase("90deg") == math.radians(90.0)
        assert parse_phase("0.5rad") == parse_phase("0.5") == parse_phase(0.5) == 0.5
        assert parse_phase("450deg") == math.radians(450.0)  # not reduced mod pi or 2 pi
        for bad in ("10degs", "deg", "inf"):
            with pytest.raises(ValueError):
                parse_phase(bad)

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

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e300, 1e300))
    def test_deg_tag_scales_like_math_radians(self, x):
        # one unit table for angles and phases: x * pi/180 has math.radians' bits
        assert parse_phase(f"{x!r}deg") == math.radians(x)
        assert parse_angle(f"{x!r}deg") == normalize_angle(math.radians(x))

    @pytest.mark.parametrize("parse, text", [
        (parse_angle, "infdeg"), (parse_angle, "nanrad"), (parse_phase, "-infrad"),
        (parse_phase, "nan"), (parse_frequency, "1e300GHz"), (parse_frequency, "inf"),
        (parse_time, "1e400ns"), (parse_time, "-inf"),
    ])
    def test_non_finite_values_are_rejected(self, parse, text):
        with pytest.raises(ValidationError, match="must be finite|cannot parse"):
            parse(text)


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

    def test_monte_carlo_choice_protocol_honours_workers(self, tmp_path, monkeypatch):
        # a choice run is chunked on the timeline (3 chunks here): the worker
        # count reaches it and changes no byte
        from bellsim import sweep

        seen = []
        run = sweep.run_timeline

        def spy(*args, **kwargs):
            seen.append(kwargs["workers"])
            return run(*args, **kwargs)

        monkeypatch.setattr(sweep, "run_timeline", spy)
        args = ["bell", "--f", "0.9", "--engine", "mc", "--pairs", "600000", "--seed", "7"]
        outputs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"bell_w{workers}.jsonl"
            assert main(args + ["--workers", workers, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert seen == [1] * 3 + [2] * 3 + [3] * 3

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

    @pytest.mark.parametrize("form", ["sprime", "s"])
    @pytest.mark.parametrize("nu_a, nu_b", [("0", "48.4MHz"), ("46.2MHz", "46.2MHz"),
                                            ("0", "0")])
    def test_monte_carlo_when_one_timeline_misses_a_setting_pair(self, nu_a, nu_b, form,
                                                               tmp_path):
        # a station that never switches, and two identical waves, leave a
        # measured setting pair without records in a plain timeline run; a
        # still station is stepped, in parts that split --pairs exactly
        out = tmp_path / "bell.csv"
        code = main(["bell", "--nu-a", nu_a, "--nu-b", nu_b, "--round-trip", "43ns",
                     "--form", form, "--engine", "both", "--pairs", "150003", "--seed", "9",
                     "--output", str(out), "--format", "csv"])
        assert code == 0
        _, rows = read_table(out)
        row = rows[0]
        assert row["mc_pairs"] == 150003
        assert abs(row["mc_value"] - row["value"]) <= 4 * row["mc_std_error"]

    @pytest.mark.parametrize("form", ["sprime", "s"])
    @pytest.mark.parametrize("phase_b", ["3.141592653589793", "6.283185307179586",
                                         "-3.141592653589793"])
    def test_monte_carlo_equal_waves_a_multiple_of_pi_apart(self, phase_b, form, tmp_path):
        # in anti-phase, or a full period apart, two setting pairs get no records
        out = tmp_path / "bell.csv"
        code = main(["bell", "--nu-a", "46.2MHz", "--nu-b", "46.2MHz", "--phase-b", phase_b,
                     "--round-trip", "43ns", "--form", form, "--engine", "both",
                     "--pairs", "20000", "--seed", "9", "--output", str(out), "--format", "csv"])
        assert code == 0
        _, rows = read_table(out)
        row = rows[0]
        assert abs(row["mc_value"] - row["value"]) <= 4 * row["mc_std_error"]

    def test_monte_carlo_waves_in_quadrature_through_their_round_trips(self, tmp_path):
        # equal phases, but 43 and 93 ns read the 10 MHz waves a quarter period
        # apart: all four setting pairs are measured without an offset
        out = tmp_path / "bell.csv"
        code = main(["bell", "--nu-a", "10MHz", "--nu-b", "10MHz", "--round-trip-a", "43ns",
                     "--round-trip-b", "93ns", "--engine", "both", "--pairs", "20000",
                     "--seed", "9", "--output", str(out), "--format", "csv"])
        assert code == 0
        _, rows = read_table(out)
        row = rows[0]
        assert abs(row["mc_value"] - row["value"]) <= 4 * row["mc_std_error"]

    def test_tagged_phase_equals_bare_radians(self, tmp_path):
        deg = tmp_path / "deg.csv"
        rad = tmp_path / "rad.csv"
        args = ["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--round-trip", "43ns",
                "--engine", "both", "--pairs", "20000", "--seed", "4", "--format", "csv"]
        assert main(args + ["--phase-b", "90deg", "--output", str(deg)]) == 0
        assert main(args + ["--phase-b", "1.5707963267948966", "--output", str(rad)]) == 0
        assert deg.read_bytes() == rad.read_bytes()
        provenance, _ = read_table(deg)
        assert provenance["params"]["phase_b"] == 1.5707963267948966

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

    @pytest.mark.parametrize("argv, config, first, second", [
        (["--f", "0.9", "--f-a", "0.5", "--f-b", "0.4"], {}, "--f", "--f-a/--f-b"),
        (["--f", "0.9", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--engine", "mc"], {},
         "--f", "--nu-a/--nu-b"),
        (["--f-a", "0.5", "--f-b", "0.4", "--nu-a", "46.2MHz"], {}, "--f-a/--f-b",
         "--nu-a/--nu-b"),
        (["--nu-a", "46.2MHz", "--nu-b", "48.4MHz"], {"f": 0.9}, "--f", "--nu-a/--nu-b"),
    ], ids=["f-and-f-a-f-b", "f-and-stations", "f-a-f-b-and-half-stations", "config-f-and-stations"])
    def test_two_fraction_sources_are_rejected(self, argv, config, first, second, tmp_path,
                                               capsys):
        # one source wins silently otherwise, and the header records only it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "bell.csv"
        assert main(["bell", *argv, "--config", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"not {first} and {second}" in err
        assert not out.exists()


class TestMalformedInput:
    @pytest.mark.parametrize("argv, option", [
        (["bell", "--f", "abc"], "--f"),
        (["curves", "--points", "x"], "--points"),
        (["bell", "--f", "0.9", "--seed", "zz"], "--seed"),
        (["sweep", "--variable", "f_direct", "--start", "0", "--stop", "1",
          "--weights", "a,b"], "--weights"),
        (["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--phase-b", "10degs"], "--phase-b"),
        (["bell", "--nu-a", "abc", "--nu-b", "1MHz"], "--nu-a"),
        (["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--round-trip", "xyz"],
         "--round-trip"),
        (["bell", "--f", "0.9", "--quad", "1,2,3,4"], "--quad"),
        (["sweep", "--variable", "frequency_common", "--start", "1GHzz", "--stop", "2GHz"],
         "--start"),
    ])
    def test_malformed_number_is_validation_error(self, argv, option, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert f"error: {option}:" in err

    @pytest.mark.parametrize("argv, option", [
        (["bell", "--f", "0.5", "--form", "S"], "--form"),
        (["bell", "--f", "0.5", "--engine", "monte_carlo"], "--engine"),
        (["bell", "--f", "0.5", "--format", "svg"], "--format"),
        (["sync", "--nu-a", "1MHz", "--format", "xml"], "--format"),
        (["curves", "--points", "3", "--format", "png"], "--format"),
        (["sweep", "--start", "0", "--stop", "1MHz", "--points", "3", "--plot-field", "s"],
         "--plot-field"),
        (["sweep", "--start", "0", "--stop", "1MHz", "--points", "3", "--format", "xml"],
         "--format"),
        (["export-trials", "--pairs", "10", "--output", "{out}", "--emission", "burst"],
         "--emission"),
        (["sweep", "--start", "0", "--stop", "1", "--variable", "bogus"], "--variable"),
        (["sweep", "--start", "0", "--stop", "1MHz", "--points", "3",
          "--engines", "closed_form,mc"], "--engines"),
        (["curves", "--points", "3", "--models", "qm,xx"], "--models"),
    ])
    def test_unknown_choice_names_its_flag(self, argv, option, tmp_path, capsys):
        # the bad value is the last item of the last argument
        argv = [a.format(out=tmp_path / "t.jsonl") for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {option}: unknown value {argv[-1].split(',')[-1]!r} (choose from " in err
        assert not (tmp_path / "t.jsonl").exists()

    def test_bad_format_fails_before_the_sweep_runs(self, monkeypatch, capsys):
        def refuse(spec):
            raise AssertionError("the sweep ran before --format was checked")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        assert main(["sweep", "--start", "0", "--stop", "50MHz", "--points", "11",
                     "--engines", "monte_carlo", "--mc-pairs", "200000", "--format", "xml"]) == 1
        err = capsys.readouterr().err
        assert "error: --format: unknown value 'xml' (choose from csv | jsonl | svg)" in err

    @pytest.mark.parametrize("argv, option", [
        (["aspect", "--output", "a\0b"], "--output"),
        (["sweep", "--start", "0", "--stop", "1MHz", "--points", "3", "--plot", "\0"], "--plot"),
        (["export-trials", "--pairs", "10", "--output", "\0"], "--output"),
    ])
    def test_nul_byte_in_a_path_names_its_flag(self, argv, option, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert f"error: {option}: cannot parse" in err

    @pytest.mark.parametrize("argv, message", [
        (["sync", "--nu-a", "1e300"], "more than 2**52"),
        (["sync", "--nu-a", "1e300", "--round-trip-a", "1e300s"], "more than 2**52"),
        (["sweep", "--start", "0", "--stop", "1e300Hz", "--points", "3"], "more than 2**52"),
        (["export-trials", "--nu-a", "46MHz", "--nu-b", "48MHz", "--round-trip", "1e300s",
          "--pairs", "10", "--output", "{out}"],
         "(--duration 0.001 s, --round-trip-a 1e+300 s), more than 2**52"),
        (["export-trials", "--pairs", "10", "--emission", "poisson", "--duration", "1e-320",
          "--output", "{out}"], "--duration 1e-320 s is too short"),
    ])
    def test_out_of_range_timing_is_validation_error(self, argv, message, tmp_path, capsys):
        argv = [a.format(out=tmp_path / "t.jsonl") for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert message in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_validation_error(self, workers, capsys):
        code = main(["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--engine", "mc",
                     "--pairs", "1000", "--workers", workers])
        assert code == 1
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["bell", "--f", "0.9", "--engine", "mc", "--pairs", "1000", "--workers", "0"],
         "workers"),
        (["bell", "--f", "0.9", "--engine", "mc", "--pairs", "1000", "--duration", "-1"],
         "duration"),
        (["sweep", "--variable", "frequency_common", "--start", "10MHz", "--stop", "20MHz",
          "--points", "2", "--engines", "closed_form,monte_carlo", "--mc-pairs", "1000",
          "--duration", "-1"], "duration"),
        (["sweep", "--variable", "f_direct", "--start", "0", "--stop", "1", "--points", "2",
          "--engines", "closed_form,monte_carlo", "--mc-pairs", "1000", "--duration", "-1"],
         "duration"),
    ])
    def test_monte_carlo_option_out_of_range(self, argv, option, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert option in err

    @pytest.mark.parametrize("argv", [
        ["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--engine", "mc", "--pairs"],
        ["bell", "--f", "0.9", "--engine", "mc", "--pairs"],
        ["export-trials", "--output", "{out}", "--pairs"],
        ["sweep", "--variable", "frequency_common", "--start", "10MHz", "--stop", "20MHz",
         "--points", "2", "--engines", "monte_carlo", "--mc-pairs"],
        # stepped: n is checked before the first of its four parts runs
        ["bell", "--nu-a", "0", "--nu-b", "0", "--engine", "mc", "--pairs"],
    ])
    def test_pairs_beyond_physical_memory_are_rejected(self, argv, tmp_path):
        # 1e15 pairs are ~30 PB of records.  The child's address space is
        # capped at 2 GiB, so a run that tries to allocate them fails there
        # instead of exhausting the machine.
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        flag = argv[-1]  # the error names the command's own option
        argv = [a.format(out=tmp_path / "t.jsonl") for a in argv] + ["1000000000000000"]
        package_root = str(Path(bellsim.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [package_root,
                                                           os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "bellsim.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120,
                              preexec_fn=cap_address_space)
        assert proc.returncode == 1, proc.stderr
        assert f"{flag} 1000000000000000" in proc.stderr
        assert "physical memory" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["sweep", "--start", "0", "--stop", "1MHz"],
        ["sweep", "--start", "0", "--stop", "1MHz", "--engines", "closed_form,monte_carlo",
         "--mc-pairs", "1000"],
        ["curves"],
        ["curves", "--format", "svg"],
    ])
    def test_points_beyond_physical_memory_are_rejected(self, argv):
        # 1e11 grid points are ~200 TB of rows; the grid is never built in
        # this process, and the child's address space is capped at 2 GiB
        proc = _run_capped([*argv, "--points", "100000000000"])
        assert proc.returncode == 1, proc.stderr
        assert "--points 100000000000" in proc.stderr
        assert "physical memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["bell", "--f", "0.5", "--engine", "mc", "--pairs", "1000"],
        ["bell", "--f", "0.5"],
        ["sweep", "--start", "0", "--stop", "1MHz", "--points", "3"],
        ["export-trials", "--output", "{out}", "--pairs", "10"],
    ])
    @pytest.mark.parametrize("seed", ["-1", "-12345678901234567890"])
    def test_negative_seed_is_validation_error(self, argv, seed, tmp_path, capsys):
        argv = [a.format(out=tmp_path / "t.jsonl") for a in argv]
        assert main([*argv, "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert f"--seed must be a non-negative integer, got {seed}" in err

    @pytest.mark.parametrize("seed", ["0", str(2**64)])
    def test_non_negative_seed_keeps_its_stream(self, seed, tmp_path):
        out = tmp_path / "t.jsonl"
        assert main(["export-trials", "--output", str(out), "--pairs", "50", "--seed", seed]) == 0
        alice, bob = StationConfig(0.0, math.pi / 4), StationConfig(math.pi / 8, 3 * math.pi / 8)
        trials = run_timeline(alice, bob, 50, 1e-3, RngSpec(int(seed)))
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [json.loads(line)["emission_time"] for line in lines] == \
            trials.emission_time.tolist()

    @pytest.mark.parametrize("weights", ["nan,nan", "nan,1", "1,nan"])
    def test_nan_station_weights_are_rejected(self, weights, capsys):
        assert main(["sweep", "--start", "0", "--stop", "1MHz", "--points", "3",
                     "--weights", weights]) == 1
        assert "station weights" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"seed": 1,', "", "{'seed': 1}"])
    def test_malformed_config_is_validation_error(self, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        assert main(["bell", "--f", "0.5", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert f"--config {cfg}:" in err


def _child_env() -> dict:
    """The environment of a child interpreter that imports this bellsim."""
    package_root = str(Path(bellsim.__file__).resolve().parents[1])
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")]))}


def _run_capped(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m bellsim.cli argv`` in a child whose address space is capped
    at 2 GiB, so a run that allocates too much fails there."""
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run([sys.executable, "-m", "bellsim.cli", *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=120,
                          preexec_fn=cap_address_space)


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

    @pytest.mark.parametrize("points", ["4", "8"])
    def test_f_direct_grid_ends_on_stop(self, points, tmp_path):
        # start + (points - 1) * step misses 1 by an ulp at these grids
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--variable", "f_direct", "--start", "0.1", "--stop", "1",
                     "--points", points, "--output", str(out)]) == 0
        assert read_table(out)[1][-1]["x"] == 1.0

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

    def test_monte_carlo_with_unequal_round_trips(self, tmp_path):
        # at 10 MHz the 43 and 93 ns stations' waves are in quadrature
        out = tmp_path / "mc.csv"
        code = main(["sweep", "--variable", "frequency_common", "--start", "0",
                     "--stop", "100MHz", "--points", "11", "--round-trip-a", "43ns",
                     "--round-trip-b", "93ns", "--engines", "monte_carlo",
                     "--mc-pairs", "20000", "--output", str(out)])
        assert code == 0
        _, rows = read_table(out)
        assert len(rows) == 11
        for row in rows:
            assert abs(row["mc_s_prime"] - row["s_prime"]) <= 4 * row["mc_s_prime_err"]
            assert abs(row["mc_s_chsh"] - row["s_chsh"]) <= 4 * row["mc_s_chsh_err"]

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

    def test_monte_carlo_distance_ratio_through_a_non_switching_bob(self, tmp_path):
        # at nu = 0 Bob never shows b' in a timeline run
        out = tmp_path / "dr.jsonl"
        code = main([
            "sweep", "--variable", "distance_ratio", "--start", "0", "--stop", "50MHz",
            "--points", "3", "--engines", "monte_carlo", "--mc-pairs", "60000", "--seed", "12",
            "--output", str(out), "--format", "jsonl",
        ])
        assert code == 0
        _, rows = read_table(out)
        assert rows[0]["x"] == 0
        for row in rows:
            assert abs(row["mc_s_prime"] - row["s_prime"]) <= 4 * row["mc_s_prime_err"]
            assert abs(row["mc_s_chsh"] - row["s_chsh"]) <= 4 * row["mc_s_chsh_err"]

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

    def test_extra_plot_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.svg"
        code = main([
            "sweep", "--variable", "frequency_common", "--start", "0", "--stop", "50MHz",
            "--points", "51", "--output", str(out), "--format", "csv", "--plot", str(plot),
        ])
        assert code == 0
        assert plot.exists() and out.exists()

    def test_svg_output_and_plot_file_are_the_same_plot(self, tmp_path):
        out, plot = tmp_path / "sweep.svg", tmp_path / "plot.svg"
        assert main(["sweep", "--start", "0", "--stop", "50MHz", "--points", "5",
                     "--format", "svg", "--plot", str(plot), "--output", str(out)]) == 0
        assert plot.read_bytes() == out.read_bytes()

    MC_SWEEP = ["sweep", "--variable", "frequency_common", "--start", "10MHz", "--stop", "20MHz",
                "--points", "2", "--engines", "monte_carlo", "--mc-pairs", "2"]

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch):
        def failing_sweep(spec):
            raise SweepError(f"monte carlo failed at {spec.variable.value} = 1e7: overflow")

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        code = main(self.MC_SWEEP + ["--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_too_few_mc_pairs_is_validation_error(self, tmp_path, capsys):
        code = main(self.MC_SWEEP + ["--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "monte carlo failed at frequency_common = 10000000.0: " in capsys.readouterr().err


class TestClosedFormSweepBytes:
    """sha256 of the table and the plot of closed-form sweeps, taken before
    the sweep and its encoders were vectorized.  The version in the
    provenance is pinned, so a version bump moves no digest."""

    GRID = ["--start", "0", "--stop", "100MHz", "--points", "1201"]
    DIGESTS = {
        "distance-ratio": (
            ["--variable", "distance_ratio", *GRID, "--round-trip-a", "20ns",
             "--round-trip-b", "43ns"],
            "csv",
            "fe2456402d4491e03d48ba6aa29511d4ed46132cc5cdc3d85d779104d6722ce3",
            "0ef4ce207157dac31dc447c7f9d69558b73fe4e837d5c2f183aa463b71c85f1e"),
        "distance-ratio-weights": (
            ["--variable", "distance_ratio", *GRID, "--weights", "0.3,0.7"],
            "csv",
            "faa51f9f086a2dd05764fcffaf55c1d4e7719be5608b88b90f1b0dab5448f4cd",
            "f048d13b45fff412cb629eb778c64efe6a974f736dd430c2cfc35e9c0ea5fa52"),
        "frequency-common-s-chsh": (
            ["--variable", "frequency_common", *GRID, "--round-trip", "43ns",
             "--plot-field", "s_chsh"],
            "csv",
            "cae6bcf5a30aaff09543580ed34feabba73a4acb3518d3fb2b3bd36dbbf94be0",
            "84f6d809270833690f426c6eacfc1cd8e0f6d330a068cdf7cd6a697c9744d7aa"),
        "frequency-alice-only-quad": (
            ["--variable", "frequency_alice_only", *GRID, "--quad=-10deg,0.3rad,45deg,1.2rad"],
            "csv",
            "d5b107fe89e65f96ef531010d12f0b29d8570af54de08516759b11956e7f2fbe",
            "735393fb8f0468d2d62c647f1c61774c652e9faf4b5c1b5efa1bbb93ebba479c"),
        "f-direct-jsonl": (
            ["--variable", "f_direct", "--start", "0", "--stop", "1", "--points", "1201"],
            "jsonl",
            "d7d8cac879a427fe5795387b6a5b83d6bde0c7b9328a0061d3b9bb7a5f79250a",
            "6125daa1e3effb5e3bb30b546b530752c93fd9bea92ffaef406beca1dabfaad9"),
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_table_and_plot_bytes(self, name, tmp_path, monkeypatch):
        import hashlib

        argv, fmt, table_digest, plot_digest = self.DIGESTS[name]
        monkeypatch.setattr(cli, "__version__", "pinned")
        table, plot = tmp_path / f"sweep.{fmt}", tmp_path / "sweep.svg"
        assert main(["sweep", *argv, "--format", fmt, "--output", str(table),
                     "--plot", str(plot)]) == 0
        assert hashlib.sha256(table.read_bytes()).hexdigest() == table_digest
        assert hashlib.sha256(plot.read_bytes()).hexdigest() == plot_digest


class TestCommandBytes:
    """sha256 of every other table, plot and ``key: value`` report the
    commands write, taken before tables became columns end to end: the
    table (or report) digest, then the ``--plot`` file's, if one is drawn.
    A ``-text`` case digests stdout without --output or --format.  The
    version in the provenance is pinned, so a version bump moves no digest."""

    DIGESTS = {
        "curves-csv": (
            ["curves", "--format", "csv"],
            "0952d95bdce309e5601085a44ca3d68de13ab0d52c5188fc8eb11bdd2bf803d4", None),
        "curves-jsonl": (
            ["curves", "--points", "19", "--models", "vt,qm", "--format", "jsonl"],
            "9f39d40d360cc7e537185878fff69cd288d41a9c73387c6d297c4b82b4e0f0d1", None),
        "curves-svg": (
            ["curves", "--format", "svg"],
            "f6462789f8577bbd785f8ebf299e33c3cf260d65232dc5b8a62ea2f6d1c74ce9", None),
        "bell-closed-csv": (
            ["bell", "--f-a", "0.9", "--f-b", "0.8", "--engine", "closed", "--format", "csv"],
            "eeaada93185d9dacd9862c172041fa346a6ccd17e4f69cd28019559f12a04a56", None),
        "bell-closed-jsonl": (
            ["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--form", "s",
             "--engine", "closed", "--format", "jsonl"],
            "02878bba9c343e2d579a600f840137349938cafb2205b0340d1f1ad249c18bb0", None),
        "bell-mc-csv": (
            ["bell", "--f", "0.9", "--engine", "mc", "--pairs", "5000", "--seed", "3",
             "--format", "csv"],
            "b4b04425bb4af06c836bec600e17b408afcfbab33fb895c5d45c879dd59629bc", None),
        "bell-mc-jsonl": (
            ["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--form", "s", "--engine", "mc",
             "--pairs", "5000", "--seed", "4", "--format", "jsonl"],
            "e0ad5cabb5f2ee3ccb7342195c1075702110af47387188b4e948dbefc2654725", None),
        "sync-one": (
            ["sync", "--nu-a", "46.2MHz", "--format", "csv"],
            "4f29d1309f5697840e639c07adb209c73f76a1982a692715c89333132d6709ee", None),
        "sync-two": (
            ["sync", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--round-trip-b", "93ns",
             "--format", "jsonl"],
            "acd97e81734d02b6821ecd38e5887db582e24579d6549e11e230df2704ae7d7c", None),
        "aspect-jsonl": (
            ["aspect", "--format", "jsonl"],
            "5c38cbe9169e7596a05d89d9113927a57e3c5caf827ff22de1bd51b8b6ecf2d4", None),
        "sweep-mc-csv": (
            ["sweep", "--start", "10MHz", "--stop", "40MHz", "--points", "4",
             "--engines", "closed_form,monte_carlo", "--mc-pairs", "4000", "--format", "csv"],
            "c110fe05f24089ca9add23d070f893230d5037fe276ec2d35c3180f1c7ac7eea",
            "4ae00be0c02b64177e7f454835a84f73dbadfd15c127033a087712ba95bf9aab"),
        "sweep-mc-jsonl": (
            ["sweep", "--variable", "f_direct", "--start", "0.5", "--stop", "1", "--points", "3",
             "--engines", "closed_form,monte_carlo", "--mc-pairs", "4000",
             "--plot-field", "s_chsh", "--format", "jsonl"],
            "9e9722483a2bc7d61c72da3e5a0aa4610efb95dee6bbaef27cf988de236987f9",
            "58dbe846f22d39c20d996b81b816b105e972735e3aec46f23220422db3421c13"),
        "bell-text": (
            ["bell", "--f", "0.9", "--engine", "both", "--pairs", "5000"],
            "77050e7d9f269154274e8581402ceafbbb6246d5984ad4d96cb254443774f8cb", None),
        "sync-text": (
            ["sync", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz"],
            "ad59abb98c13c23913abf92d451c08df5d048f554a54d3552fd4dd3e9fb4fdd3", None),
        "aspect-text": (
            ["aspect"],
            "a4ee33767f637d699e97b24a61fa978bb675042b6095979896ef54b2856d9053", None),
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_bytes(self, name, tmp_path, monkeypatch, capsys):
        import hashlib

        argv, digest, plot_digest = self.DIGESTS[name]
        monkeypatch.setattr(cli, "__version__", "pinned")
        out, plot = tmp_path / "out", tmp_path / "plot.svg"
        if name.endswith("-text"):
            assert main(argv) == 0
            written = capsys.readouterr().out.encode()
        else:
            extra = ["--plot", str(plot)] if plot_digest else []
            assert main([*argv, "--output", str(out), *extra]) == 0
            written = out.read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest
        if plot_digest:
            assert hashlib.sha256(plot.read_bytes()).hexdigest() == plot_digest


class TestTableColumns:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("columns", [{}, {"x": []}, {"x": [1.0, 2.0], "y": [3.0]}],
                             ids=["no-columns", "no-rows", "unequal"])
    def test_a_table_needs_rows_of_every_column(self, columns, fmt):
        from bellsim.output import render_table

        with pytest.raises(ValidationError, match="a table needs rows, as many in each column"):
            render_table(columns, {}, fmt)


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

    @pytest.mark.parametrize("command", [
        ["bell", "--engine", "mc", "--pairs", "20000"],
        ["export-trials", "--pairs", "20000"],
    ])
    @pytest.mark.parametrize("extra, flag", [
        # (1e15 s + 21.5 ns) * 48.4 MHz ~ 4.8e22 periods: t * nu has no fraction left
        (["--duration", "1e15s"], "shorten --duration"),
        # 1e17 rad / 2pi ~ 1.6e16 periods: t * nu + phase/2pi has no fraction left
        (["--phase-a", "1e17"], "reduce --phase-a"),
    ], ids=["duration", "phase"])
    def test_duration_beyond_square_wave_resolution_rejected(self, command, extra, flag, tmp_path,
                                                             capsys):
        out = tmp_path / "out.jsonl"
        code = main(command + ["--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--output", str(out)]
                    + extra)
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

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


def _header_provenance(path: Path) -> dict:
    """The provenance of a csv or jsonl table, trial stream or svg plot."""
    text = path.read_text(encoding="utf-8")
    if text.startswith("<svg"):
        metadata = ET.fromstring(text).find("{http://www.w3.org/2000/svg}metadata")
        return json.loads(metadata.text)["provenance"]
    return read_table(path)[0]


class TestProvenanceRoundTrip:
    SWEEP = ["sweep", "--start", "0", "--stop", "50MHz", "--points", "5"]

    @pytest.mark.parametrize("argv", [
        ["curves", "--points", "7", "--models", "qm,vt", "--format", "csv"],
        ["curves", "--points", "7", "--format", "svg"],
        ["bell", "--f-a", "0.9", "--f-b", "0.8", "--form", "s", "--format", "csv"],
        ["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--phase-b", "90deg",
         "--engine", "mc", "--pairs", "5000", "--seed", "3", "--format", "jsonl"],
        ["bell", "--nu-a", "0", "--nu-b", "48.4MHz", "--round-trip-a", "20ns",
         "--engine", "both", "--pairs", "5000", "--format", "csv"],
        ["sweep", "--variable", "frequency_common", "--start", "5MHz", "--stop", "25MHz",
         "--points", "21", "--round-trip", "43ns", "--format", "csv"],
        ["sweep", "--variable", "distance_ratio", "--start", "0", "--stop", "50MHz",
         "--points", "5", "--weights", "0.3,0.7", "--format", "csv"],
        ["sweep", "--variable", "f_direct", "--start", "0.5", "--stop", "1", "--points", "3",
         "--engines", "closed_form,monte_carlo", "--mc-pairs", "2000", "--format", "jsonl"],
        [*SWEEP, "--format", "svg", "--plot-field", "s_chsh"],
        ["sweep", "--variable", "frequency_alice_only", "--start", "0", "--stop", "50MHz",
         "--points", "5", "--quad=-10deg,0.3rad,45deg,1.2rad", "--format", "csv"],
        ["sync", "--nu-a", "46.2MHz", "--format", "csv"],
        ["sync", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--round-trip-b", "93ns",
         "--format", "jsonl"],
        ["aspect", "--format", "jsonl"],
        ["export-trials", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--round-trip", "43ns",
         "--pairs", "20000", "--seed", "6"],
        ["export-trials", "--pairs", "500", "--emission", "poisson", "--nu-a", "46.2MHz",
         "--nu-b", "48.4MHz", "--seed", "5"],
    ], ids=["curves-csv", "curves-svg", "bell-f-a-f-b", "bell-stations-mc", "bell-still-alice",
            "sweep-csv", "sweep-distance-weights", "sweep-f-direct-mc", "sweep-svg-s-chsh",
            "sweep-alice-only-quad", "sync-one", "sync-two", "aspect-jsonl",
            "export-trials-uniform", "export-trials-poisson"])
    def test_rerun_from_header_gives_the_same_bytes(self, argv, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*argv, "--output", str(first)]) == 0
        rerun = provenance_to_argv(_header_provenance(first))
        assert main([*rerun, "--output", str(second)]) == 0
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


class TestSvgEscaping:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet="&<>\"'\n\r\t a;#"))
    @example("")
    @example("a & b < c > d")
    @example("&amp; &lt;")
    @example('say "hi"')
    @example("it's")
    @example("\"both' kinds\"")
    @example("line\nbreak\rreturn\ttab")
    @example("<\"'&\n\r\t'\">")
    def test_matches_saxutils(self, text):
        # imported here only: the package must not import it
        from xml.sax import saxutils

        assert svgplot.escape(text) == saxutils.escape(text)
        assert svgplot.quoteattr(text) == saxutils.quoteattr(text)

    def test_cli_import_leaves_ssl_unloaded(self):
        code = "import sys, bellsim.cli; bellsim.cli.build_parser(); print('ssl' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestVersion:
    def test_package_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == bellsim.__version__

    def test_module_entry_point_prints_the_version(self):
        proc = subprocess.run([sys.executable, "-m", "bellsim", "--version"],
                              capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == f"bellsim {bellsim.__version__}\n"


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

    @pytest.mark.parametrize("argv, config, message", [
        (["bell", "--f", "0.5", "--engine", "mc"], {"pairs": None},
         "config key 'pairs' must be a JSON string or number, not null"),
        (["bell"], {"nu_a": [1], "nu_b": "1MHz"},
         "config key 'nu_a' must be a JSON string or number, not [1]"),
        (["bell"], {"quad": 5, "f": 0.5}, "--quad: cannot parse '5'"),
        (["sync", "--nu-a", "1MHz"], {"output": True, "format": "csv"},
         "config key 'output' must be a JSON string or number, not true"),
        (["export-trials", "--output", "{out}"], {"pairs": float("inf")},
         "--pairs: cannot parse 'inf'"),
        (["bell", "--f", "0.5"], {"seed": 1.5}, "--seed: cannot parse '1.5'"),
    ], ids=["null", "array", "number-quad", "bool-output", "infinite-pairs", "fractional-seed"])
    def test_config_value_reads_as_flag_text(self, argv, config, message, tmp_path, capsys):
        # a JSON string is read as it is and a number as its repr, as the same
        # text on the command line; other JSON values are rejected
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv = [a.format(out=tmp_path / "t.jsonl") for a in argv]
        assert main([*argv, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "runtime error" not in err
        assert message in err
        assert not (tmp_path / "t.jsonl").exists()

    def test_config_number_equals_its_flag_text(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu_a": 46200000.0, "nu_b": 48400000, "pairs": 2000,
                                   "engine": "mc"}), encoding="utf-8")
        assert main(["bell", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main(["bell", "--nu-a", "46200000.0", "--nu-b", "48400000", "--pairs", "2000",
                     "--engine", "mc"]) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize("argv, config, message", [
        (["bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz"], {"frm": "s"},
         "config key 'frm' is not an option of any subcommand"),
        (["bell"], {"bell": {"nu-a": "46.2MHz", "nu_b": "48.4MHz"}},
         "config key 'nu-a' in section 'bell' is not an option of bell"),
        (["sync", "--nu-a", "46.2MHz"], {"sync": {"quad": "0deg,1deg,2deg,3deg"}},
         "config key 'quad' in section 'sync' is not an option of sync"),
        (["bell", "--f", "0.5"], {"curves": {"pionts": 3}},
         "config key 'pionts' in section 'curves' is not an option of curves"),
        (["sweep", "--start", "0", "--stop", "1MHz"], {"swep": {"points": 3}},
         "config section 'swep' is not a subcommand"),
    ], ids=["top-level", "section-dash", "section-undeclared", "other-section", "section-name"])
    def test_config_typo_is_rejected(self, argv, config, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", str(cfg), "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_top_level_key_of_another_subcommand_is_accepted(self, tmp_path, capsys):
        # top-level keys apply to every subcommand; one that does not declare a key ignores it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 3, "models": "qm", "nu_a": "46.2MHz"}),
                       encoding="utf-8")
        assert main(["sync", "--config", str(cfg)]) == 0
        assert "f_alice: 0.97" in capsys.readouterr().out
        assert main(["curves", "--config", str(cfg), "--format", "jsonl"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3

    def test_bad_angle_flag_is_validation_error(self, tmp_path):
        assert main(["bell", "--f", "0.9", "--quad", "0,0.3927,0.7854,1.178"]) == 1


class TestDeclaredFlags:
    #: a run of each subcommand that reaches every option it reads
    RUNS = {
        "curves": ["curves", "--points", "3"],
        "bell": ["bell", "--f", "0.5", "--engine", "mc", "--pairs", "1000"],
        "sweep": ["sweep", "--start", "0", "--stop", "1MHz", "--points", "3"],
        "sync": ["sync", "--nu-a", "1MHz"],
        "aspect": ["aspect"],
        "export-trials": ["export-trials", "--pairs", "10", "--output", "{out}"],
    }

    @pytest.mark.parametrize("command", list(RUNS))
    def test_every_value_flag_is_read(self, command, tmp_path, monkeypatch, capsys):
        # a declared flag that is never read accepts any value without effect,
        # and one read but not declared could be set only by a config file
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {action.dest for action in sub.choices[command]._actions
                    if action.nargs != 0}
        read = set()
        get = cli.Options.get

        def recording_get(self, name, *args, **kwargs):
            read.add(name)
            return get(self, name, *args, **kwargs)

        monkeypatch.setattr(cli.Options, "get", recording_get)
        monkeypatch.chdir(tmp_path)
        argv = [a.format(out=tmp_path / "t.jsonl") for a in self.RUNS[command]]
        # every way out: each format, a file, and the extra plot
        formats = ("csv", "jsonl", "svg") if command in ("curves", "sweep") else ("csv", "jsonl")
        variants = [[], ["--output=out"]]
        variants += [[f"--format={fmt}"] for fmt in formats if "format" in declared]
        variants += [["--plot=plot.svg"]] if "plot" in declared else []
        for extra in variants:
            assert main(argv + extra) == 0, extra
        # --config is read by Options itself
        assert read == declared - {"config"}, sorted(read ^ (declared - {"config"}))

    @pytest.mark.parametrize("command", list(RUNS))
    def test_help_names_every_default(self, command, capsys):
        assert main([command, "--help"]) == 0
        # one entry per option: "--flag METAVAR  help", wrapped onto indented lines
        entries = {" ".join(entry.split()).split(" ", 1)[0]: " ".join(entry.split())
                   for entry in re.split(r"\n  (?=--)", capsys.readouterr().out)[1:]}
        named = 0
        for name, _kind, default, _choices, _help, commands in cli._FLAGS:
            if isinstance(default, dict):
                default = default.get(command, default.get(None))
            if command in commands and default is not None:
                flag = f"--{name.replace('_', '-')}"
                assert f"(default {default})" in entries[flag], (flag, entries[flag])
                named += 1
        assert named or command == "aspect"
