"""Sweep engine: grids, extrema, distance asymmetry, and the 1982 reconstruction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bellsim import (
    STANDARD_QUAD,
    RngSpec,
    StationConfig,
    SweepSpec,
    SweepVariable,
    Trials,
    ValidationError,
    aspect_point,
    estimate_s_chsh,
    estimate_s_prime,
    find_extrema,
    measure_bell,
    mix_fractions,
    run_sweep,
    run_timeline,
    series_extrema,
    sync_fraction,
)
from bellsim.sweep import MONTE_CARLO, SweepError, s_chsh_mixture, s_prime_mixture

ROUND_TRIP = 43e-9
NODE = 1.0 / ROUND_TRIP  # ~23.2558 MHz spacing of the in-sync maxima
SQRT2 = math.sqrt(2)


def common_sweep(points=1201, engines=("closed_form",), **kw):
    return SweepSpec(
        variable=SweepVariable.FREQUENCY_COMMON,
        start=0.0,
        stop=100e6,
        num_points=points,
        engines=tuple(engines),
        **kw,
    )


class TestSpecValidation:
    def test_bad_range(self):
        with pytest.raises(ValidationError):
            SweepSpec(SweepVariable.F_DIRECT, 1.0, 0.0)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, num_points=1)

    def test_unknown_engine(self):
        with pytest.raises(ValidationError):
            SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, engines=("quantum_annealer",))

    def test_variable_given_as_text_runs_as_the_enum(self):
        as_text = SweepSpec("frequency_common", 0.0, 100e6, num_points=21)
        assert as_text.variable is SweepVariable.FREQUENCY_COMMON
        assert run_sweep(as_text).points == run_sweep(common_sweep(points=21)).points

    def test_unknown_variable_is_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="bogus"):
            SweepSpec("bogus", 0.0, 1.0)

    def test_mc_needs_pairs(self):
        with pytest.raises(ValidationError):
            SweepSpec(
                SweepVariable.F_DIRECT, 0.0, 1.0,
                engines=(MONTE_CARLO,), mc_pairs_per_point=0,
            )


class TestClosedFormSweep:
    def test_values_at_landmark_frequencies(self):
        series = run_sweep(common_sweep())
        xs = np.array([p.x for p in series.points])
        ys = np.array([p.s_prime for p in series.points])
        # row nearest the first in-sync node carries (almost) the quantum value
        i = int(np.argmin(np.abs(xs - NODE)))
        assert ys[i] == pytest.approx(0.207, abs=1e-3)
        # the 46.2 MHz point follows from f = 0.9732 exactly
        j = int(np.argmin(np.abs(xs - 46.2e6)))
        f = sync_fraction(xs[j], ROUND_TRIP)
        assert ys[j] == pytest.approx(-0.5 + f / SQRT2, abs=1e-12)

    def test_exact_node_values(self):
        spec = common_sweep()
        from bellsim import mix_fractions, s_prime_fc

        for n in (1, 2, 3):
            f = sync_fraction(n * NODE, ROUND_TRIP)
            assert s_prime_fc(spec.quad, mix_fractions(f, f)) == pytest.approx(
                0.20710678118654746, abs=1e-12
            )
            f0 = sync_fraction((n - 0.5) * NODE, ROUND_TRIP)
            assert s_prime_fc(spec.quad, mix_fractions(f0, f0)) == pytest.approx(
                -0.5, abs=1e-7
            )

    def test_extrema_locations(self):
        series = run_sweep(common_sweep())
        step = 100e6 / 1200
        maxima = [e for e in series_extrema(series, "s_prime") if e.kind == "max"]
        minima = [e for e in series_extrema(series, "s_prime") if e.kind == "min"]
        expected_max = [n * NODE for n in (1, 2, 3, 4)]
        expected_min = [(n + 0.5) * NODE for n in (0, 1, 2, 3)]
        assert len(maxima) == len(expected_max)
        assert len(minima) == len(expected_min)
        for e, x0 in zip(maxima, expected_max):
            assert abs(e.x - x0) <= step
        for e, x0 in zip(minima, expected_min):
            assert abs(e.x - x0) <= step
        # maxima spacing ~ c/(2d)
        gaps = np.diff([e.x for e in maxima])
        assert np.allclose(gaps, NODE, atol=step)

    def test_series_is_periodic_in_frequency(self):
        # sample S'(nu) and S'(nu + 1/T) on a commensurate grid
        spec = common_sweep(points=241)
        series = run_sweep(spec)
        xs = [p.x for p in series.points]
        ys = [p.s_prime for p in series.points]
        from bellsim import mix_fractions, s_prime_fc

        for x, y in zip(xs[:100], ys[:100]):
            f = sync_fraction(x + NODE, ROUND_TRIP)
            shifted = s_prime_fc(spec.quad, mix_fractions(f, f))
            assert abs(shifted - y) <= 1e-9

    def test_value_ranges(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            lo = rng.uniform(0, 50e6)
            spec = SweepSpec(
                SweepVariable.FREQUENCY_COMMON, lo, lo + rng.uniform(10e6, 50e6),
                num_points=301,
            )
            for p in run_sweep(spec).points:
                assert -0.5 - 1e-12 <= p.s_prime <= 0.20710678118654746 + 1e-12
                assert -1e-12 <= p.s_chsh <= 2 * SQRT2 + 1e-12

    def test_f_direct_constant_series_has_no_extrema(self):
        spec = SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, num_points=51)
        series = run_sweep(spec)
        assert [p.s_prime for p in series.points][:3] != [series.points[0].s_prime] * 3
        constant = find_extrema([0.0, 1.0, 2.0, 3.0], [0.3, 0.3, 0.3, 0.3])
        assert constant == []

    def test_f_direct_is_linear(self):
        spec = SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, num_points=11)
        series = run_sweep(spec)
        for p in series.points:
            assert p.s_prime == pytest.approx(-0.5 + p.x / SQRT2, abs=1e-12)
            assert p.s_chsh == pytest.approx(2 * SQRT2 * p.x, abs=1e-12)

    def test_reference_lines(self):
        series = run_sweep(common_sweep(points=11))
        ref = series.reference
        assert ref.quantum_s_prime == pytest.approx(0.20710678118654746, abs=1e-12)
        assert ref.semiclassical_s_prime == pytest.approx(-0.14644660940672627, abs=1e-12)
        assert ref.quantum_s == pytest.approx(2 * SQRT2, abs=1e-12)
        assert ref.semiclassical_s == pytest.approx(SQRT2, abs=1e-12)
        assert (ref.lhv_s_prime_min, ref.lhv_s_prime_max, ref.lhv_s_max) == (-1.0, 0.0, 2.0)


class TestAgainstAtomExpansion:
    def test_unequal_weight_distance_ratio_sweep(self):
        # the stations of `sweep --variable distance_ratio --round-trip-a 20ns
        # --round-trip-b 43ns`; weights follow the round trips, 43:20
        alice = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 0.0, round_trip_time=20e-9)
        bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 0.0, round_trip_time=43e-9)
        spec = SweepSpec(SweepVariable.DISTANCE_RATIO, 0.0, 100e6, num_points=121,
                         alice=alice, bob=bob)
        weights = (43 / 63, 20 / 63)
        for p in run_sweep(spec).points:
            sf = mix_fractions(1.0, sync_fraction(p.x, 43e-9))
            assert (p.f_alice, p.f_bob) == (sf.f_alice, sf.f_bob)
            assert abs(p.s_prime - s_prime_mixture(STANDARD_QUAD, sf, weights)) <= 1e-12
            assert abs(p.s_chsh - s_chsh_mixture(STANDARD_QUAD, sf, weights)) <= 1e-12


class TestFindExtrema:
    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            find_extrema([0.0, 1.0], [0.0, 1.0])

    def test_plateau_counts_once(self):
        xs = list(range(7))
        ys = [0, 1, 1, 1, 0, -1, 0]
        found = find_extrema(xs, ys)
        assert [(e.x, e.kind) for e in found] == [(2, "max"), (5, "min")]


class TestDistanceAsymmetry:
    def base_spec(self, weights, start=1e6, stop=100e6, points=601):
        bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 0.0)
        return SweepSpec(
            SweepVariable.DISTANCE_RATIO, start, stop, num_points=points,
            bob=bob, station_weights=weights,
        )

    def test_all_weight_on_bob_gives_full_amplitude(self):
        # fine grid over one full oscillation so the grid lands near the nodes
        series = run_sweep(self.base_spec((0.0, 1.0), 20e6, 36e6, 1601))
        values = [p.s_prime for p in series.points]
        assert max(values) == pytest.approx(0.20710678118654746, abs=1e-3)
        assert min(values) == pytest.approx(-0.5, abs=1e-3)

    def test_all_weight_on_fixed_alice_gives_constant_series(self):
        series = run_sweep(self.base_spec((1.0, 0.0)))
        values = [p.s_prime for p in series.points]
        assert max(values) - min(values) <= 1e-12
        assert values[0] == pytest.approx(0.20710678118654746, abs=1e-12)
        assert series_extrema(series, "s_prime") == []

    def test_amplitude_grows_as_alice_weight_shrinks(self):
        amplitudes = []
        for w_alice in (0.8, 0.5, 0.2, 0.0):
            series = run_sweep(self.base_spec((w_alice, 1.0 - w_alice)))
            values = [p.s_prime for p in series.points]
            amplitudes.append(max(values) - min(values))
        assert amplitudes == sorted(amplitudes)

    def test_default_weights_follow_round_trips(self):
        # Alice far (big round trip) -> most texture weight on Bob
        alice = StationConfig.fixed(STANDARD_QUAD.a, round_trip_time=9 * ROUND_TRIP)
        bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 0.0, round_trip_time=ROUND_TRIP)
        spec = SweepSpec(
            SweepVariable.DISTANCE_RATIO, 1e6, 50e6, num_points=11, alice=alice, bob=bob
        )
        assert spec.resolved_weights() == pytest.approx((0.1, 0.9), abs=1e-12)

    def test_extrema_follow_bob_round_trip(self):
        bob = StationConfig(
            STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 0.0, round_trip_time=2 * ROUND_TRIP
        )
        spec = SweepSpec(
            SweepVariable.DISTANCE_RATIO, 1e6, 50e6, num_points=601,
            bob=bob, station_weights=(0.0, 1.0),
        )
        maxima = [e for e in series_extrema(run_sweep(spec), "s_prime") if e.kind == "max"]
        spacing = np.diff([e.x for e in maxima])
        step = (50e6 - 1e6) / 600
        assert np.allclose(spacing, 1.0 / (2 * ROUND_TRIP), atol=2 * step)


class TestMonteCarloSweep:
    def test_estimates_agree_with_closed_forms(self):
        spec = SweepSpec(
            SweepVariable.FREQUENCY_COMMON, 10e6, 40e6, num_points=4,
            engines=("closed_form", MONTE_CARLO), mc_pairs_per_point=150_000, seed=202,
        )
        series = run_sweep(spec)
        for p in series.points:
            assert p.mc_s_prime is not None and p.mc_s_chsh is not None
            assert p.mc_s_prime.agrees_with(p.s_prime)
            assert p.mc_s_chsh.agrees_with(p.s_chsh)

    def test_f_direct_monte_carlo(self):
        spec = SweepSpec(
            SweepVariable.F_DIRECT, 0.2, 0.8, num_points=3,
            engines=(MONTE_CARLO,), mc_pairs_per_point=120_000, seed=203,
        )
        series = run_sweep(spec)
        for p in series.points:
            assert p.mc_s_prime.agrees_with(p.s_prime)

    def test_distance_ratio_monte_carlo(self):
        spec = SweepSpec(
            SweepVariable.DISTANCE_RATIO, 10e6, 30e6, num_points=2,
            engines=(MONTE_CARLO,), mc_pairs_per_point=120_000, seed=204,
            station_weights=(0.3, 0.7),
        )
        series = run_sweep(spec)
        for p in series.points:
            assert p.mc_s_prime.agrees_with(p.s_prime)
            assert p.mc_s_chsh.agrees_with(p.s_chsh)

    @pytest.mark.parametrize("variable, station, field, seed", [
        (SweepVariable.FREQUENCY_COMMON, "alice", "f_alice", 206),
        (SweepVariable.DISTANCE_RATIO, "bob", "f_bob", 207),
    ])
    def test_random_choice_station(self, variable, station, field, seed):
        # a random-choice station is in sync half the time, whatever x is
        settings = {"alice": (STANDARD_QUAD.a, STANDARD_QUAD.a_alt),
                    "bob": (STANDARD_QUAD.b, STANDARD_QUAD.b_alt)}[station]
        spec = SweepSpec(
            variable, 10e6, 20e6, num_points=2,
            engines=("closed_form", MONTE_CARLO), mc_pairs_per_point=100_000, seed=seed,
            **{station: StationConfig.random_choice(*settings)},
        )
        for p in run_sweep(spec).points:
            assert getattr(p, field) == 0.5
            assert p.mc_s_prime.agrees_with(p.s_prime)
            assert p.mc_s_chsh.agrees_with(p.s_chsh)

    # Stepped-Alice estimates as (value, std_error, n_trials), fixed seeds:
    # Alice over 20 ns, Bob at 48.4 MHz over 43 ns.  A still Alice is
    # stepped through a and a' on the timeline, two parts of n/2 pairs in
    # the main run (version 0.5.0).
    STEPPED_STATIONS = (
        StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 46.2e6, 0.0, 20e-9),
        StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 48.4e6, 0.0, 43e-9),
    )

    def test_stepped_alice_estimates_are_pinned(self):
        alice, bob = self.STEPPED_STATIONS
        s_p, s_c = measure_bell(STANDARD_QUAD, 20_000, RngSpec(70),
                                stations=(replace(alice, switch_frequency=0.0), bob),
                                duration=1e-4, station_weights=(0.3, 0.7), workers=2)
        assert (s_p.value, s_p.std_error, s_p.n_trials) == (
            0.1287661569231091, 0.014137309876378993, 20000)
        assert (s_c.value, s_c.std_error, s_c.n_trials) == (
            2.5053861473151118, 0.022047906981650846, 20000)

    def test_distance_ratio_point_is_pinned(self):
        # the sweep holds the 46.2 MHz Alice still
        alice, bob = self.STEPPED_STATIONS
        spec = SweepSpec(SweepVariable.DISTANCE_RATIO, 10e6, 30e6, num_points=2,
                         engines=(MONTE_CARLO,), mc_pairs_per_point=20_000, seed=71,
                         alice=alice, bob=bob)
        p = run_sweep(spec).points[1]
        assert (p.mc_s_prime.value, p.mc_s_prime.std_error, p.mc_s_prime.n_trials) == (
            0.10031047964078521, 0.01417779582947921, 20000)
        assert (p.mc_s_chsh.value, p.mc_s_chsh.std_error) == (
            2.315867932497307, 0.023059002945173)

    @pytest.mark.parametrize("still", ["alice", "bob", "both"])
    def test_still_stations_are_stepped_on_the_timeline(self, still):
        # a periodic station at nu = 0 is stepped at phases 0 and pi, whatever
        # its own phase (4 rad would show its second setting); the main run is
        # the (Alice step, Bob step) parts in order on streams +1..+m, splitting
        # n, then Alice-only at her last step and Bob-only at the first steps
        alice, bob = self.STEPPED_STATIONS
        a0 = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 0.0, 0.0, 20e-9)
        b0 = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 0.0, 0.0, 43e-9)
        a1, b1 = replace(a0, switch_phase=math.pi), replace(b0, switch_phase=math.pi)
        stations, parts, alice_only, bob_only = {
            "alice": ((replace(a0, switch_phase=4.0), bob), [(a0, bob), (a1, bob)],
                      (a1, bob), (a0, bob)),
            "bob": ((alice, replace(b0, switch_phase=4.0)), [(alice, b0), (alice, b1)],
                    (alice, b0), (alice, b0)),
            "both": ((replace(a0, switch_phase=4.0), replace(b0, switch_phase=4.0)),
                     [(a0, b0), (a0, b1), (a1, b0), (a1, b1)], (a1, b0), (a0, b0)),
        }[still]
        n, m, weights = 20_003, len(parts), (0.3, 0.7)

        def run(pair, pairs, stream, pbs):
            return run_timeline(*pair, pairs, 1e-4, RngSpec(73, stream),
                                station_weights=weights, pbs=pbs)

        main = Trials.concat([run(pair, n // m + (k < n % m), k + 1, (True, True))
                              for k, pair in enumerate(parts)])
        assert len(main) == n
        runs = (main, run(alice_only, n, m + 1, (True, False)),
                run(bob_only, n, m + 2, (False, True)))
        s_p, s_c = measure_bell(STANDARD_QUAD, n, RngSpec(73), stations=stations,
                                duration=1e-4, station_weights=weights)
        assert s_p == estimate_s_prime(*runs, STANDARD_QUAD)
        assert s_c == estimate_s_chsh(main, STANDARD_QUAD)

    def test_too_few_pairs_for_the_stepped_parts(self):
        # both stations still: four parts
        alice = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt)
        bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt)
        with pytest.raises(ValidationError, match="3 pairs cannot fill the 4 stepped parts"):
            measure_bell(STANDARD_QUAD, 3, RngSpec(76), stations=(alice, bob))

    @pytest.mark.parametrize("rt_b, phase_b, locked", [
        (93e-9, 0.0, False),  # arrival readings a quarter period apart
        (93e-9, math.pi / 2, True),  # the phase closes the gap to half a period
        (143e-9, 0.0, True),  # the round trips alone put them half a period apart
    ])
    def test_equal_waves_lock_through_their_round_trips(self, rt_b, phase_b, locked):
        # at 10 MHz, (phi_B - phi_A) + pi nu (T_B - T_A) decides whether Bob is offset
        alice = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 10e6, 0.0, 43e-9)
        bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 10e6, phase_b, rt_b)
        measured = replace(bob, switch_phase=phase_b + math.pi / 2) if locked else bob
        runs = [run_timeline(alice, measured, 20_000, 1e-3, RngSpec(72, k), pbs=pbs)
                for k, pbs in ((1, (True, True)), (2, (True, False)), (3, (False, True)))]
        s_p, s_c = measure_bell(STANDARD_QUAD, 20_000, RngSpec(72), stations=(alice, bob))
        assert s_p == estimate_s_prime(*runs, STANDARD_QUAD)
        assert s_c == estimate_s_chsh(runs[0], STANDARD_QUAD)

    def test_failure_reports_offending_x(self):
        spec = SweepSpec(
            SweepVariable.FREQUENCY_COMMON, 10e6, 20e6, num_points=2,
            engines=(MONTE_CARLO,), mc_pairs_per_point=2, seed=205,
        )
        with pytest.raises(SweepError, match="10000000"):
            run_sweep(spec)


class TestAspectPoint:
    def test_exact_chain(self):
        report = aspect_point()
        assert report.exact.fractions.f_alice == pytest.approx(0.9732, abs=1e-4)
        assert report.exact.fractions.f_bob == pytest.approx(0.8376, abs=1e-4)
        assert report.exact.fractions.f == pytest.approx(0.9054, abs=1e-4)
        assert report.exact.s_prime == pytest.approx(-0.5 + 0.9054 / SQRT2, abs=1e-4)
        assert report.exact.s_chsh == pytest.approx(2 * SQRT2 * 0.9054, abs=1e-3)

    def test_reported_chain_reproduces_headline_numbers(self):
        report = aspect_point()
        assert report.reported.fractions.f == pytest.approx(0.90, abs=1e-12)
        assert report.reported.fractions.f_prime == pytest.approx(0.07, abs=1e-12)
        assert report.reported.s_prime == pytest.approx(0.136, abs=5e-4)
        assert report.reported.s_chsh == pytest.approx(2 * SQRT2 * 0.90, abs=1e-12)

    def test_comparison_against_recorded_value(self):
        report = aspect_point()
        assert report.measured_s_prime == 0.101
        assert report.measured_s_prime_error == 0.020
        d = report.as_dict()
        assert d["reported_minus_measured"] == pytest.approx(0.035, abs=5e-4)
