"""Sweep engine: grids, extrema, distance asymmetry, and the 1982 reconstruction."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bellsim import (
    STANDARD_QUAD,
    EstimateWithError,
    RngSpec,
    StationConfig,
    SweepSpec,
    SyncFractions,
    SweepVariable,
    ValidationError,
    aspect_point,
    aspect_stations,
    bell_coefficients,
    bell_values,
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
from bellsim import montecarlo, sweep
from bellsim.choice import fractions_for
from bellsim.sweep import MONTE_CARLO, SweepError, s_chsh_mixture, s_prime_mixture

ROUND_TRIP = 43e-9
NODE = 1.0 / ROUND_TRIP  # ~23.2558 MHz spacing of the in-sync maxima
SQRT2 = math.sqrt(2)


#: the closed-form columns of a sweep table, in table order
ROW = ("x", "f_alice", "f_bob", "s_prime", "s_chsh")


def estimate(series, which: str, i: int) -> EstimateWithError:
    """Row i's Monte Carlo estimate of column ``which`` ("s_prime" or "s_chsh")."""
    columns = series.columns
    return EstimateWithError(columns[f"mc_{which}"][i], columns[f"mc_{which}_err"][i],
                             series.spec.mc_pairs_per_point)


def _estimates_of_tallies(runs) -> tuple[EstimateWithError, EstimateWithError]:
    """(S', S) of the main, Alice-only and Bob-only ``records=False`` runs."""
    return (montecarlo._s_prime([run.counts for run in runs], [run.settings for run in runs],
                                STANDARD_QUAD),
            montecarlo._s_chsh(runs[0].counts, runs[0].settings, STANDARD_QUAD))


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
        assert run_sweep(as_text).columns == run_sweep(common_sweep(points=21)).columns

    def test_unknown_variable_is_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="bogus"):
            SweepSpec("bogus", 0.0, 1.0)

    def test_mc_needs_pairs(self):
        with pytest.raises(ValidationError):
            SweepSpec(
                SweepVariable.F_DIRECT, 0.0, 1.0,
                engines=(MONTE_CARLO,), mc_pairs_per_point=0,
            )

    # 2.5 raised TypeError in grid(), 3.0 in run_sweep, "3" and None at the bound check;
    # True said too few points
    @pytest.mark.parametrize("points", [2.5, 3.0, True, "3", None])
    def test_rejects_points_that_are_not_an_integer(self, points):
        given = re.escape(repr(points))
        with pytest.raises(ValidationError, match=f"^num_points must be an integer >= 2, got {given}$"):
            SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, num_points=points)

    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_too_few_integer_points_keep_their_message(self, points):
        with pytest.raises(ValidationError, match="^sweep needs at least two points$"):
            SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, num_points=points)

    # 2.5, 1000.0 and True constructed and failed only at the first Monte Carlo point
    @pytest.mark.parametrize("pairs", [2.5, 1000.0, True, "1000"])
    def test_mc_rejects_pairs_that_are_not_an_integer(self, pairs):
        given = re.escape(repr(pairs))
        with pytest.raises(ValidationError,
                           match=f"^mc_pairs_per_point must be an integer >= 1, got {given}$"):
            SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, engines=(MONTE_CARLO,),
                      mc_pairs_per_point=pairs)

    @pytest.mark.parametrize("pairs", [0, -1])
    def test_mc_too_few_integer_pairs_keep_their_message(self, pairs):
        with pytest.raises(ValidationError,
                           match="^monte_carlo engine needs mc_pairs_per_point >= 1$"):
            SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, engines=(MONTE_CARLO,),
                      mc_pairs_per_point=pairs)


class TestClosedFormSweep:
    def test_values_at_landmark_frequencies(self):
        series = run_sweep(common_sweep())
        xs = np.array(series.points)
        ys = np.array(series.columns["s_prime"])
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
        xs = series.points
        ys = series.columns["s_prime"]
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
            columns = run_sweep(spec).columns
            for s_prime, s_chsh in zip(columns["s_prime"], columns["s_chsh"]):
                assert -0.5 - 1e-12 <= s_prime <= 0.20710678118654746 + 1e-12
                assert -1e-12 <= s_chsh <= 2 * SQRT2 + 1e-12

    def test_f_direct_constant_series_has_no_extrema(self):
        spec = SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, num_points=51)
        series = run_sweep(spec)
        s_prime = series.columns["s_prime"]
        assert list(s_prime[:3]) != [s_prime[0]] * 3
        constant = find_extrema([0.0, 1.0, 2.0, 3.0], [0.3, 0.3, 0.3, 0.3])
        assert constant == []

    def test_f_direct_is_linear(self):
        spec = SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.0, num_points=11)
        series = run_sweep(spec)
        for x, s_prime, s_chsh in zip(*map(series.columns.get, ("x", "s_prime", "s_chsh"))):
            assert s_prime == pytest.approx(-0.5 + x / SQRT2, abs=1e-12)
            assert s_chsh == pytest.approx(2 * SQRT2 * x, abs=1e-12)

    def test_reference_lines(self):
        series = run_sweep(common_sweep(points=11))
        ref = series.reference
        assert ref.quantum_s_prime == pytest.approx(0.20710678118654746, abs=1e-12)
        assert ref.semiclassical_s_prime == pytest.approx(-0.14644660940672627, abs=1e-12)
        assert ref.quantum_s == pytest.approx(2 * SQRT2, abs=1e-12)
        assert ref.semiclassical_s == pytest.approx(SQRT2, abs=1e-12)
        assert (ref.lhv_s_prime_min, ref.lhv_s_prime_max, ref.lhv_s_max) == (-1.0, 0.0, 2.0)


FREQUENCY_VARIABLES = [SweepVariable.FREQUENCY_COMMON, SweepVariable.FREQUENCY_ALICE_ONLY,
                       SweepVariable.DISTANCE_RATIO]


def _stations_at(spec: SweepSpec, x: float) -> tuple[StationConfig, StationConfig]:
    """The stations of a frequency sweep at x, built as a point's stations."""
    v = spec.variable
    alice = (replace(spec.alice, switch_frequency=0.0, switching="periodic", sync_probability=0.5)
             if v is SweepVariable.DISTANCE_RATIO else replace(spec.alice, switch_frequency=x))
    bob = spec.bob if v is SweepVariable.FREQUENCY_ALICE_ONLY else replace(
        spec.bob, switch_frequency=x)
    return alice, bob


class TestStationFreePoints:
    """A closed-form point reads its sync fractions without building stations."""

    @pytest.mark.parametrize("variable", FREQUENCY_VARIABLES)
    @pytest.mark.parametrize("bob_switching", ["random", "random_p", "periodic"])
    def test_random_choice_points_are_those_of_their_stations(self, variable, bob_switching):
        q = STANDARD_QUAD
        bob = {"random": StationConfig.random_choice(q.b, q.b_alt, 2 * ROUND_TRIP),
               "random_p": StationConfig(q.b, q.b_alt, round_trip_time=2 * ROUND_TRIP,
                                         switching="random", sync_probability=0.3),
               "periodic": StationConfig(q.b, q.b_alt, 5e6)}[bob_switching]
        # with p != 1/2, Alice too (distance_ratio holds her still whatever her p)
        alice = StationConfig(q.a, q.a_alt, switching="random",
                              sync_probability=0.8 if bob_switching == "random_p" else 0.5)
        spec = SweepSpec(variable, 0.0, 100e6, num_points=41, alice=alice, bob=bob,
                         station_weights=(0.3, 0.7))
        bell = bell_coefficients(spec.quad, (0.3, 0.7))
        for x, *cells in zip(*map(run_sweep(spec).columns.get, ROW)):
            sf = fractions_for(*_stations_at(spec, x))
            assert tuple(cells) == (
                sf.f_alice, sf.f_bob, *bell_values(bell, sf.f_alice, sf.f_bob))

    @pytest.mark.parametrize("variable", FREQUENCY_VARIABLES)
    @pytest.mark.parametrize("switching", ["random", "periodic"])
    def test_a_negative_frequency_is_rejected(self, variable, switching):
        q = STANDARD_QUAD
        alice, bob = (StationConfig(q.a, q.a_alt, switching=switching),
                      StationConfig(q.b, q.b_alt, switching=switching))
        spec = SweepSpec(variable, -1.0, 1.0, 3, alice=alice, bob=bob)
        with pytest.raises(ValidationError, match=r"^switch_frequency must be >= 0$"):
            run_sweep(spec)

    @pytest.mark.parametrize("start, stop, message", [
        (-0.5, 1.0, r"^f value -0.5 outside \[0, 1\]$"),
        (0.0, 1.5, r"^f value 1.5 outside \[0, 1\]$"),
    ])
    def test_f_direct_outside_the_unit_interval_is_rejected(self, start, stop, message):
        with pytest.raises(ValidationError, match=message):
            run_sweep(SweepSpec(SweepVariable.F_DIRECT, start, stop, 3))

    @pytest.mark.parametrize("start, stop, message", [
        (-math.inf, 1.0, r"^sweep start must be finite, got -inf$"),
        (0.0, math.inf, r"^sweep stop must be finite, got inf$"),
        (math.nan, 1.0, r"^sweep start must be finite, got nan$"),
        (-1e308, 1e308, r"^sweep stop - start must be finite, got inf$"),
    ])
    def test_a_non_finite_bound_or_span_is_named(self, start, stop, message):
        # not "f value nan": the grid of such bounds would hold nan
        with pytest.raises(ValidationError, match=message):
            SweepSpec(SweepVariable.F_DIRECT, start, stop, 3)

    # nan built the closed-form columns, then failed at the first Monte Carlo point
    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_a_non_finite_monte_carlo_duration_is_rejected(self, duration):
        with pytest.raises(ValidationError, match=f"^monte_carlo engine needs a finite duration, "
                                                  f"got {duration!r}$"):
            SweepSpec(SweepVariable.FREQUENCY_COMMON, 0.0, 1e6, 3,
                      engines=("closed_form", MONTE_CARLO), mc_duration=duration)

    def test_f_outside_the_unit_interval_fails_before_any_monte_carlo_point(self, monkeypatch):
        measured = []
        monkeypatch.setattr(sweep, "measure_bell", lambda *a, **kw: measured.append(a))
        spec = SweepSpec(SweepVariable.F_DIRECT, 0.0, 1.5, 4,
                         engines=("closed_form", MONTE_CARLO), mc_pairs_per_point=1000)
        with pytest.raises(ValidationError, match=r"^f value 1.5 outside \[0, 1\]$"):
            run_sweep(spec)
        assert measured == []

    @pytest.mark.parametrize("points", [4, 8])
    def test_the_last_grid_point_is_stop(self, points):
        # 0.1 + 7 * (0.9 / 7) is 1.0000000000000002, 0.1 + 3 * 0.3 0.9999999999999999
        spec = SweepSpec(SweepVariable.F_DIRECT, 0.1, 1.0, points)
        assert spec.grid()[-1] == 1.0
        assert run_sweep(spec).points[-1] == 1.0

    def test_half_periods_beyond_2_52_are_rejected(self):
        with pytest.raises(ValidationError, match=r"more than 2\*\*52"):
            run_sweep(SweepSpec(SweepVariable.FREQUENCY_COMMON, 0.0, 1e300, 3))

    def test_stations_built_do_not_grow_with_the_grid(self, monkeypatch):
        # nor do the validated SyncFractions: a closed-form point builds no object
        built = []
        for cls in (StationConfig, SyncFractions):
            def counted(self, post_init=cls.__post_init__):
                built.append(self)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        counts = []
        for points in (3, 1201):
            built.clear()
            for variable in SweepVariable:
                run_sweep(SweepSpec(variable, 0.0, 1.0 if variable is SweepVariable.F_DIRECT
                                    else 100e6, points))
            counts.append(len(built))
        assert counts[0] == counts[1]


class TestAgainstAtomExpansion:
    def test_unequal_weight_distance_ratio_sweep(self):
        # the stations of `sweep --variable distance_ratio --round-trip-a 20ns
        # --round-trip-b 43ns`; weights follow the round trips, 43:20
        alice = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 0.0, round_trip_time=20e-9)
        bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 0.0, round_trip_time=43e-9)
        spec = SweepSpec(SweepVariable.DISTANCE_RATIO, 0.0, 100e6, num_points=121,
                         alice=alice, bob=bob)
        weights = (43 / 63, 20 / 63)
        for x, f_alice, f_bob, s_prime, s_chsh in zip(*map(run_sweep(spec).columns.get, ROW)):
            sf = mix_fractions(1.0, sync_fraction(x, 43e-9))
            assert (f_alice, f_bob) == (sf.f_alice, sf.f_bob)
            assert abs(s_prime - s_prime_mixture(STANDARD_QUAD, sf, weights)) <= 1e-12
            assert abs(s_chsh - s_chsh_mixture(STANDARD_QUAD, sf, weights)) <= 1e-12


class TestFindExtrema:
    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            find_extrema([0.0, 1.0], [0.0, 1.0])

    def test_plateau_counts_once(self):
        xs = list(range(7))
        ys = [0, 1, 1, 1, 0, -1, 0]
        found = find_extrema(xs, ys)
        assert [(e.x, e.kind) for e in found] == [(2, "max"), (5, "min")]

    def test_an_unknown_series_column_lists_the_columns(self):
        with pytest.raises(ValidationError, match=r"unknown sweep column 'sprime' \(choose from "
                                                  r"x \| f_alice \| f_bob \| s_prime \| s_chsh \| "
                                                  r"mc_s_prime \| mc_s_prime_err \| mc_s_chsh \| "
                                                  r"mc_s_chsh_err\)"):
            series_extrema(run_sweep(common_sweep(points=5)), "sprime")

    def test_a_column_without_monte_carlo_has_no_extrema_to_find(self):
        with pytest.raises(ValidationError, match=r"^sweep column 'mc_s_chsh' has no values: "
                                                  r"Monte Carlo did not run$"):
            series_extrema(run_sweep(common_sweep(points=5)), "mc_s_chsh")


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
        values = series.columns["s_prime"]
        assert max(values) == pytest.approx(0.20710678118654746, abs=1e-3)
        assert min(values) == pytest.approx(-0.5, abs=1e-3)

    def test_all_weight_on_fixed_alice_gives_constant_series(self):
        series = run_sweep(self.base_spec((1.0, 0.0)))
        values = series.columns["s_prime"]
        assert max(values) - min(values) <= 1e-12
        assert values[0] == pytest.approx(0.20710678118654746, abs=1e-12)
        assert series_extrema(series, "s_prime") == []

    def test_amplitude_grows_as_alice_weight_shrinks(self):
        amplitudes = []
        for w_alice in (0.8, 0.5, 0.2, 0.0):
            series = run_sweep(self.base_spec((w_alice, 1.0 - w_alice)))
            values = series.columns["s_prime"]
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
        assert None not in series.columns["mc_s_prime"] + series.columns["mc_s_chsh"]
        for i in range(len(series.points)):
            assert estimate(series, "s_prime", i).agrees_with(series.columns["s_prime"][i])
            assert estimate(series, "s_chsh", i).agrees_with(series.columns["s_chsh"][i])

    def test_f_direct_monte_carlo(self):
        spec = SweepSpec(
            SweepVariable.F_DIRECT, 0.2, 0.8, num_points=3,
            engines=(MONTE_CARLO,), mc_pairs_per_point=120_000, seed=203,
        )
        series = run_sweep(spec)
        for i in range(len(series.points)):
            assert estimate(series, "s_prime", i).agrees_with(series.columns["s_prime"][i])

    def test_distance_ratio_monte_carlo(self):
        spec = SweepSpec(
            SweepVariable.DISTANCE_RATIO, 10e6, 30e6, num_points=2,
            engines=(MONTE_CARLO,), mc_pairs_per_point=120_000, seed=204,
            station_weights=(0.3, 0.7),
        )
        series = run_sweep(spec)
        for i in range(len(series.points)):
            assert estimate(series, "s_prime", i).agrees_with(series.columns["s_prime"][i])
            assert estimate(series, "s_chsh", i).agrees_with(series.columns["s_chsh"][i])

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
        series = run_sweep(spec)
        for i in range(len(series.points)):
            assert series.columns[field][i] == 0.5
            assert estimate(series, "s_prime", i).agrees_with(series.columns["s_prime"][i])
            assert estimate(series, "s_chsh", i).agrees_with(series.columns["s_chsh"][i])

    # Still-Alice estimates as (value, std_error, n_trials), fixed seeds:
    # Alice over 20 ns, Bob at 48.4 MHz over 43 ns.  A still Alice is
    # measured as the random station in sync with probability 1, main,
    # Alice-only and Bob-only on streams +1..+3 (version 0.9.0), each run's
    # pairs counted in draw order (version 0.10.0).
    STATIONS = (
        StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 46.2e6, 0.0, 20e-9),
        StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 48.4e6, 0.0, 43e-9),
    )
    #: the still Alice and Bob of ``STATIONS``, as random stations always in sync
    IN_SYNC = (
        StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, round_trip_time=20e-9,
                      switching="random", sync_probability=1.0),
        StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, round_trip_time=43e-9,
                      switching="random", sync_probability=1.0),
    )

    def test_still_alice_estimates_are_pinned(self):
        alice, bob = self.STATIONS
        s_p, s_c = measure_bell(STANDARD_QUAD, 20_000, RngSpec(70),
                                stations=(replace(alice, switch_frequency=0.0), bob),
                                duration=1e-4, station_weights=(0.3, 0.7), workers=2)
        assert (s_p.value, s_p.std_error, s_p.n_trials) == (
            0.15608660261634233, 0.014583583718966463, 20000)
        assert (s_c.value, s_c.std_error, s_c.n_trials) == (
            2.538176521325932, 0.021863024934972778, 20000)

    def test_distance_ratio_point_is_pinned(self, monkeypatch):
        # the sweep holds the 46.2 MHz Alice still; the table holds no pair
        # counts, so those are read from the measurements the sweep makes
        alice, bob = self.STATIONS
        spec = SweepSpec(SweepVariable.DISTANCE_RATIO, 10e6, 30e6, num_points=2,
                         engines=(MONTE_CARLO,), mc_pairs_per_point=20_000, seed=71,
                         alice=alice, bob=bob)
        measured = []

        def measure(*args, **kwargs):
            measured.append(measure_bell(*args, **kwargs))
            return measured[-1]

        monkeypatch.setattr(sweep, "measure_bell", measure)
        columns = run_sweep(spec).columns
        assert (columns["mc_s_prime"][1], columns["mc_s_prime_err"][1],
                measured[1][0].n_trials) == (0.07294764791440933, 0.014567684149297044, 20000)
        assert (columns["mc_s_chsh"][1], columns["mc_s_chsh_err"][1]) == (
            2.2866404115510464, 0.02321216614793176)

    @pytest.mark.parametrize("still", ["alice", "bob", "both"])
    def test_still_stations_are_measured_in_sync(self, still):
        # a periodic station at nu = 0 is measured as the random station in
        # sync with probability 1, whatever its own phase (4 rad would show
        # its second setting): main, Alice-only and Bob-only on streams
        # +1..+3, on an emission grid when both stations are random; each
        # run's tally is that of its records=False run
        alice, bob = self.STATIONS
        a0 = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 0.0, 4.0, 20e-9)
        b0 = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 0.0, 4.0, 43e-9)
        a_sync, b_sync = self.IN_SYNC
        stations, measured = {
            "alice": ((a0, bob), (a_sync, bob)),
            "bob": ((alice, b0), (alice, b_sync)),
            "both": ((a0, b0), (a_sync, b_sync)),
        }[still]
        n, weights = 20_003, (0.3, 0.7)
        emission = "grid" if still == "both" else "uniform"
        runs = [run_timeline(*measured, n, 1e-4, RngSpec(73, k), emission=emission,
                             station_weights=weights, pbs=pbs, records=False)
                for k, pbs in ((1, (True, True)), (2, (True, False)), (3, (False, True)))]
        s_p, s_c = measure_bell(STANDARD_QUAD, n, RngSpec(73), stations=stations,
                                duration=1e-4, station_weights=weights)
        assert (s_p, s_c) == _estimates_of_tallies(runs)

    @pytest.mark.parametrize("b_alt_shift, n, seed, message", [
        (0.1, 2_001, 74, "records contain settings outside the quad"),
        (0.0, 3, 75, "a measured setting pair has no records"),
        (0.0, 5, 331, "no singles records at Bob's first setting"),
        (0.0, 5, 77, "need at least two samples for a standard error"),
    ])
    def test_errors_are_those_of_the_estimators(self, b_alt_shift, n, seed, message):
        # a quad the stations do not carry, or too few pairs: measure_bell
        # raises what estimate_s_prime, then estimate_s_chsh, raise on the
        # reference runs (the main run's groups, then the singles, then S's)
        alice, bob = self.STATIONS
        quad = replace(STANDARD_QUAD, b_alt=STANDARD_QUAD.b_alt + b_alt_shift)
        runs = [run_timeline(self.IN_SYNC[0], bob, n, 1e-4, RngSpec(seed, k), pbs=pbs)
                for k, pbs in ((1, (True, True)), (2, (True, False)), (3, (False, True)))]
        with pytest.raises(ValidationError) as expected:
            estimate_s_prime(*runs, quad)
            estimate_s_chsh(runs[0], quad)
        with pytest.raises(ValidationError) as raised:
            measure_bell(quad, n, RngSpec(seed), duration=1e-4,
                         stations=(replace(alice, switch_frequency=0.0), bob))
        assert str(raised.value) == str(expected.value) == message

    def test_neither_fractions_nor_stations_fails_before_any_run(self, monkeypatch):
        monkeypatch.setattr(sweep, "run_timeline", None)  # a run would raise TypeError
        with pytest.raises(ValidationError, match=r"^measure_bell needs sync fractions \(sf\) "
                                                  r"or stations$"):
            measure_bell(STANDARD_QUAD, 1000, RngSpec(77))

    def test_a_still_station_needs_at_least_one_pair(self):
        alice, bob = self.STATIONS
        with pytest.raises(ValidationError, match=r"^need at least one pair$"):
            measure_bell(STANDARD_QUAD, 0, RngSpec(76),
                         stations=(replace(alice, switch_frequency=0.0), bob))

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
        runs = [run_timeline(alice, measured, 20_000, 1e-3, RngSpec(72, k), pbs=pbs,
                             records=False)
                for k, pbs in ((1, (True, True)), (2, (True, False)), (3, (False, True)))]
        s_p, s_c = measure_bell(STANDARD_QUAD, 20_000, RngSpec(72), stations=(alice, bob))
        assert (s_p, s_c) == _estimates_of_tallies(runs)

    def test_failure_reports_offending_x(self):
        spec = SweepSpec(
            SweepVariable.FREQUENCY_COMMON, 10e6, 20e6, num_points=2,
            engines=(MONTE_CARLO,), mc_pairs_per_point=2, seed=205,
        )
        with pytest.raises(SweepError, match="10000000"):
            run_sweep(spec)


class TestMeasurementMemory:
    """A measurement tallies each run as it returns and drops its records."""

    @pytest.mark.parametrize("kind", ["1982", "still_alice", "choice"])
    def test_peak_holds_one_run(self, kind, monkeypatch):
        # one run's columns are 22 bytes a pair (a choice run's 30 while its
        # trial-index times replace the allocated ones); the main, Alice-only
        # and Bob-only runs held at once read 68.7-74 bytes
        monkeypatch.setattr(montecarlo, "_ARENAS", [])
        alice, bob = aspect_stations()
        kwargs = {"1982": {"stations": (alice, bob)},
                  "still_alice": {"stations": (replace(alice, switch_frequency=0.0), bob)},
                  "choice": {"sf": mix_fractions(0.9, 0.8)}}[kind]
        n = 200_000
        measure_bell(STANDARD_QUAD, n, RngSpec(110), **kwargs)
        tracemalloc.start()
        try:
            measure_bell(STANDARD_QUAD, n, RngSpec(111), **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n <= 32


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
