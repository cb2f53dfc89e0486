"""Stochastic validation of the event engine against the closed forms.

All statistical gates are 4 standard errors with fixed seeds, so every test
is deterministic.
"""

import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import bellsim
from bellsim import (
    ChoiceQuad,
    HvMixture,
    RngSpec,
    STANDARD_QUAD,
    StationConfig,
    Trials,
    UNIFORM_MIXTURE,
    ValidationError,
    estimate_s_chsh,
    estimate_s_prime,
    estimate_sync_fractions,
    measure_bell,
    mix_fractions,
    run_choice_trials,
    run_static,
    run_timeline,
    s_prime_fc,
    s_prime_fc_closed,
    sample_lambda,
    sync_fraction,
    texture_mixture,
)
from bellsim import cli, montecarlo
from bellsim.models import normalize_angle
from bellsim.sweep import aspect_stations

ROUND_TRIP = 43e-9
HALF_PI = math.pi / 2
COLUMNS = ("emission_time", "hidden_angle", "a_v_idx", "b_v_idx", "a_m_idx", "b_m_idx",
           "alpha", "beta")


class TestRngSpec:
    def test_same_spec_same_stream(self):
        a = RngSpec(7, 3).generator().random(100)
        b = RngSpec(7, 3).generator().random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngSpec(7, 0).generator().random(100)
        b = RngSpec(7, 1).generator().random(100)
        assert not np.array_equal(a, b)

    # -1 and -2 failed at the first draw in numpy; bools ran as 1 and 0
    @pytest.mark.parametrize("seed, stream_id, name", [
        (-1, 0, "seed"), (True, 0, "seed"), (2.5, 0, "seed"), ("3", 0, "seed"),
        (1, -2, "stream_id"), (1, False, "stream_id"), (1, 1.0, "stream_id")])
    def test_rejects_a_seed_or_stream_that_is_not_a_non_negative_integer(self, seed, stream_id,
                                                                        name):
        given = re.escape(repr(seed if name == "seed" else stream_id))
        with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 0, got {given}$"):
            RngSpec(seed, stream_id)

    # 2.9 became seed 2 and "3" seed 3
    @pytest.mark.parametrize("rng", [2.9, "3", None, True])
    def test_as_rng_spec_takes_a_spec_or_an_integer_seed(self, rng):
        with pytest.raises(ValidationError, match=f"^rng must be an RngSpec or an integer seed, "
                                                  f"got {re.escape(repr(rng))}$"):
            montecarlo.as_rng_spec(rng)

    def test_as_rng_spec_of_a_seed_is_its_stream_zero(self):
        spec = RngSpec(7, 3)
        assert montecarlo.as_rng_spec(spec) is spec
        assert montecarlo.as_rng_spec(7) == montecarlo.as_rng_spec(np.int64(7)) == RngSpec(7)
        with pytest.raises(ValidationError, match="^seed must be an integer >= 0, got -1$"):
            montecarlo.as_rng_spec(-1)


class TestSampleLambda:
    def test_single_atom_is_deterministic(self):
        q = HvMixture(((0.3, 1.0),))
        draws = sample_lambda(q, RngSpec(1).generator(), size=1000)
        assert np.all(draws == 0.3)

    def test_texture_atom_frequencies(self):
        q = texture_mixture([0.0, math.pi / 8])
        n = 1_000_000
        draws = sample_lambda(q, RngSpec(2).generator(), size=n)
        sigma = math.sqrt(n * 0.25 * 0.75)
        for angle, _ in q.atoms:
            count = int(np.sum(np.isclose(draws, angle, rtol=0, atol=1e-12)))
            assert abs(count - n * 0.25) <= 4 * sigma

    def test_uniform_component_passes_ks(self):
        n = 100_000
        draws = sample_lambda(UNIFORM_MIXTURE, RngSpec(3).generator(), size=n)
        stat, _ = stats.kstest(draws, stats.uniform(loc=-HALF_PI, scale=math.pi).cdf)
        # 1% critical value of the one-sample KS statistic
        assert stat < 1.628 / math.sqrt(n)

    def test_scalar_draw(self):
        value = sample_lambda(texture_mixture([0.4]), RngSpec(4).generator())
        assert isinstance(value, float)

    # -1 failed in numpy, 2.5 drew 2 angles and True one
    @pytest.mark.parametrize("size", [-1, 2.5, True, "3"])
    def test_rejects_a_size_that_is_not_none_or_a_count(self, size):
        given = re.escape(repr(size))
        with pytest.raises(ValidationError, match=f"^size must be an integer >= 0, got {given}$"):
            sample_lambda(UNIFORM_MIXTURE, RngSpec(4).generator(), size=size)

    def test_zero_size_is_an_empty_draw(self):
        assert sample_lambda(UNIFORM_MIXTURE, RngSpec(4).generator(), size=0).shape == (0,)

    @pytest.mark.parametrize("uniform_weight", [0.0, 0.25])
    @pytest.mark.parametrize("n_atoms", [3, 40])
    def test_draws_match_searchsorted_reference(self, n_atoms, uniform_weight):
        weight = (1.0 - uniform_weight) / n_atoms
        q = HvMixture(tuple((a, weight) for a in np.linspace(-3.0, 3.0, n_atoms)), uniform_weight)
        m = 20_000
        gen = RngSpec(10).generator()
        u = gen.random(m)
        idx = np.searchsorted(np.cumsum([w for _, w in q.atoms]), u, side="right")
        lam = np.array([a for a, _ in q.atoms])[np.minimum(idx, n_atoms - 1)]
        if uniform_weight:
            lam = np.where(idx < n_atoms, lam, -HALF_PI + np.pi * gen.random(m))
        expected = np.array([normalize_angle(v) for v in lam])
        assert np.array_equal(sample_lambda(q, RngSpec(10).generator(), size=m), expected)

    def test_atom_table_holds_the_normalized_angles(self):
        gen = RngSpec(11).generator()
        x = np.concatenate([
            gen.normal(size=5000), 10.0 * gen.normal(size=5000), 1e6 * gen.normal(size=5000),
            [0.0, -0.0, HALF_PI, -HALF_PI, math.pi, -math.pi, 3 * HALF_PI, -3 * HALF_PI,
             np.nextafter(HALF_PI, 0.0), np.nextafter(-HALF_PI, 0.0), -1e-300, 5e-324],
        ])
        expected = np.array([normalize_angle(v) for v in x])
        angles = montecarlo._AtomTable.build(x.tolist(), [], False, [[]]).angles
        assert np.isnan(angles[-1])  # the flat code's
        # as int64, so that signed zeros count
        assert np.array_equal(angles[:-1].view(np.int64), expected.view(np.int64))


class TestRunStatic:
    def test_aligned_deterministic(self):
        est = run_static(0.2, 0.2, HvMixture(((0.2, 1.0),)), 1000, RngSpec(5))
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_texture_reproduces_quantum_value(self):
        q = texture_mixture([0.0, math.pi / 8])
        est = run_static(0.0, math.pi / 8, q, 1_000_000, RngSpec(6))
        assert est.agrees_with(math.cos(math.pi / 4))

    def test_uniform_reproduces_semiclassical_value(self):
        est = run_static(0.0, math.pi / 8, UNIFORM_MIXTURE, 1_000_000, RngSpec(7))
        assert est.agrees_with(0.3535533905932738)

    def test_error_scaling(self):
        q = UNIFORM_MIXTURE
        small = run_static(0.0, 0.3, q, 10_000, RngSpec(8))
        large = run_static(0.0, 0.3, q, 1_000_000, RngSpec(8))
        assert large.std_error < small.std_error / 5  # ~1/sqrt(100)

    def test_rejects_empty_run(self):
        with pytest.raises(ValidationError):
            run_static(0.0, 0.0, UNIFORM_MIXTURE, 0, RngSpec(9))

    # 2.5 and True failed with numpy's TypeError; 1 failed after both
    # detections, in the standard error
    @pytest.mark.parametrize("n", [2.5, True, "100", -4, 1])
    def test_rejects_a_trial_count_that_is_not_an_integer_of_two_or_more(self, n):
        given = re.escape(repr(n))
        with pytest.raises(ValidationError, match=f"^n must be an integer >= 2, got {given}$"):
            run_static(0.0, 0.0, UNIFORM_MIXTURE, n, RngSpec(9))

    def test_two_trials_give_an_estimate(self):
        est = run_static(0.0, 0.0, UNIFORM_MIXTURE, 2, RngSpec(9))
        assert est.n_trials == 2 and math.isfinite(est.std_error)


class TestSquareWave:
    """``_square_wave_index`` against the ``np.mod`` formula it replaced."""

    @staticmethod
    def reference(frequency, phase, times):
        return (np.mod(times * frequency + phase / (2.0 * math.pi), 1.0) >= 0.5).astype(np.int8)

    @staticmethod
    def index(frequency, phase, times):
        out = np.empty(times.size, np.int8)
        montecarlo._square_wave_index(frequency, phase, times, 0.0, montecarlo._Arena(), out)
        return out

    def check(self, frequency, phase, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.index(frequency, phase, times)
        assert np.array_equal(got, self.reference(frequency, phase, times))

    @pytest.mark.parametrize("frequency, phase", [
        (48.4e6, 0.0), (46.2e6, 1.3), (46.2e6, -7.0), (1.0, 2.0), (3.7e9, math.pi),
    ])
    def test_random_and_negative_times(self, frequency, phase):
        gen = RngSpec(70).generator()
        self.check(frequency, phase, np.concatenate([
            gen.uniform(-1e-3, 1e-3, 50_000),
            -21.5e-9 * gen.random(10_000),  # t - T/2 in the first half round trip
            gen.uniform(-1e3, 1e3, 10_000),
        ]))

    @pytest.mark.parametrize("phase", [0.0, math.pi, -math.pi / 2])
    def test_exact_half_periods_and_their_neighbours(self, phase):
        halves = np.arange(-2000, 2001) / 2.0  # x = t * 0.25 + phase/2pi
        times = np.concatenate([halves, np.nextafter(halves, -np.inf), np.nextafter(halves, np.inf)])
        self.check(0.25, phase, times)
        self.check(1.0, 0.0, times)
        self.check(0.0, phase, times)  # a constant wave at the level of its phase

    def test_beyond_int64(self):
        # |2x| >= 2**63, where an int64 cast of floor(2x) overflows
        big = np.array([2.0**62, 2.0**63, 2.0**63 + 2.0**11, 2.0**70, 1e300])
        times = np.concatenate([big, -big, big / 3.0, -big / 3.0])
        self.check(1.0, 0.0, times)
        self.check(48.4e6, 0.5, times / 48.4e6)

    def test_zero_frequency_is_the_first_setting(self):
        assert not self.index(0.0, 1.0, np.linspace(-1.0, 1.0, 11)).any()

    HALVES = (-2.0**51 - 0.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 2.0**51 + 0.5)
    EDGES = [-0.0, 0.0, -5e-324, -1e-20, 2.0**52, -2.0**52, 1e300, -1e300, *HALVES,
             *(math.nextafter(h, d) for h in HALVES for d in (-math.inf, math.inf))]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
           st.sampled_from([0.0, -0.0, 1.0, -7.0, math.pi]))
    @example(EDGES, 0.0)
    @example(EDGES, math.pi)
    def test_equals_the_parity_of_floor_2x(self, xs, phase):
        # the formula the index had before: floor(2x) differs from 2 floor(x)
        times = np.array(xs)
        x = times * 1.0 + phase / (2.0 * math.pi)
        parity = (np.floor(x + x) != np.floor(x) * 2.0).astype(np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(self.index(1.0, phase, times), parity)


def standard_stations(nu_a, nu_b, phase_a=0.0, phase_b=0.0):
    alice = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, nu_a, phase_a, ROUND_TRIP)
    bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, nu_b, phase_b, ROUND_TRIP)
    return alice, bob


class TestTimeline:
    @pytest.mark.parametrize("spare, rejected", [(0, False), (-1, True)])
    def test_memory_check_counts_each_record_twice(self, monkeypatch, spare, rejected):
        # n pairs pass at twice their records' bytes of physical memory and
        # are rejected one byte below
        n = 1000
        physical = 2 * montecarlo._RECORD_BYTES * n + spare
        monkeypatch.setattr(os, "sysconf",
                            {"SC_PHYS_PAGES": physical, "SC_PAGE_SIZE": 1}.__getitem__)
        if rejected:
            with pytest.raises(ValidationError, match="^--pairs 1000 needs .* physical memory$"):
                montecarlo._check_memory(n)
        else:
            montecarlo._check_memory(n)

    def test_no_switching_keeps_settings(self):
        alice, bob = standard_stations(0.0, 0.0)
        t = run_timeline(alice, bob, 10_000, 1e-3, RngSpec(10))
        assert np.all(t.a_v == t.a_m)
        assert np.all(t.b_v == t.b_m)
        assert np.all(t.a_m == STANDARD_QUAD.a)

    @pytest.mark.parametrize("phase, setting", [
        (0.0, STANDARD_QUAD.a), (math.pi, STANDARD_QUAD.a_alt), (-HALF_PI, STANDARD_QUAD.a_alt),
    ])
    def test_zero_frequency_station_shows_the_setting_of_its_phase(self, phase, setting):
        alice, bob = standard_stations(0.0, 48.4e6, phase_a=phase)
        t = run_timeline(alice, bob, 10_000, 1e-3, RngSpec(17))
        assert np.all(t.a_v == setting) and np.all(t.a_m == setting)
        assert np.array_equal(t.settings[0], [STANDARD_QUAD.a, STANDARD_QUAD.a_alt])

    def test_resonant_frequency_always_in_sync(self):
        alice, bob = standard_stations(1.0 / ROUND_TRIP, 0.0)
        t = run_timeline(alice, bob, 100_000, 1e-3, RngSpec(11))
        fa, _ = estimate_sync_fractions(t)
        assert fa.value == 1.0

    def test_empirical_fractions_match_square_wave_formula(self):
        rng = np.random.default_rng(20250810)
        configs = [(46.2e6, 48.4e6)] + [
            tuple(rng.uniform(1e6, 100e6, size=2)) for _ in range(19)
        ]
        for k, (nu_a, nu_b) in enumerate(configs):
            alice, bob = standard_stations(nu_a, nu_b)
            t = run_timeline(alice, bob, 200_000, 1e-3, RngSpec(12, k))
            fa, fb = estimate_sync_fractions(t)
            assert abs(fa.value - sync_fraction(nu_a, ROUND_TRIP)) <= 0.005
            assert abs(fb.value - sync_fraction(nu_b, ROUND_TRIP)) <= 0.005

    def test_random_choice_fraction_is_half(self):
        alice = StationConfig.random_choice(STANDARD_QUAD.a, STANDARD_QUAD.a_alt)
        bob = StationConfig.random_choice(STANDARD_QUAD.b, STANDARD_QUAD.b_alt)
        t = run_timeline(alice, bob, 200_000, 1e-3, RngSpec(13))
        fa, fb = estimate_sync_fractions(t)
        assert fa.agrees_with(0.5)
        assert fb.agrees_with(0.5)

    def test_emission_grid_is_even(self):
        alice, bob = standard_stations(10e6, 20e6)
        t = run_timeline(alice, bob, 1000, 1e-3, RngSpec(14), emission="grid")
        gaps = np.diff(t.emission_time)
        assert np.allclose(gaps, 1e-6, atol=1e-12)

    def test_emission_poisson_count_near_expectation(self):
        alice, bob = standard_stations(10e6, 20e6)
        t = run_timeline(alice, bob, 100_000, 1e-3, RngSpec(15), emission="poisson")
        assert abs(len(t) - 100_000) <= 4 * math.sqrt(100_000)

    def test_validation(self):
        alice, bob = standard_stations(1e6, 1e6)
        with pytest.raises(ValidationError):
            run_timeline(alice, bob, 100, 0.0, RngSpec(16))
        for emission in ("uniform", "grid", "poisson"):
            with pytest.raises(ValidationError, match="at least one pair"):
                run_timeline(alice, bob, 0, 1e-3, RngSpec(16), emission=emission)
        with pytest.raises(ValidationError):
            run_timeline(alice, bob, 100, 1e-3, RngSpec(16), emission="burst")
        with pytest.raises(ValidationError, match="--duration"):  # 2**52 periods at 1 MHz
            run_timeline(alice, bob, 100, 4.6e9, RngSpec(16))

    # nan slipped past duration <= 0: records at nan times, each station
    # stuck at index 0; inf put a random station's first window at nan
    @pytest.mark.parametrize("records", [True, False])
    @pytest.mark.parametrize("emission", ["uniform", "grid", "poisson"])
    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_is_rejected(self, duration, emission, records):
        alice, bob = aspect_stations()
        with pytest.raises(ValidationError, match=f"^duration must be finite, got {duration!r}$"):
            run_timeline(alice, bob, 100, duration, RngSpec(16), emission=emission,
                         records=records)

    # 2.5 ran 2 records and True ran 1; "10" failed with a TypeError
    @pytest.mark.parametrize("n_pairs", [2.5, True, "10"])
    def test_a_pair_count_that_is_not_an_integer_is_rejected(self, n_pairs):
        alice, bob = aspect_stations()
        given = re.escape(repr(n_pairs))
        with pytest.raises(ValidationError, match=f"^n_pairs must be an integer >= 1, got {given}$"):
            run_timeline(alice, bob, n_pairs, 1e-3, RngSpec(16))

    def test_overlong_round_trip_is_named(self):
        # T/2 beyond the duration: the round trip, not --duration, spans the periods
        alice = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 46e6, 0.0, 1e300)
        bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 48e6, 0.0, 1e300)
        with pytest.raises(ValidationError) as info:
            run_timeline(alice, bob, 10, 1e-3, RngSpec(16))
        assert "--round-trip-a 1e+300 s" in str(info.value)
        assert str(info.value).endswith("shorten --round-trip-a")

    def test_poisson_rate_overflow_names_duration(self):
        alice, bob = standard_stations(0.0, 0.0)
        with pytest.raises(ValidationError, match="--duration 1e-320 s"):
            run_timeline(alice, bob, 10, 1e-320, RngSpec(16), emission="poisson")


class TestWorkers:
    def test_rejects_fewer_than_one(self):
        alice, bob = aspect_stations()
        for workers in (0, -3):
            with pytest.raises(ValidationError):
                run_timeline(alice, bob, 100, 1e-3, RngSpec(20), workers=workers)

    # 2.5, 1.5 and True ran (1.5 on several chunks too); "2" raised a TypeError
    @pytest.mark.parametrize("workers", [2.5, 1.5, True, "2"])
    @pytest.mark.parametrize("chunk_size", [montecarlo.DEFAULT_CHUNK, 16])
    def test_rejects_workers_that_is_not_a_positive_integer(self, workers, chunk_size):
        alice, bob = aspect_stations()
        given = re.escape(repr(workers))
        with pytest.raises(ValidationError, match=f"^workers must be an integer >= 1, got {given}$"):
            run_timeline(alice, bob, 100, 1e-3, RngSpec(20), workers=workers,
                         chunk_size=chunk_size)

    # 0 divided by zero, and grid emission failed in numpy on -5 and 2.5;
    # uniform ran -5 as one chunk, and poisson ran -5 and 2.5
    @pytest.mark.parametrize("chunk_size", [0, -5, 2.5, True, "4096"])
    @pytest.mark.parametrize("emission", ["uniform", "grid", "poisson"])
    def test_rejects_a_chunk_size_that_is_not_a_positive_integer(self, emission, chunk_size):
        alice, bob = aspect_stations()
        given = re.escape(repr(chunk_size))
        with pytest.raises(ValidationError, match=f"chunk_size .*got {given}"):
            run_timeline(alice, bob, 100, 1e-3, RngSpec(20), emission=emission,
                         chunk_size=chunk_size)

    def test_threads_are_bounded_by_cpus_and_chunks(self, monkeypatch):
        # a serial stand-in records the pool size; no thread is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
        alice, bob = aspect_stations()
        kwargs = dict(n_pairs=40, duration=1e-6, rng=RngSpec(21), chunk_size=10)  # 4 chunks
        serial = run_timeline(alice, bob, workers=1, **kwargs)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        wide = run_timeline(alice, bob, workers=10**6, **kwargs)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        run_timeline(alice, bob, workers=10**6, **kwargs)
        assert sizes == [4, 2]
        assert np.array_equal(serial.hidden_angle, wide.hidden_angle)
        assert np.array_equal(serial.alpha, wide.alpha)


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self):
        alice, bob = aspect_stations()
        kwargs = dict(n_pairs=300_000, duration=1e-3, rng=RngSpec(17), chunk_size=1 << 15)
        serial = run_timeline(alice, bob, workers=1, **kwargs)
        threaded = run_timeline(alice, bob, workers=4, **kwargs)
        for field in ("emission_time", "hidden_angle", "a_v", "b_v", "a_m", "b_m", "alpha", "beta"):
            assert np.array_equal(getattr(serial, field), getattr(threaded, field))

    def test_bit_identical_across_runs(self):
        alice, bob = aspect_stations()
        a = run_timeline(alice, bob, 50_000, 1e-3, RngSpec(18))
        b = run_timeline(alice, bob, 50_000, 1e-3, RngSpec(18))
        assert np.array_equal(a.hidden_angle, b.hidden_angle)
        assert np.array_equal(a.alpha, b.alpha)

    def test_records_sorted_by_emission_time(self):
        alice, bob = aspect_stations()
        t = run_timeline(alice, bob, 50_000, 1e-3, RngSpec(19), chunk_size=1 << 14)
        assert np.all(np.diff(t.emission_time) >= 0)


class TestWindows:
    """Chunk i owns the time window [duration*i/n, duration*(i+1)/n)."""

    def test_uniform_window_counts_and_times(self):
        alice, bob = aspect_stations()
        n, duration, chunk = 100_000, 1e-3, 4096  # 25 windows
        t = run_timeline(alice, bob, n, duration, RngSpec(40), chunk_size=chunk)
        n_chunks = math.ceil(n / chunk)
        edges = duration * np.arange(n_chunks + 1) / n_chunks
        counts, _ = np.histogram(t.emission_time, bins=edges)
        assert len(t) == n and counts.sum() == n
        assert stats.chisquare(counts).pvalue > 1e-3  # equally likely windows
        flat = stats.uniform(loc=0.0, scale=duration)
        assert stats.kstest(t.emission_time, flat.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("emission", ["uniform", "poisson"])
    def test_records_in_emission_order_at_any_worker_count(self, emission):
        alice, bob = aspect_stations()
        kwargs = dict(n_pairs=50_000, duration=1e-3, rng=RngSpec(41), emission=emission,
                      chunk_size=4096)  # 13 windows, so 12 chunk boundaries
        runs = [run_timeline(alice, bob, workers=w, **kwargs) for w in (1, 2, 3)]
        for t in runs:
            assert np.all(np.diff(t.emission_time) >= 0)
            for name in COLUMNS:
                assert np.array_equal(getattr(t, name), getattr(runs[0], name)), name

    @pytest.mark.parametrize("emission", ["uniform", "grid", "poisson"])
    def test_sorted_by_time_keeps_the_run_as_it_is(self, emission):
        alice, bob = aspect_stations()
        t = run_timeline(alice, bob, 30_000, 1e-3, RngSpec(42), emission=emission,
                         chunk_size=4096, workers=2)
        s = t.sorted_by_time()
        for name in COLUMNS:
            assert np.array_equal(getattr(s, name), getattr(t, name)), name

    # sha256 of the records (every line after the provenance header) of
    # export-trials --emission grid as written by version 0.1.0: the time
    # windows changed the uniform and poisson streams, not the grid stream
    GRID_DIGESTS = {
        None: "c1c271a94f3744784349e70aa6f831b684666844a6fbb48b35e16aee86592dff",
        4096: "c55e6d3f9669fbecabf055f1ee1d52b6bab846434871bd26647ac03fc662ade6",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [None, 4096])
    def test_grid_export_bytes_are_unchanged(self, chunk_size, workers, tmp_path, monkeypatch):
        if chunk_size is not None:
            monkeypatch.setattr(cli, "run_timeline",
                                functools.partial(run_timeline, chunk_size=chunk_size))
        path = tmp_path / "grid.jsonl"
        assert cli.main(["export-trials", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz",
                         "--round-trip", "43ns", "--pairs", "20000", "--emission", "grid",
                         "--workers", str(workers), "--seed", "7", "--output", str(path)]) == 0
        _header, records = path.read_bytes().split(b"\n", 1)
        assert hashlib.sha256(records).hexdigest() == self.GRID_DIGESTS[chunk_size]

    def test_export_header_carries_the_package_version(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert cli.main(["export-trials", "--pairs", "10", "--output", str(path)]) == 0
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header["provenance"]["version"] == bellsim.__version__


class TestPreallocatedColumns:
    """Chunks write their slices of columns allocated once; no concat copy."""

    # sha256 of the records (``_records_digest``) as the concatenating engine
    # of version 0.3.0 wrote them
    DIGESTS = {
        "uniform_sparse": "25fec723781b98e1016c77e273934e3049ddefc2840221bdf7170b74589df53f",
        "poisson_sparse": "679f453691ae9804285fafde6483da3892abcd89d25c02c0e31e701daab927ab",
        "grid": "163c3f7ef1057924e4889f122c2deb2e2fcdf33fa0a3afd0424fcd8e349c2f66",
        "poisson": "d5af5278ca0d6c6b65edccfa3c31c9bc76bd2f46f06f543602a48b4a206782fe",
    }
    RUNS = {
        # one pair per window on average: many windows hold no record
        "uniform_sparse": dict(n_pairs=40, duration=1e-6, rng=RngSpec(70), emission="uniform",
                               chunk_size=1),
        "poisson_sparse": dict(n_pairs=12, duration=1e-6, rng=RngSpec(71), emission="poisson",
                               chunk_size=1),
        "grid": dict(n_pairs=30_000, duration=1e-3, rng=RngSpec(72), emission="grid",
                     chunk_size=4096),
        "poisson": dict(n_pairs=30_000, duration=1e-3, rng=RngSpec(72), emission="poisson",
                        chunk_size=4096),
    }

    @pytest.mark.parametrize("run", list(RUNS))
    def test_records_at_any_worker_count(self, run):
        alice, bob = aspect_stations()
        for workers in (1, 2, 3):
            t = run_timeline(alice, bob, workers=workers, **self.RUNS[run])
            assert _records_digest(t) == self.DIGESTS[run], workers

    @pytest.mark.parametrize("run", ["uniform_sparse", "poisson_sparse"])
    def test_windows_without_records(self, run):
        alice, bob = aspect_stations()
        kwargs = self.RUNS[run]
        t = run_timeline(alice, bob, **kwargs)
        n_chunks = kwargs["n_pairs"]  # chunk_size 1: one window per (expected) pair
        edges = kwargs["duration"] * np.arange(n_chunks + 1) / n_chunks
        counts, _ = np.histogram(t.emission_time, bins=edges)
        assert counts.sum() == len(t) and np.any(counts == 0)
        assert np.all(np.diff(t.emission_time) >= 0)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["uniform", "grid", "poisson"]), st.integers(1, 400),
           st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_any_worker_count_gives_the_serial_columns(self, emission, n_pairs, chunk_size,
                                                       seed):
        # small chunks over few pairs: many windows hold one record or none
        alice, bob = aspect_stations()
        kwargs = dict(n_pairs=n_pairs, duration=1e-6, rng=RngSpec(seed), emission=emission,
                      chunk_size=chunk_size)
        serial = run_timeline(alice, bob, workers=1, **kwargs)
        for workers in (2, 3):
            t = run_timeline(alice, bob, workers=workers, **kwargs)
            assert np.array_equal(t.settings, serial.settings)
            for name in COLUMNS:
                column = getattr(t, name)
                assert column.dtype == getattr(serial, name).dtype, (workers, name)
                assert np.array_equal(column, getattr(serial, name)), (workers, name)

    def test_multi_chunk_run_does_not_concatenate(self, monkeypatch):
        def refuse(cls, parts):
            raise AssertionError("run_timeline concatenated its chunks")

        monkeypatch.setattr(Trials, "concat", classmethod(refuse))
        alice, bob = aspect_stations()
        for workers in (1, 2):
            t = run_timeline(alice, bob, workers=workers, **self.RUNS["poisson"])
            assert _records_digest(t) == self.DIGESTS["poisson"]

    def test_more_threads_than_cores_write_their_own_slices(self, monkeypatch):
        # 8 threads on short switch intervals: a slice written at the wrong
        # offset, or lost, changes the records
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        alice, bob = aspect_stations()
        kwargs = dict(n_pairs=20_000, duration=1e-3, rng=RngSpec(75), chunk_size=512)
        serial = _records_digest(run_timeline(alice, bob, workers=1, **kwargs))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                t = run_timeline(alice, bob, workers=8, **kwargs)
                assert _records_digest(t) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_column_dtypes_match_a_single_chunk_run(self):
        alice, bob = aspect_stations()
        single = run_timeline(alice, bob, 1_000, 1e-3, RngSpec(73))
        multi = run_timeline(alice, bob, 1_000, 1e-3, RngSpec(73), chunk_size=64, workers=2)
        for name in COLUMNS:
            assert getattr(multi, name).dtype == getattr(single, name).dtype, name
            assert getattr(multi, name).flags.c_contiguous, name
        assert sum(getattr(multi, name).itemsize for name in COLUMNS) == 22

    def test_records_are_held_once(self):
        # numpy reports its allocations to tracemalloc: at the peak a run
        # holds its columns and the temporaries of one chunk, not a second
        # copy of every record
        alice, bob = aspect_stations()
        n = 200_000
        tracemalloc.start()
        try:
            t = run_timeline(alice, bob, n, 1e-3, RngSpec(74), chunk_size=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(t) == n
        assert peak < 1.5 * 22 * n


def _records_digest(t: Trials) -> str:
    """sha256 over every record column, in ``COLUMNS`` order, and the settings table."""
    h = hashlib.sha256()
    for name in COLUMNS:
        h.update(np.ascontiguousarray(getattr(t, name)).tobytes())
    h.update(np.ascontiguousarray(t.settings).tobytes())
    return h.hexdigest()


# --- scratch arenas ------------------------------------------------------------


def _scratch_stations(kind: str) -> tuple[StationConfig, StationConfig]:
    alice, bob = aspect_stations()
    if kind == "still":
        alice = StationConfig(alice.setting_1, alice.setting_2, 0.0, math.pi, ROUND_TRIP)
    elif kind == "random":
        alice = StationConfig.random_choice(alice.setting_1, alice.setting_2)
        bob = StationConfig.random_choice(bob.setting_1, bob.setting_2)
    return alice, bob


def _scratch_runs() -> dict:
    """Name -> run(seed) of every kernel path that takes a scratch arena:
    timelines of one chunk and of several (2 workers) for each emission and
    station kind, the flat-angle singles path, and the other samplers."""
    runs = {}
    for emission in ("uniform", "grid", "poisson"):
        for kind in ("periodic", "still", "random"):
            for chunks, kwargs in (("one", {}), ("several", dict(chunk_size=700, workers=2))):
                for out, records in (("timeline", True), ("tally", False)):
                    runs[f"{out}/{emission}/{kind}/{chunks}"] = (
                        lambda seed, e=emission, k=kind, kw=kwargs, r=records: run_timeline(
                            *_scratch_stations(k), 3000, 1e-4, RngSpec(seed), emission=e,
                            records=r, **kw))
    for pbs in ((True, False), (False, True)):
        runs[f"timeline/singles/{pbs}"] = lambda seed, p=pbs: run_timeline(
            *aspect_stations(), 3000, 1e-4, RngSpec(seed), pbs=p)
    mixture = HvMixture(((0.3, 0.25), (-0.4, 0.25)), 0.5)
    runs["sample_lambda"] = lambda seed: sample_lambda(mixture, RngSpec(seed).generator(), 3000)
    runs["run_static"] = lambda seed: run_static(0.0, math.pi / 8, mixture, 3000, RngSpec(seed))
    for pbs in ((True, True), (False, True)):
        runs[f"choice/{pbs}"] = lambda seed, p=pbs: run_choice_trials(
            STANDARD_QUAD, mix_fractions(0.9, 0.8), 3000, RngSpec(seed), pbs=p)
    return runs


SCRATCH_RUNS = _scratch_runs()
SCRATCH_SEEDS = (96, 97)


def _result_digest(result) -> str:
    if isinstance(result, Trials):
        return _records_digest(result)
    if isinstance(result, montecarlo.Tally):
        return repr((result.counts.tolist(), result.settings.tolist()))
    if isinstance(result, np.ndarray):
        return hashlib.sha256(result.tobytes()).hexdigest()
    return repr((result.value, result.std_error, result.n_trials))


def _scratch_digests() -> dict:
    """Digest of every ``SCRATCH_RUNS`` run at each seed; the reference
    that a fresh interpreter computes."""
    return {f"{name}@{seed}": _result_digest(run(seed))
            for name, run in SCRATCH_RUNS.items() for seed in SCRATCH_SEEDS}


@pytest.fixture(scope="module")
def fresh_process_digests():
    # this file's runs, evaluated by an interpreter that has run nothing else
    code = ("import json, runpy, sys; "
            "print(json.dumps(runpy.run_path(sys.argv[1])['_scratch_digests']()))")
    package_root = str(Path(bellsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root,
                                                                    os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, __file__], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestScratchArenas:
    """Chunks keep their temporaries in pooled arenas; no result is one."""

    @pytest.mark.parametrize("name", list(SCRATCH_RUNS))
    def test_no_result_aliases_scratch(self, name, fresh_process_digests):
        # a result that were an arena view would be overwritten by the next run
        run = SCRATCH_RUNS[name]
        first_seed, second_seed = SCRATCH_SEEDS
        first = run(first_seed)
        before = _result_digest(first)
        second = run(second_seed)
        assert _result_digest(first) == before == fresh_process_digests[f"{name}@{first_seed}"]
        assert _result_digest(second) == fresh_process_digests[f"{name}@{second_seed}"]
        for result in (first, second):
            columns = ([getattr(result, c) for c in COLUMNS] if isinstance(result, Trials)
                       else [result.counts, result.settings]
                       if isinstance(result, montecarlo.Tally)
                       else [result] if isinstance(result, np.ndarray) else [])
            for column in columns:
                for arena in montecarlo._ARENAS:
                    for buf in arena.buffers.values():
                        assert not np.shares_memory(column, buf), name

    # numpy reports its data buffers to tracemalloc: once the arena has grown,
    # a 1e5-pair single-chunk run allocates its columns and little else
    # (version 0.6.0: 21.0 and 29.1 bytes per pair; 0.6.2: 0.2, 4.1 and 4.1,
    # a singles run's flat-pair indices of one tile)
    @pytest.mark.parametrize("pbs, bound", [((True, True), 12.0), ((False, True), 20.0),
                                            ((True, False), 6.0)])
    def test_allocation_budget_per_pair(self, pbs, bound, monkeypatch):
        monkeypatch.setattr(montecarlo, "_ARENAS", [])
        alice, bob = aspect_stations()
        n = 100_000
        run_timeline(alice, bob, n, 1e-3, RngSpec(98), pbs=pbs)
        tracemalloc.start()
        try:
            t = run_timeline(alice, bob, n, 1e-3, RngSpec(99), pbs=pbs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(getattr(t, name).nbytes for name in COLUMNS)
        assert len(t) == n
        assert (peak - columns) / n <= bound

    def test_pool_and_arenas_stay_bounded(self, monkeypatch):
        pool = []
        monkeypatch.setattr(montecarlo, "_ARENAS", pool)
        alice, bob = aspect_stations()
        for workers in (1, 2, 3):
            run_timeline(alice, bob, 20_000, 1e-3, RngSpec(100), workers=workers, chunk_size=2048)
            assert 1 <= len(pool) <= min(workers, os.cpu_count() or 1)
        # chunks of the default size, and an unchunked run larger than an arena keeps
        run_timeline(alice, bob, 3 * montecarlo.DEFAULT_CHUNK + 1, 1e-3, RngSpec(101), workers=2)
        run_static(0.0, math.pi / 8, TILE_MIXTURE, 2 * montecarlo.DEFAULT_CHUNK + 1, RngSpec(102))
        assert 1 <= len(pool) <= min(3, os.cpu_count() or 1)
        for arena in pool:
            sizes = [buf.nbytes for buf in arena.buffers.values()]
            assert 0 < sum(sizes) <= 30 * 2 * montecarlo.DEFAULT_CHUNK
            # no buffer kept from the oversized static run: at most 8 bytes a record
            assert max(sizes) <= 8 * 2 * montecarlo.DEFAULT_CHUNK
            # tile-sized roles, and one byte a record of the largest chunk kept
            assert sum(sizes) <= 26 * montecarlo._TILE + 2 * montecarlo.DEFAULT_CHUNK

    def test_worker_invariance_as_arenas_grow_and_shrink(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_ARENAS", [])
        alice, bob = aspect_stations()
        # (pairs, chunk size, polarizers): arenas grow, shrink back and grow again
        runs = [(2_000, 512, (True, True)), (30_000, 8192, (True, False)),
                (5_000, 1024, (True, True)), (40_000, 16384, (False, True)),
                (300, 64, (True, True)), (20_000, 4096, (True, False))]
        for k, (n, chunk, pbs) in enumerate(runs):
            digests = {_records_digest(run_timeline(alice, bob, n, 1e-3, RngSpec(103, k), pbs=pbs,
                                                    workers=w, chunk_size=chunk))
                       for w in (1, 2, 3)}
            assert len(digests) == 1, (n, chunk, pbs)


# --- tally runs ----------------------------------------------------------------


def _tally_stations(kind: str) -> tuple[StationConfig, StationConfig]:
    """Periodic waves with phases and unequal round trips, still waves,
    random stations in sync with p != 0.5, or a periodic Alice and a random Bob."""
    q = STANDARD_QUAD
    periodic = (StationConfig(q.a, q.a_alt, 46.2e6, 0.7, 20e-9),
                StationConfig(q.b, q.b_alt, 48.4e6, 2.1, 43e-9))
    random = (StationConfig(q.a, q.a_alt, switching="random", sync_probability=0.9),
              StationConfig(q.b, q.b_alt, switching="random", sync_probability=0.2))
    return {"periodic": periodic,
            "still": (StationConfig(q.a, q.a_alt, 0.0, math.pi, 20e-9),
                      StationConfig(q.b, q.b_alt, 0.0, 0.0, 43e-9)),
            "random": random,
            "mixed": (periodic[0], random[1])}[kind]


def _draw_order_counts(alice, bob, n, duration, spec, emission, pbs, chunk, weights):
    """The counts of a tally run whose uniform or Poisson times stay in draw
    order, rebuilt window by window from the module's own pieces."""
    rate = n / duration
    n_chunks = max(1, math.ceil((rate * duration if emission == "poisson" else n) / chunk))
    gens = [spec.child(i) for i in range(n_chunks)]
    windows = [(duration * i / n_chunks, duration * (i + 1) / n_chunks) for i in range(n_chunks)]
    if emission == "uniform":
        sizes = spec.child().multinomial(n, np.full(n_chunks, 1.0 / n_chunks))
    else:
        sizes = [gen.poisson(rate * (w1 - w0)) for gen, (w0, w1) in zip(gens, windows)]
    settings = np.array([alice.settings, bob.settings])
    counts = np.zeros(16, dtype=np.int64)
    for gen, (w0, w1), size in zip(gens, windows, sizes):
        part = montecarlo._allocate(int(size), settings)
        times = part.emission_time
        gen.random(out=times)
        times *= w1 - w0
        times += w0  # no sort
        with montecarlo._scratch() as arena:
            montecarlo._station_indices(alice, gen, times, part.a_v_idx, part.a_m_idx, arena)
            montecarlo._station_indices(bob, gen, times, part.b_v_idx, part.b_m_idx, arena)
            montecarlo._simulate(part, weights, pbs, gen, arena, False)
            counts += montecarlo._count((part.a_m_idx, part.b_m_idx), (part.alpha, part.beta),
                                        arena)
    return counts.reshape(2, 2, 2, 2)


def _assert_tally_of_records(kind, emission, pbs, n, chunk, workers, seed) -> None:
    """A tally run counts what its records run holds where both draw alike
    (a grid, or no station reading a time); a timed uniform or Poisson tally
    run counts its pairs in draw order (``_draw_order_counts``)."""
    kwargs = dict(emission=emission, pbs=pbs, workers=workers, chunk_size=chunk,
                  station_weights=(0.3, 0.7))
    records = run_timeline(*_tally_stations(kind), n, 1e-4, RngSpec(seed), **kwargs)
    tally = run_timeline(*_tally_stations(kind), n, 1e-4, RngSpec(seed), records=False, **kwargs)
    assert isinstance(tally, montecarlo.Tally)
    assert tally.counts.shape == (2, 2, 2, 2)
    if emission == "grid" or kind == "random":
        expected = montecarlo._tally(records)
    else:
        expected = _draw_order_counts(*_tally_stations(kind), n, 1e-4, RngSpec(seed), emission,
                                      pbs, chunk, (0.3, 0.7))
    assert tally.counts.tolist() == expected.tolist()
    assert np.array_equal(tally.settings, records.settings)
    assert len(tally) == len(records)


class TestTallyRuns:
    """``run_timeline(..., records=False)`` counts each chunk in its worker
    and returns its tally: that of the records run on a grid or without
    timed stations, else that of its pairs in draw order."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["periodic", "still", "random", "mixed"]),
           st.sampled_from(["uniform", "grid", "poisson"]),
           st.sampled_from([(True, True), (True, False), (False, True)]),
           # one chunk; chunks that end inside a tile; many small chunks
           st.sampled_from([(40_000, montecarlo.DEFAULT_CHUNK), (150_000, 70_001),
                            (3_000, 700), (300, 7)]),
           st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_counts_are_the_tally_of_the_records_run(self, kind, emission, pbs, sizes, workers,
                                                      seed):
        _assert_tally_of_records(kind, emission, pbs, *sizes, workers, seed)

    def test_counts_hold_as_arenas_grow_and_shrink(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_ARENAS", [])
        # (kind, emission, polarizers, pairs, chunk size): records runs and tally
        # runs alternate on the same arenas as their chunks grow, shrink and grow
        runs = [("periodic", "uniform", (True, True), 2_000, 512),
                ("mixed", "poisson", (True, False), 150_000, 70_001),
                ("random", "grid", (True, True), 5_000, 1024),
                ("still", "uniform", (False, True), 40_000, 16384),
                ("periodic", "grid", (True, True), 300, 64),
                ("random", "poisson", (True, False), 20_000, 4096)]
        for k, (kind, emission, pbs, n, chunk) in enumerate(runs):
            for workers in (1, 2, 3):
                _assert_tally_of_records(kind, emission, pbs, n, chunk, workers, 110 + k)

    def test_untimed_grid_chunks_skip_their_times(self, monkeypatch):
        # no station reads a time: a tally chunk fills no grid times
        filled = []

        def arange(*args, **kwargs):
            filled.append(kwargs.get("dtype") is np.float64)
            return numpy_arange(*args, **kwargs)

        numpy_arange = np.arange
        monkeypatch.setattr(np, "arange", arange)
        for records in (False, True):
            run_timeline(*_tally_stations("random"), 5_000, 1e-4, RngSpec(112), emission="grid",
                         chunk_size=1024, records=records)
            assert any(filled) is records
            filled.clear()

    def test_pool_arenas_and_measurement_memory_stay_bounded(self, monkeypatch):
        pool = []
        monkeypatch.setattr(montecarlo, "_ARENAS", pool)
        alice, bob = aspect_stations()
        for workers in (1, 2, 3):
            run_timeline(alice, bob, 20_000, 1e-3, RngSpec(113), workers=workers, chunk_size=2048,
                         records=False)
            assert 1 <= len(pool) <= min(workers, os.cpu_count() or 1)
        # grid chunks of as many records as an arena keeps, and of one more
        for chunk in (montecarlo._ARENA_RECORDS, montecarlo._ARENA_RECORDS + 1):
            run_timeline(alice, bob, 2 * chunk, 1e-3, RngSpec(114), emission="grid",
                         chunk_size=chunk, workers=2, records=False)
        measure_bell(STANDARD_QUAD, 1_000_000, RngSpec(115), stations=(alice, bob), workers=2)
        table = np.array([alice.settings, bob.settings])
        for arena in pool:  # every chunk of a default run fits, whichever arena it takes
            arena.records(montecarlo.DEFAULT_CHUNK, table)
        peaks = []
        for n in (1_000_000, 4_000_000):
            tracemalloc.start()
            try:
                measure_bell(STANDARD_QUAD, n, RngSpec(116), stations=(alice, bob), workers=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 1 <= len(pool) <= min(3, os.cpu_count() or 1)
        for arena in pool:
            held = sum(buf.nbytes for buf in arena.buffers.values())
            assert held <= 26 * montecarlo._TILE + 15 * montecarlo._ARENA_RECORDS
        # no measurement holds its runs' records: 4x the pairs, the same peak
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


# --- tiles -------------------------------------------------------------------

TILE_MIXTURE = HvMixture(((0.3, 0.25), (-0.4, 0.25)), 0.5)


def _tile_results(kind, emission, pbs, weights, n, chunk, seed) -> list:
    """Every output the tiled kernels produce for one configuration: the
    timeline at 1 and 2 workers with its tally, the tally run's counts and
    the sync fractions, the choice run, the static estimate and a
    hidden-angle draw."""
    alice, bob = _scratch_stations(kind)
    results = []
    for workers in (1, 2):
        t = run_timeline(alice, bob, n, 1e-4, RngSpec(seed), emission=emission, pbs=pbs,
                         station_weights=weights, workers=workers, chunk_size=chunk)
        tally = run_timeline(alice, bob, n, 1e-4, RngSpec(seed), emission=emission, pbs=pbs,
                             station_weights=weights, workers=workers, chunk_size=chunk,
                             records=False)
        results += [_records_digest(t), montecarlo._tally(t).tolist(), tally.counts.tolist(),
                    repr(estimate_sync_fractions(t)) if len(t) else None]
    choice = run_choice_trials(STANDARD_QUAD, mix_fractions(0.9, 0.8), n, RngSpec(seed),
                               station_weights=weights, pbs=pbs)
    results += [_records_digest(choice), montecarlo._tally(choice).tolist(),
                repr(run_static(0.0, math.pi / 8, TILE_MIXTURE, n + 1, RngSpec(seed))),
                sample_lambda(TILE_MIXTURE, RngSpec(seed).generator(), n).tobytes()]
    return results


class TestTiles:
    """Every per-pair pass runs tile by tile; the tile size changes no byte."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["periodic", "still", "random"]),
           st.sampled_from(["uniform", "grid", "poisson"]),
           st.sampled_from([(True, True), (True, False), (False, True), (False, False)]),
           st.sampled_from([(0.5, 0.5), (0.3, 0.7), (1.0, 0.0)]),
           st.integers(1, 120) | st.integers(4000, 9000),
           st.sampled_from([50, 4096, montecarlo.DEFAULT_CHUNK]), st.integers(0, 2**32 - 1))
    def test_results_do_not_depend_on_the_tile(self, kind, emission, pbs, weights, n, chunk,
                                                seed):
        config = (kind, emission, pbs, weights, n, max(chunk, n // 8), seed)  # <= 8 chunks
        expected = _tile_results(*config)
        # tiles of 1 and 7 records only over small runs, to keep the test quick
        for tile in (1, 7, 4096, 2**30) if n <= 120 else (4096, 2**30):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(montecarlo, "_TILE", tile)
                assert _tile_results(*config) == expected, tile

    @pytest.mark.parametrize("tile", [1, 7, 4096, 2**30])
    def test_counts_do_not_depend_on_the_tile(self, tile, monkeypatch):
        gen = RngSpec(104).generator()
        n = 3_000
        columns = [gen.integers(0, 2, n).astype(np.int8) for _ in range(2)]
        clicks = [np.where(gen.random(n) < 0.3, 1, -1).astype(np.int8) for _ in range(2)]
        expected = np.bincount(montecarlo._bits(*columns, *(c > 0 for c in clicks)), minlength=16)
        monkeypatch.setattr(montecarlo, "_TILE", tile)
        assert montecarlo._count(columns, clicks).tolist() == expected.tolist()
        assert montecarlo._count(columns).tolist() == np.bincount(
            montecarlo._bits(*columns), minlength=4).tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2),
           st.sampled_from([1, montecarlo._TILE - 1, montecarlo._TILE + 1, 3 * montecarlo._TILE]),
           st.integers(0, 2**32 - 1))
    def test_counts_equal_one_bincount_of_the_whole_key(self, n_indices, n_clicks, n, seed):
        gen = np.random.default_rng(seed)
        indices = [gen.integers(0, 2, n).astype(np.int8) for _ in range(n_indices)]
        clicks = [np.where(gen.random(n) < 0.4, 1, -1).astype(np.int8) for _ in range(n_clicks)]
        bins = 1 << (n_indices + n_clicks)
        expected = np.bincount(montecarlo._bits(*indices, *(c > 0 for c in clicks)),
                               minlength=bins)
        assert montecarlo._count(indices, clicks).tolist() == expected.tolist()

    @pytest.mark.parametrize("bad", [2, 127])
    @pytest.mark.parametrize("n_clicks", [0, 2])
    def test_count_rejects_an_index_outside_zero_and_one(self, bad, n_clicks):
        # 2 puts the key above the bins; 127 wraps the int8 key below zero
        n = montecarlo._TILE + 5
        indices = [np.zeros(n, np.int8), np.ones(n, np.int8)]
        indices[0][-1] = bad
        clicks = [np.ones(n, np.int8)] * n_clicks
        with pytest.raises(ValidationError, match="setting indices other than 0 and 1"):
            montecarlo._count(indices, clicks)

    @pytest.mark.parametrize("u", [0.0, 5e-324, 2.0**-60, 5e-17, 0.5, 1.0 - 2.0**-53])
    def test_flat_angle_is_the_normalized_one_at_the_edges(self, u):
        self._assert_flat_angle_exact(np.array([u]))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_flat_angle_is_the_normalized_one(self, u):
        self._assert_flat_angle_exact(np.array([u]))

    @staticmethod
    def _assert_flat_angle_exact(u):
        expected = np.array([normalize_angle(v) for v in u * np.pi - HALF_PI])
        got = montecarlo._flat_angles(u, np.empty_like(u), np.empty(u.size, np.bool_))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("before", [0, 1, 65_537])
    @pytest.mark.parametrize("n", [0, 1, 4_096, 100_001])
    def test_advance_is_the_skipped_draws(self, before, n):
        # an absent polarizer advances the generator instead of drawing u < 1
        drawn, advanced = RngSpec(105).generator(), RngSpec(105).generator()
        for gen in (drawn, advanced):
            gen.random(before)
        drawn.random(n)
        advanced.bit_generator.advance(n)
        assert advanced.bit_generator.state == drawn.bit_generator.state
        assert np.array_equal(advanced.random(5), drawn.random(5))


class _Uniforms:
    """Stands in for a generator in ``_detect``: hands out ``values`` in order."""

    def __init__(self, values: np.ndarray) -> None:
        self.values, self.at = values, 0

    def random(self, out: np.ndarray) -> np.ndarray:
        out[:] = self.values[self.at:self.at + out.size]
        self.at += out.size
        return out


#: Offsets of a forced uniform from its pair's float64 Malus probability:
#: on it, an ulp either side, and inside and outside the float32 screen's error.
NEAR_OFFSETS = ("ulp-", "ulp+", 0.0, 1e-9, -1e-9, 2e-7, -2e-7)


def _near_uniforms(p: np.ndarray) -> np.ndarray:
    """The probabilities ``p``, pair i moved by offset i mod k of the k ``NEAR_OFFSETS``."""
    u = np.empty_like(p)
    k = len(NEAR_OFFSETS)
    for j, offset in enumerate(NEAR_OFFSETS):
        at = p[j::k]
        u[j::k] = (np.nextafter(at, -np.inf) if offset == "ulp-" else
                   np.nextafter(at, np.inf) if offset == "ulp+" else at + offset)
    return u


def _flat_detections(table_kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Alice's clicks and the float64 clicks u < cos(s - lam)**2 of pairs
    whose uniforms sit at their Malus probabilities (``_near_uniforms``),
    over several tiles: on a singles run's table (atoms and a uniform
    share), or on a uniform mixture's (no atoms)."""
    settings = np.array([[0.0, math.pi / 4], [math.pi / 8, 3 * math.pi / 8]])
    n = 3 * montecarlo._TILE + 123
    gen = RngSpec(130).generator()
    v_idx, m_idx = (gen.integers(0, 2, n).astype(np.int8) for _ in range(2))
    if table_kind == "singles":
        table = montecarlo._AtomTable.of_stations(settings, (0.5, 0.5), (True, False))
        texture = (v_idx, np.zeros(n, np.int8))
    else:
        table = montecarlo._AtomTable.of_mixture(UNIFORM_MIXTURE)
        texture = None
    lam = np.empty(n)
    arena = montecarlo._Arena()
    code = montecarlo._mixture_draw(gen, table, lam, arena, texture)
    full = lam.copy()  # lam keeps each tile's flat angles compact for _detect
    montecarlo._hidden_angles(table, code, full, arena)
    p = np.cos(settings[0][m_idx] - full) ** 2  # an atom's table entry is the same float
    u = _near_uniforms(p)
    clicks = np.empty(n, np.int8)
    montecarlo._detect(_Uniforms(u), table, lam, code, settings[0], m_idx, True, clicks, arena)
    return clicks > 0, u < p


class TestFlatScreen:
    """A flat pair's click is screened against a float32 cos**2 and decided
    in float64 within ``_FLAT_EPS`` of it: every click is the float64 one."""

    def test_screen_is_within_a_tenth_of_the_band_of_the_float64_malus(self):
        specials = np.array([-math.pi, -HALF_PI, 0.0, HALF_PI, math.pi])
        as32 = specials.astype(np.float32)
        points = np.concatenate([
            np.linspace(-math.pi, math.pi, 1 << 22), specials, as32,
            np.nextafter(as32, np.float32(np.inf)), np.nextafter(as32, np.float32(-np.inf))])
        arena = montecarlo._Arena()
        worst = 0.0
        for s in range(0, points.size, 1 << 18):
            diff = points[s:s + (1 << 18)]
            # setting 0 against the hidden angle -diff: the difference is diff exactly
            screened = np.empty(diff.size)
            montecarlo._flat_screen(np.zeros(1), np.zeros(diff.size, np.int8), -diff, screened,
                                    arena)
            exact = montecarlo._malus(np.zeros(diff.size), -diff)
            worst = max(worst, float(np.max(np.abs(screened - exact))))
        assert worst < montecarlo._FLAT_EPS / 10, worst

    @pytest.mark.parametrize("table_kind", ["singles", "uniform"])
    def test_clicks_at_the_probability_are_the_float64_ones(self, table_kind):
        got, expected = _flat_detections(table_kind)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("table_kind", ["singles", "uniform"])
    def test_the_forced_uniforms_reach_the_fallback(self, table_kind, monkeypatch):
        # without the float64 fallback the screen alone decides, and misses
        monkeypatch.setattr(montecarlo, "_FLAT_EPS", -1.0)
        got, expected = _flat_detections(table_kind)
        assert not np.array_equal(got, expected)


class TestStreamDigests:
    """Fixed-seed record streams as written by versions 0.2.0, 0.3.0 and 0.4.0;
    the singles runs (one side's flat hidden angles) as written by 0.6.0,
    whose angle fold leaves a canonical angle unchanged; the choice run as
    written by 0.7.0, a grid timeline of two random-switching stations; the
    runs without polarizers, the runs with a still station and the flat
    hidden-angle draw as written by 0.9.2.

    A changed digest is a stream change: it bumps the package version and
    is declared, it is never re-pinned to make a kernel change pass.
    """

    TIMELINE_DIGESTS = {
        ("uniform", (True, True)):
            "75f0974d9d7bb2c4cd937fa056d41fd51669c8c8fc6ea9b8c1957ad5b040ba82",
        ("uniform", (True, False)):
            "bc95f3ab233aafc74f4f6a6d4650bfb7042219ae3af48b476531ee631e179c64",
        ("uniform", (False, True)):
            "0f5c133330a363c65d385e1390010e8b71f2ed0f81f5c9dfb0947672d487ff15",
        ("poisson", (True, True)):
            "b205c405ee62f59fa283e85e2bb979d77d5fd17b63391f4d7abea538dc722c24",
        ("poisson", (True, False)):
            "588cd50eade6c42ad9d088359d5d091e197a7cbb6ba7e662d9b6cf52d60f053e",
        ("poisson", (False, True)):
            "3fb02b1508cc161e191b8e868ea3449a366fe27c5322bc7b36d2b9a766b4da4f",
        ("uniform", (False, False)):
            "e0e524b549413d1c798cdfe960812b4c36b3026e4e295ac709c242dafbe8ce63",
        ("poisson", (False, False)):
            "b2a9877c0d5a1e8406177d5032c24201299f68428c9483af2775d2f3747c0281",
    }
    # the 1982 stations with Alice still at 4 rad (setting_2), Bob still at 0
    # (setting_1), or both still, Alice at pi and Bob at 0
    STILL_DIGESTS = {
        "alice": "f6124ffac5a7a499c2032ce47514844c4f432e30579e192917d4022b2f242780",
        "bob": "47506f61da1ada273c54dc51a99d41074b043d4f8c1da5f4037f80c7d5299c56",
        "both": "378cccefc24462c8144de6f021c4dc1062005889d0401523bb9e4a488fe18a64",
    }
    STILL_PHASES = {"alice": (4.0, None), "bob": (None, 0.0), "both": (math.pi, 0.0)}
    # sha256 of sample_lambda(UNIFORM_MIXTURE, RngSpec(64).generator(), 3 * _TILE + 5)
    UNIFORM_LAMBDA_DIGEST = "687ffa3e77f15fe3cbe8ac43b9319e494132f879f2f71f9291fb7d174491be01"
    CHOICE_DIGEST = "4b031381df17feaffbd553e74cc61e1649947a39f9c172e4a1f1969ea3e9f96b"
    # run_static(0, pi/8, q, 20000, RngSpec(62)): (value, std_error); the std errors
    # of 0.4.0 are the exact +/-1 variance, an ulp off np.std in two of three
    STATIC_ESTIMATES = (
        ("texture", (0.3541, 0.0066130814407738174)),
        ("atoms_and_uniform", (0.3737, 0.006558930284606165)),
        ("uniform", (0.3527, 0.006616821337789831)),
    )
    STATIC_MIXTURES = {
        "texture": texture_mixture([0.0, math.pi / 4]),
        "atoms_and_uniform": HvMixture(((0.3, 0.25), (-0.4, 0.25)), 0.5),
        "uniform": UNIFORM_MIXTURE,
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("emission, pbs", list(TIMELINE_DIGESTS))
    def test_timeline_columns(self, emission, pbs, workers):
        alice, bob = aspect_stations()
        t = run_timeline(alice, bob, 20_000, 1e-3, RngSpec(60), emission=emission, pbs=pbs,
                         workers=workers, chunk_size=4096)  # 5 windows
        assert _records_digest(t) == self.TIMELINE_DIGESTS[emission, pbs]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("still", list(STILL_DIGESTS))
    def test_still_station_columns(self, still, workers):
        stations = [station if phase is None else
                    replace(station, switch_frequency=0.0, switch_phase=phase)
                    for station, phase in zip(aspect_stations(), self.STILL_PHASES[still])]
        t = run_timeline(*stations, 20_000, 1e-3, RngSpec(63), workers=workers, chunk_size=4096)
        assert _records_digest(t) == self.STILL_DIGESTS[still]

    def test_uniform_mixture_hidden_angles(self):
        lam = sample_lambda(UNIFORM_MIXTURE, RngSpec(64).generator(), size=3 * montecarlo._TILE + 5)
        assert hashlib.sha256(lam.tobytes()).hexdigest() == self.UNIFORM_LAMBDA_DIGEST

    def test_choice_trial_columns(self):
        t = run_choice_trials(STANDARD_QUAD, mix_fractions(0.9, 0.9), 20_000, RngSpec(61))
        assert _records_digest(t) == self.CHOICE_DIGEST

    @pytest.mark.parametrize("mixture, expected", STATIC_ESTIMATES)
    def test_static_estimates(self, mixture, expected):
        est = run_static(0.0, math.pi / 8, self.STATIC_MIXTURES[mixture], 20_000, RngSpec(62))
        assert (est.value, est.std_error) == expected


class TestEstimators:
    def test_s_chsh_full_sync(self):
        alice, bob = standard_stations(1.0 / ROUND_TRIP, 2.0 / ROUND_TRIP)
        t = run_timeline(alice, bob, 400_000, 1e-3, RngSpec(20))
        est = estimate_s_chsh(t, STANDARD_QUAD)
        assert est.agrees_with(2 * math.sqrt(2))

    def test_s_chsh_aspect_parameters(self):
        alice, bob = aspect_stations()
        t = run_timeline(alice, bob, 1_000_000, 1e-3, RngSpec(21))
        f = (sync_fraction(46.2e6, ROUND_TRIP) + sync_fraction(48.4e6, ROUND_TRIP)) / 2
        est = estimate_s_chsh(t, STANDARD_QUAD)
        assert est.agrees_with(2 * math.sqrt(2) * f)

    def test_s_chsh_random_choice(self):
        alice = StationConfig.random_choice(STANDARD_QUAD.a, STANDARD_QUAD.a_alt)
        bob = StationConfig.random_choice(STANDARD_QUAD.b, STANDARD_QUAD.b_alt)
        t = run_timeline(alice, bob, 600_000, 1e-3, RngSpec(22))
        est = estimate_s_chsh(t, STANDARD_QUAD)
        assert est.agrees_with(math.sqrt(2))

    def test_s_chsh_needs_all_groups(self):
        alice, bob = standard_stations(0.0, 0.0)  # fixed settings: one group only
        t = run_timeline(alice, bob, 10_000, 1e-3, RngSpec(23))
        with pytest.raises(ValidationError):
            estimate_s_chsh(t, STANDARD_QUAD)

    def test_singles_marginal_is_half(self):
        alice, bob = aspect_stations()
        t = run_timeline(alice, bob, 200_000, 1e-3, RngSpec(24), pbs=(True, False))
        clicks = (t.beta == 1)
        assert np.all(clicks)  # no polarizer: every photon counted
        p = float(np.mean(t.alpha == 1))
        se = math.sqrt(p * (1 - p) / len(t))
        assert abs(p - 0.5) <= 4 * se

    def test_s_prime_full_sync(self):
        alice, bob = standard_stations(1.0 / ROUND_TRIP, 2.0 / ROUND_TRIP)
        main = run_timeline(alice, bob, 600_000, 1e-3, RngSpec(25, 10))
        a_only = run_timeline(alice, bob, 150_000, 1e-3, RngSpec(25, 11), pbs=(True, False))
        b_only = run_timeline(alice, bob, 150_000, 1e-3, RngSpec(25, 12), pbs=(False, True))
        est = estimate_s_prime(main, a_only, b_only, STANDARD_QUAD)
        assert est.agrees_with(0.20710678118654746)

    def test_s_prime_semiclassical_static(self):
        # uniform hidden angle (no texture), one static run per setting pair
        gen = RngSpec(27).generator()
        n = 400_000
        pairs = [
            (STANDARD_QUAD.a, STANDARD_QUAD.b),
            (STANDARD_QUAD.a, STANDARD_QUAD.b_alt),
            (STANDARD_QUAD.a_alt, STANDARD_QUAD.b),
            (STANDARD_QUAD.a_alt, STANDARD_QUAD.b_alt),
        ]
        values = []
        for x, y in pairs:
            lam = sample_lambda(UNIFORM_MIXTURE, gen, size=n)
            ua = gen.random(n)
            ub = gen.random(n)
            both = (ua < np.cos(x - lam) ** 2) & (ub < np.cos(y - lam) ** 2)
            values.append(float(np.mean(both)))
        s = values[0] - values[1] + values[2] + values[3] - 1.0
        se = math.sqrt(sum(v * (1 - v) / n for v in values))
        assert abs(s - (-0.14644660940672627)) <= 4 * se

    def test_s_prime_zero_normalization_error(self):
        alice, bob = aspect_stations()
        main = run_timeline(alice, bob, 50_000, 1e-3, RngSpec(28, 10))
        a_only = run_timeline(alice, bob, 5_000, 1e-3, RngSpec(28, 11), pbs=(True, False))
        b_only = run_timeline(alice, bob, 5_000, 1e-3, RngSpec(28, 12), pbs=(False, True))
        wrong_quad = ChoiceQuad(0.3, 0.9, 1.2, -0.7)
        with pytest.raises(ValidationError):
            estimate_s_prime(main, a_only, b_only, wrong_quad)


# --- the mask-based estimators of version 0.3.0, the reference for the counts ---


def _ref_mean_estimate(x):
    n = x.size
    if n < 2:
        raise ValidationError("need at least two samples for a standard error")
    return montecarlo.EstimateWithError(
        float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(n)), int(n))


def _ref_fraction_estimate(hits):
    n = hits.size
    if n < 1:
        raise ValidationError("no samples in group")
    p = float(np.mean(hits))
    return montecarlo.EstimateWithError(p, math.sqrt(p * (1.0 - p) / n), int(n))


def _ref_at_setting(idx, table, setting):
    return np.isclose(table, setting, rtol=0.0, atol=1e-12)[idx]


def _ref_setting_masks(idx, table, first, second):
    m1 = _ref_at_setting(idx, table, first)
    m2 = _ref_at_setting(idx, table, second)
    if np.any(m1 & m2):
        raise ValidationError("quad settings are not distinguishable")
    if not np.all(m1 | m2):
        raise ValidationError("records contain settings outside the quad")
    return m1, m2


def _ref_bell_sum(trials, quad, values, estimate):
    a1, a2 = _ref_setting_masks(trials.a_m_idx, trials.settings[0], quad.a, quad.a_alt)
    b1, b2 = _ref_setting_masks(trials.b_m_idx, trials.settings[1], quad.b, quad.b_alt)
    total = 0.0
    var = 0.0
    for mask, sign in ((a1 & b1, 1.0), (a1 & b2, -1.0), (a2 & b1, 1.0), (a2 & b2, 1.0)):
        if not np.any(mask):
            raise ValidationError("a measured setting pair has no records")
        est = estimate(values[mask])
        total += sign * est.value
        var += est.std_error**2
    return total, var


def _ref_s_chsh(trials, quad):
    prod = trials.alpha.astype(np.float64) * trials.beta.astype(np.float64)
    total, var = _ref_bell_sum(trials, quad, prod, _ref_mean_estimate)
    return montecarlo.EstimateWithError(abs(total), math.sqrt(var), len(trials))


def _ref_s_prime(trials, alice_only, bob_only, quad):
    both = (trials.alpha == 1) & (trials.beta == 1)
    total, var = _ref_bell_sum(trials, quad, both, _ref_fraction_estimate)
    sa_mask = _ref_at_setting(alice_only.a_m_idx, alice_only.settings[0], quad.a_alt)
    if not np.any(sa_mask):
        raise ValidationError("no singles records at Alice's alternate setting")
    sb_mask = _ref_at_setting(bob_only.b_m_idx, bob_only.settings[1], quad.b)
    if not np.any(sb_mask):
        raise ValidationError("no singles records at Bob's first setting")
    sa = _ref_fraction_estimate(alice_only.alpha[sa_mask] == 1)
    sb = _ref_fraction_estimate(bob_only.beta[sb_mask] == 1)
    total -= sa.value + sb.value
    var += sa.std_error**2 + sb.std_error**2
    return montecarlo.EstimateWithError(total, math.sqrt(var), len(trials))


def _outcome(estimator, *args):
    """(value, std_error, n_trials), or the message of the ValidationError raised."""
    try:
        est = estimator(*args)
    except ValidationError as exc:
        return str(exc)
    return est.value, est.std_error, est.n_trials


def _records(rng, a_idx, b_idx, table_a, table_b, p_click=0.5):
    """Trials with the given setting indices and random +/-1 outcomes."""
    a_idx = np.asarray(a_idx, dtype=np.int8)
    b_idx = np.asarray(b_idx, dtype=np.int8)
    n = a_idx.size

    def clicks():
        return np.where(rng.random(n) < p_click, 1, -1).astype(np.int8)

    return Trials(np.arange(n, dtype=np.float64), np.zeros(n), a_idx.copy(), b_idx.copy(),
                  a_idx, b_idx, clicks(), clicks(), np.array([table_a, table_b], dtype=float))


Q = STANDARD_QUAD
TABLES = {
    "standard": ((Q.a, Q.a_alt), (Q.b, Q.b_alt)),
    "swapped": ((Q.a_alt, Q.a), (Q.b_alt, Q.b)),
    "alice_fixed_at_a": ((Q.a, Q.a), (Q.b, Q.b_alt)),
    "bob_fixed_at_b_alt": ((Q.a, Q.a_alt), (Q.b_alt, Q.b_alt)),
    "outside": ((Q.a, 1.3), (Q.b, Q.b_alt)),
}


class TestCountEstimators:
    """The count-driven estimators equal the mask-based ones bit for bit,
    and fail with the same message first."""

    @pytest.mark.parametrize("n", [8, 9, 30, 1_000, 40_001])
    @pytest.mark.parametrize("main", list(TABLES))
    @pytest.mark.parametrize("singles", list(TABLES))
    def test_random_records(self, main, singles, n):
        rng = np.random.default_rng(n)

        def run(table):
            return _records(rng, rng.integers(0, 2, n), rng.integers(0, 2, n), *TABLES[table],
                            p_click=rng.random())

        t, a_only, b_only = run(main), run(singles), run(singles)
        assert _outcome(estimate_s_chsh, t, Q) == _outcome(_ref_s_chsh, t, Q)
        assert (_outcome(estimate_s_prime, t, a_only, b_only, Q)
                == _outcome(_ref_s_prime, t, a_only, b_only, Q))

    @pytest.mark.parametrize("sizes", [(1, 1, 1, 1), (2, 2, 2, 2), (2, 1, 3, 2), (3, 2, 2, 1),
                                       (1, 0, 2, 2), (2, 2, 0, 1), (2, 2, 2, 0), (0, 0, 0, 0)])
    @pytest.mark.parametrize("table", ["standard", "swapped"])
    def test_small_groups(self, sizes, table):
        # sizes of the (a, b), (a, b'), (a', b), (a', b') groups, records interleaved
        rng = np.random.default_rng(sum(sizes))
        pairs = np.repeat(np.arange(4), sizes)
        rng.shuffle(pairs)
        a_idx, b_idx = pairs // 2, pairs % 2
        if table == "swapped":
            a_idx, b_idx = 1 - a_idx, 1 - b_idx
        t = _records(rng, a_idx, b_idx, *TABLES[table])
        singles = _records(rng, [0, 1, 1], [1, 0, 0], *TABLES[table])
        assert _outcome(estimate_s_chsh, t, Q) == _outcome(_ref_s_chsh, t, Q)
        assert (_outcome(estimate_s_prime, t, singles, singles, Q)
                == _outcome(_ref_s_prime, t, singles, singles, Q))

    @pytest.mark.parametrize("quad, message", [
        (ChoiceQuad(0.3, 0.9, 1.2, -0.7), "records contain settings outside the quad"),
        (ChoiceQuad(Q.a, Q.b, Q.a, Q.b_alt), "quad settings are not distinguishable"),
        # Alice's ambiguous settings are found before Bob's outside ones
        (ChoiceQuad(Q.a, 0.3, Q.a, 0.4), "quad settings are not distinguishable"),
        (ChoiceQuad(Q.a, Q.b, Q.a_alt, Q.b), "quad settings are not distinguishable"),
        (ChoiceQuad(Q.a, Q.b, Q.a_alt, 0.4), "records contain settings outside the quad"),
    ])
    def test_quad_errors(self, quad, message):
        rng = np.random.default_rng(80)
        t = _records(rng, rng.integers(0, 2, 100), rng.integers(0, 2, 100), *TABLES["standard"])
        for estimator, ref, args in ((estimate_s_chsh, _ref_s_chsh, (t, quad)),
                                     (estimate_s_prime, _ref_s_prime, (t, t, t, quad))):
            assert _outcome(estimator, *args) == _outcome(ref, *args) == message

    def test_ambiguous_index_is_found_before_an_outside_one(self):
        # Alice's index 0 shows both a and a' (within 1e-12), index 1 neither
        rng = np.random.default_rng(81)
        t = _records(rng, [0, 1, 0, 1], [0, 1, 1, 0], (Q.a, 1.3), TABLES["standard"][1])
        quad = ChoiceQuad(Q.a, Q.b, Q.a + 1e-13, Q.b_alt)
        assert _outcome(estimate_s_chsh, t, quad) == _outcome(_ref_s_chsh, t, quad) == (
            "quad settings are not distinguishable")

    @pytest.mark.parametrize("a_only_idx, b_only_idx, message", [
        ([0, 0], [0, 1], "no singles records at Alice's alternate setting"),
        ([1, 0], [1, 1], "no singles records at Bob's first setting"),
        ([0, 0], [1, 1], "no singles records at Alice's alternate setting"),
        ([], [0], "no singles records at Alice's alternate setting"),
    ])
    def test_singles_errors(self, a_only_idx, b_only_idx, message):
        rng = np.random.default_rng(82)
        t = _records(rng, [0, 0, 1, 1], [0, 1, 0, 1], *TABLES["standard"])
        a_only = _records(rng, a_only_idx, a_only_idx, *TABLES["standard"])
        b_only = _records(rng, b_only_idx, b_only_idx, *TABLES["standard"])
        args = (t, a_only, b_only, Q)
        assert _outcome(estimate_s_prime, *args) == _outcome(_ref_s_prime, *args) == message

    @pytest.mark.parametrize("a_idx", [[0, 2, 1, 0], [0, -1, 1, 1], [16, 0, 1, 1]])
    def test_indices_outside_the_table_are_rejected(self, a_idx):
        t = _records(np.random.default_rng(85), a_idx, [0, 1, 0, 1], *TABLES["standard"])
        with pytest.raises(ValidationError, match="setting indices other than 0 and 1"):
            estimate_s_chsh(t, Q)
        with pytest.raises(ValidationError, match="setting indices other than 0 and 1"):
            estimate_sync_fractions(t)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_a_bad_index_in_a_later_column_is_rejected(self, bad):
        # Bob's measured index is the second column of the tally and of his
        # in-sync count; (a, b) = (0, 2) would be counted as the key of (1, 0)
        n = montecarlo._TILE + 5
        rng = np.random.default_rng(87)
        t = _records(rng, rng.integers(0, 2, n), rng.integers(0, 2, n), *TABLES["standard"])
        t.a_m_idx[-1], t.b_m_idx[-1] = 0, bad
        calls = [(montecarlo._count, ([t.a_m_idx, t.b_m_idx],)),
                 (montecarlo._count, ([t.a_m_idx, t.b_m_idx], [t.alpha, t.beta])),
                 (estimate_s_chsh, (t, Q)), (estimate_s_prime, (t, t, t, Q)),
                 (estimate_sync_fractions, (t,))]
        for call, args in calls:
            with pytest.raises(ValidationError, match="setting indices other than 0 and 1"):
                call(*args)

    @pytest.mark.parametrize("main_idx, message", [
        ([0, 0, 1], "a measured setting pair has no records"),
        ([0, 0, 1, 1], "setting indices other than 0 and 1"),
    ])
    def test_singles_are_counted_after_the_main_groups(self, main_idx, message):
        # a main run that fails its groups fails first; a singles run with a
        # bad index fails only once the main run passes
        rng = np.random.default_rng(86)
        t = _records(rng, main_idx, [0, 1, 0, 1][:len(main_idx)], *TABLES["standard"])
        bad = _records(rng, [2, 1], [0, 1], *TABLES["standard"])
        with pytest.raises(ValidationError, match=message):
            estimate_s_prime(t, bad, bad, Q)

    def test_timeline_runs(self):
        # a stepped Alice (two zero-frequency runs joined), a switching run
        # and its singles runs, as measure_bell takes them
        alice, bob = aspect_stations()
        rt = alice.round_trip_time
        steps = [StationConfig(Q.a, Q.a_alt, 0.0, j * math.pi, rt) for j in (0, 1)]
        stepped = Trials.concat([run_timeline(s, bob, 30_000, 1e-3, RngSpec(83, j))
                                 for j, s in enumerate(steps)])
        main = run_timeline(alice, bob, 300_000, 1e-3, RngSpec(84, 1), workers=2)
        a_only = run_timeline(alice, bob, 300_000, 1e-3, RngSpec(84, 2), pbs=(True, False))
        b_only = run_timeline(steps[0], bob, 30_000, 1e-3, RngSpec(84, 3), pbs=(False, True))
        for t in (stepped, main):
            assert _outcome(estimate_s_chsh, t, Q) == _outcome(_ref_s_chsh, t, Q)
            args = (t, a_only, b_only, Q)
            assert _outcome(estimate_s_prime, *args) == _outcome(_ref_s_prime, *args)
            assert not isinstance(_outcome(estimate_s_prime, *args), str)


class TestPlusMinusOneMoments:
    """The +/-1 estimator behind S and ``run_static``: the exact mean s/n and
    variance of the mean (n^2 - s^2) / (n^2 (n - 1)), correctly rounded, and
    within 4 ulp of numpy's float sums."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 100_000), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_random_samples(self, n, p_plus, seed):
        x = np.where(np.random.default_rng(seed).random(n) < p_plus, 1, -1).astype(np.int8)
        s = int(x.sum(dtype=np.int64))
        mean, var = montecarlo._pm1_moments(s, n)
        assert mean == s / n
        assert var == float(Fraction(n * n - s * s, n * n * (n - 1)))
        ref_mean = float(np.mean(x))
        ref_var = float(np.var(x, ddof=1)) / n
        assert abs(mean - ref_mean) <= 4 * math.ulp(ref_mean)
        assert abs(var - ref_var) <= 4 * math.ulp(ref_var)

    @pytest.mark.parametrize("s, n", [(0, 0), (1, 1), (-1, 1)])
    def test_needs_two_samples(self, s, n):
        with pytest.raises(ValidationError, match="at least two samples"):
            montecarlo._pm1_moments(s, n)


class TestChoiceTrials:
    def test_prescribed_fractions_are_realized(self):
        sf = mix_fractions(0.9, 0.7)
        t = run_choice_trials(STANDARD_QUAD, sf, 400_000, RngSpec(29))
        fa, fb = estimate_sync_fractions(t)
        assert fa.agrees_with(0.9)
        assert fb.agrees_with(0.7)

    def test_s_prime_tracks_closed_form(self):
        sf = mix_fractions(0.8, 0.8)
        main = run_choice_trials(STANDARD_QUAD, sf, 400_000, RngSpec(30, 10))
        a_only = run_choice_trials(STANDARD_QUAD, sf, 100_000, RngSpec(30, 11), pbs=(True, False))
        b_only = run_choice_trials(STANDARD_QUAD, sf, 100_000, RngSpec(30, 12), pbs=(False, True))
        est = estimate_s_prime(main, a_only, b_only, STANDARD_QUAD)
        assert est.agrees_with(s_prime_fc_closed(0.8))


class TestSyncProbability:
    """A random station keeps its texture-epoch setting equal to the
    measured one with its ``sync_probability`` p."""

    @staticmethod
    def _stations(p_alice: float, p_bob: float) -> tuple[StationConfig, StationConfig]:
        q = STANDARD_QUAD
        return (StationConfig(q.a, q.a_alt, switching="random", sync_probability=p_alice),
                StationConfig(q.b, q.b_alt, switching="random", sync_probability=p_bob))

    @pytest.mark.parametrize("emission", ["uniform", "grid"])
    @pytest.mark.parametrize("p_alice, p_bob", [(1.0, 0.0), (0.0, 1.0)])
    def test_certain_and_impossible_sync(self, p_alice, p_bob, emission):
        t = run_timeline(*self._stations(p_alice, p_bob), 5000, 1e-3, RngSpec(110),
                         emission=emission, chunk_size=2048)
        for v, m, p in ((t.a_v_idx, t.a_m_idx, p_alice), (t.b_v_idx, t.b_m_idx, p_bob)):
            assert np.all((v == m) == bool(p))
            assert 0 < np.count_nonzero(m) < len(t)  # a fair choice of the measured setting

    def test_fraction_agrees_with_p(self):
        t = run_timeline(*self._stations(0.3, 0.3), 200_000, 1e-3, RngSpec(111), emission="grid",
                         workers=2, chunk_size=50_000)
        for est in estimate_sync_fractions(t):
            assert est.agrees_with(0.3)


class TestHarmonicSwitching:
    def test_locked_frequencies_follow_marginal_fractions(self):
        """nu_A = 2 nu_B: sync states correlate, yet S' still follows the
        marginal fractions, at every relative phase."""
        nu_b = 30e6
        rng = np.random.default_rng(20240101)
        for k, phase in enumerate(rng.uniform(0, 2 * math.pi, size=5)):
            alice, bob = standard_stations(2 * nu_b, nu_b, phase_a=0.0, phase_b=phase)
            main = run_timeline(alice, bob, 400_000, 1e-3, RngSpec(31, k * 4))
            a_only = run_timeline(alice, bob, 150_000, 1e-3, RngSpec(31, k * 4 + 1), pbs=(True, False))
            b_only = run_timeline(alice, bob, 150_000, 1e-3, RngSpec(31, k * 4 + 2), pbs=(False, True))
            fa, fb = estimate_sync_fractions(main)
            f_hat = (fa.value + fb.value) / 2
            est = estimate_s_prime(main, a_only, b_only, STANDARD_QUAD)
            assert est.agrees_with(s_prime_fc_closed(f_hat))


class TestTrialsContainer:
    def test_record_view_and_concat(self):
        alice, bob = aspect_stations()
        t = run_timeline(alice, bob, 1_000, 1e-3, RngSpec(32))
        assert t.a_v_idx.dtype == np.int8
        assert np.array_equal(t.settings, [alice.settings, bob.settings])
        assert np.array_equal(t.a_v, t.settings[0][t.a_v_idx])
        assert np.array_equal(t.b_m, t.settings[1][t.b_m_idx])
        assert set(np.unique(t.alpha)) <= {-1, 1} and set(np.unique(t.beta)) <= {-1, 1}
        both = Trials.concat([t, t])
        assert len(both) == 2 * len(t)
        assert np.array_equal(both.a_m, np.concatenate([t.a_m, t.a_m]))

    def test_record_settings_come_from_station_settings(self):
        alice, bob = aspect_stations()
        t = run_timeline(alice, bob, 5_000, 1e-3, RngSpec(33))
        assert set(np.unique(t.a_m)) <= {STANDARD_QUAD.a, STANDARD_QUAD.a_alt}
        assert set(np.unique(t.b_v)) <= {STANDARD_QUAD.b, STANDARD_QUAD.b_alt}

    def test_concat_of_one_part_is_that_part(self):
        alice, bob = aspect_stations()
        t = run_timeline(alice, bob, 1_000, 1e-3, RngSpec(34))
        one = Trials.concat([t])
        for name in (*COLUMNS, "settings"):
            assert getattr(one, name) is getattr(t, name), name
        two = Trials.concat([t, t])
        for name in COLUMNS:
            col = getattr(two, name)
            assert np.array_equal(col, np.concatenate([getattr(t, name)] * 2)), name
            assert not np.shares_memory(col, getattr(t, name)), name
