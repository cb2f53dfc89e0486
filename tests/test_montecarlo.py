"""Stochastic validation of the event engine against the closed forms.

All statistical gates are 4 standard errors with fixed seeds, so every test
is deterministic.
"""

import math

import numpy as np
import pytest
from scipy import stats

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
from bellsim import montecarlo
from bellsim.sweep import aspect_stations

ROUND_TRIP = 43e-9
HALF_PI = math.pi / 2


class TestRngSpec:
    def test_same_spec_same_stream(self):
        a = RngSpec(7, 3).generator().random(100)
        b = RngSpec(7, 3).generator().random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngSpec(7, 0).generator().random(100)
        b = RngSpec(7, 1).generator().random(100)
        assert not np.array_equal(a, b)


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


def standard_stations(nu_a, nu_b, phase_a=0.0, phase_b=0.0):
    alice = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, nu_a, phase_a, ROUND_TRIP)
    bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, nu_b, phase_b, ROUND_TRIP)
    return alice, bob


class TestTimeline:
    def test_no_switching_keeps_settings(self):
        alice, bob = standard_stations(0.0, 0.0)
        t = run_timeline(alice, bob, 10_000, 1e-3, RngSpec(10))
        assert np.all(t.a_v == t.a_m)
        assert np.all(t.b_v == t.b_m)
        assert np.all(t.a_m == STANDARD_QUAD.a)

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
        with pytest.raises(ValidationError):
            run_timeline(alice, bob, 0, 1e-3, RngSpec(16))
        with pytest.raises(ValidationError):
            run_timeline(alice, bob, 100, 1e-3, RngSpec(16), emission="burst")


class TestWorkers:
    def test_rejects_fewer_than_one(self):
        alice, bob = aspect_stations()
        for workers in (0, -3):
            with pytest.raises(ValidationError):
                run_timeline(alice, bob, 100, 1e-3, RngSpec(20), workers=workers)

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
        rec = t.record(0)
        assert rec.alpha in (-1, 1) and rec.beta in (-1, 1)
        assert rec.a_v in (STANDARD_QUAD.a, STANDARD_QUAD.a_alt)
        both = Trials.concat([t, t])
        assert len(both) == 2 * len(t)

    def test_record_settings_come_from_station_settings(self):
        alice, bob = aspect_stations()
        t = run_timeline(alice, bob, 5_000, 1e-3, RngSpec(33))
        assert set(np.unique(t.a_m)) <= {STANDARD_QUAD.a, STANDARD_QUAD.a_alt}
        assert set(np.unique(t.b_v)) <= {STANDARD_QUAD.b, STANDARD_QUAD.b_alt}
