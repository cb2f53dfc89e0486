"""Event-level Monte Carlo engine, independent of the closed forms.

Every simulated pair follows the same sequence: a hidden polarization angle
is drawn from the texture mixture fixed by the settings one half round trip
*before* emission, the pair flies for the other half, and each station clicks
with the Malus probability of its setting *at arrival* against the shared
hidden angle.  Outcomes at the two stations are independent given the hidden
angle; any correlation beyond that factorization comes entirely from the
setting-dependence of the mixture.

Determinism: all sampling is chunked, each chunk owns an RNG stream derived
from (seed, stream_id, chunk index), and chunks are merged in index order
then stably sorted by emission time.  Results are bit-identical for any
worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .choice import ChoiceQuad, StationConfig, SyncFractions, check_station_weights
from .models import HALF_PI, HvMixture, ValidationError, normalize_angle

DEFAULT_CHUNK = 1 << 18

_ANGLE_ATOL = 1e-12


@dataclass(frozen=True)
class RngSpec:
    """Reproducible random stream identity.

    Identical (seed, stream_id) always reproduce the same samples; distinct
    stream ids give statistically independent streams.  Child streams are
    derived by extending the spawn key, never by sharing state.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return self.child()

    def child(self, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, *key)
        )
        return np.random.Generator(np.random.PCG64(seq))


def as_rng_spec(rng: "RngSpec | int") -> RngSpec:
    if isinstance(rng, RngSpec):
        return rng
    return RngSpec(int(rng))


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    n_trials: int

    def agrees_with(self, target: float, sigmas: float = 4.0) -> bool:
        return abs(self.value - target) <= sigmas * self.std_error

    def __str__(self) -> str:
        return f"{self.value:.6f} +/- {self.std_error:.6f} (n={self.n_trials})"


@dataclass(frozen=True)
class TrialRecord:
    """One simulated pair: hidden angle, settings at both epochs, outcomes."""

    emission_time: float
    hidden_angle: float
    a_v: float
    b_v: float
    a_m: float
    b_m: float
    alpha: int
    beta: int


@dataclass
class Trials:
    """Column-oriented store of simulated pairs."""

    emission_time: np.ndarray
    hidden_angle: np.ndarray
    a_v: np.ndarray
    b_v: np.ndarray
    a_m: np.ndarray
    b_m: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __len__(self) -> int:
        return int(self.emission_time.size)

    def record(self, i: int) -> TrialRecord:
        return TrialRecord(
            float(self.emission_time[i]),
            float(self.hidden_angle[i]),
            float(self.a_v[i]),
            float(self.b_v[i]),
            float(self.a_m[i]),
            float(self.b_m[i]),
            int(self.alpha[i]),
            int(self.beta[i]),
        )

    def __iter__(self) -> Iterator[TrialRecord]:
        for i in range(len(self)):
            yield self.record(i)

    @classmethod
    def concat(cls, parts: Sequence["Trials"]) -> "Trials":
        if not parts:
            raise ValidationError("cannot concatenate zero trial sets")
        cols = {
            f.name: np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(cls)
        }
        return cls(**cols)

    def sorted_by_time(self) -> "Trials":
        order = np.argsort(self.emission_time, kind="stable")
        cols = {f.name: getattr(self, f.name)[order] for f in fields(self)}
        return Trials(**cols)


def normalize_angles(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of models.normalize_angle (same fmod formula)."""
    r = np.fmod(x, np.pi)
    r = np.where(r < 0.0, r + np.pi, r)
    r = np.where(r > HALF_PI, r - np.pi, r)
    return r + 0.0


# --- sampling primitives ----------------------------------------------------


def sample_lambda(
    q: HvMixture, rng: np.random.Generator, size: int | None = None
) -> float | np.ndarray:
    """Draw hidden angles from a mixture.

    Atoms are chosen with their weights; the uniform component draws flat
    over one period.  Scalar when ``size`` is None.
    """
    m = 1 if size is None else int(size)
    angles = np.array([a for a, _ in q.atoms], dtype=np.float64)
    weights = np.array([w for _, w in q.atoms], dtype=np.float64)
    u = rng.random(m)
    if angles.size == 0:
        out = -HALF_PI + np.pi * u
    else:
        cum = np.cumsum(weights)
        idx = np.searchsorted(cum, u, side="right")
        if q.uniform_weight > 0.0:
            u2 = rng.random(m)
            flat = -HALF_PI + np.pi * u2
            out = np.where(idx < angles.size, angles[np.minimum(idx, angles.size - 1)], flat)
        else:
            out = angles[np.minimum(idx, angles.size - 1)]
    out = normalize_angles(out)
    return float(out[0]) if size is None else out


def _hidden_draw(
    rng: np.random.Generator,
    a_v: np.ndarray,
    b_v: np.ndarray,
    station_weights: tuple[float, float],
    pbs: tuple[bool, bool],
) -> np.ndarray:
    """Per-trial hidden angle: texture atoms from each present polarizer.

    A station without a polarizer leaves its share of the texture uniform.
    Consumes a fixed number of draws per trial for a given configuration.
    """
    w_a, w_b = station_weights
    cols: list[np.ndarray] = []
    probs: list[float] = []
    uniform_mass = 0.0
    if pbs[0]:
        cols += [a_v, a_v - HALF_PI]
        probs += [w_a / 2.0, w_a / 2.0]
    else:
        uniform_mass += w_a
    if pbs[1]:
        cols += [b_v, b_v - HALF_PI]
        probs += [w_b / 2.0, w_b / 2.0]
    else:
        uniform_mass += w_b

    m = a_v.size
    u = rng.random(m)
    if cols:
        stacked = np.column_stack(cols)
        cum = np.cumsum(probs)
        idx = np.searchsorted(cum, u, side="right")
        if uniform_mass > 0.0:
            u2 = rng.random(m)
            flat = -HALF_PI + np.pi * u2
            safe = np.minimum(idx, len(cols) - 1)
            lam = np.where(idx < len(cols), stacked[np.arange(m), safe], flat)
        else:
            idx = np.minimum(idx, len(cols) - 1)
            lam = stacked[np.arange(m), idx]
    else:
        lam = -HALF_PI + np.pi * u
    return normalize_angles(lam)


def _detect(
    rng: np.random.Generator, setting: np.ndarray, lam: np.ndarray, present: bool
) -> np.ndarray:
    """Draw +/-1 outcomes; an absent polarizer detects every photon."""
    if present:
        p = np.cos(setting - lam) ** 2
    else:
        p = 1.0
    u = rng.random(lam.size)
    return np.where(u < p, 1, -1).astype(np.int8)


def _station_indices(
    cfg: StationConfig, rng: np.random.Generator, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Setting index (0 or 1) at the texture epoch and at photon arrival."""
    if cfg.switching == "random":
        v = rng.integers(0, 2, size=times.size)
        m = rng.integers(0, 2, size=times.size)
        return v, m
    half = cfg.round_trip_time / 2.0
    return (
        _square_wave_index(cfg.switch_frequency, cfg.switch_phase, times - half),
        _square_wave_index(cfg.switch_frequency, cfg.switch_phase, times + half),
    )


def _square_wave_index(frequency: float, phase: float, times: np.ndarray) -> np.ndarray:
    """50%-duty square wave: 0 for the first half of each period, else 1."""
    if frequency == 0.0:
        return np.zeros(times.size, dtype=np.int64)
    frac = np.mod(times * frequency + phase / (2.0 * math.pi), 1.0)
    return (frac >= 0.5).astype(np.int64)


# --- static-mixture runs -----------------------------------------------------


def run_static(
    a: float,
    b: float,
    q: HvMixture,
    n: int,
    rng: "RngSpec | int | np.random.Generator",
) -> EstimateWithError:
    """Estimate E(a, b) for a fixed hidden-angle mixture.

    Per trial: draw the hidden angle, then independent Malus outcomes at
    each station.  Returns the mean of alpha*beta with its standard error.
    """
    if n < 1:
        raise ValidationError("need at least one trial")
    gen = rng if isinstance(rng, np.random.Generator) else as_rng_spec(rng).generator()
    lam = sample_lambda(q, gen, size=n)
    a_arr = np.full(n, normalize_angle(a))
    b_arr = np.full(n, normalize_angle(b))
    alpha = _detect(gen, a_arr, lam, True)
    beta = _detect(gen, b_arr, lam, True)
    return _mean_estimate(alpha.astype(np.float64) * beta.astype(np.float64))


# --- timeline runs ------------------------------------------------------------


def run_timeline(
    alice: StationConfig,
    bob: StationConfig,
    n_pairs: int,
    duration: float,
    rng: "RngSpec | int",
    *,
    emission: str = "uniform",
    rate: float | None = None,
    station_weights: tuple[float, float] = (0.5, 0.5),
    pbs: tuple[bool, bool] = (True, True),
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> Trials:
    """Simulate the full switching timeline.

    Emission times cover ``duration`` seconds: "uniform" draws ``n_pairs``
    independent times, "grid" spaces them evenly, "poisson" realizes a
    Poisson process of the given ``rate`` (default n_pairs/duration, so
    n_pairs becomes the expected count).  For each pair emitted at t the
    texture carries the settings at t - T/2 and the outcomes use the
    settings at t + T/2, with T the per-station round trip time.  At most
    min(workers, cpu count, chunks) threads run; the result is the same for
    any ``workers`` >= 1.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers!r}")
    if duration <= 0.0:
        raise ValidationError("duration must be > 0")
    if emission not in ("uniform", "grid", "poisson"):
        raise ValidationError(f"unknown emission mode {emission!r}")
    if emission != "poisson" and n_pairs < 1:
        raise ValidationError("need at least one pair")
    check_station_weights(station_weights)
    spec = as_rng_spec(rng)

    if emission == "poisson":
        if rate is None:
            rate = n_pairs / duration
        if rate <= 0.0:
            raise ValidationError("poisson rate must be > 0")
        n_chunks = max(1, math.ceil(rate * duration / chunk_size))
    else:
        n_chunks = max(1, math.ceil(n_pairs / chunk_size))

    def one_chunk(i: int) -> Trials:
        gen = spec.child(i)
        if emission == "uniform":
            m = min(chunk_size, n_pairs - i * chunk_size)
            times = gen.random(m) * duration
        elif emission == "grid":
            lo = i * chunk_size
            hi = min(lo + chunk_size, n_pairs)
            times = (np.arange(lo, hi, dtype=np.float64) + 0.5) * (duration / n_pairs)
        else:
            w0 = duration * i / n_chunks
            w1 = duration * (i + 1) / n_chunks
            count = int(gen.poisson(rate * (w1 - w0)))
            times = w0 + gen.random(count) * (w1 - w0)
        return _timeline_chunk(alice, bob, station_weights, pbs, times, gen)

    workers = min(workers, os.cpu_count() or 1, n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one_chunk, range(n_chunks)))
    else:
        parts = [one_chunk(i) for i in range(n_chunks)]
    return Trials.concat(parts).sorted_by_time()


def _timeline_chunk(
    alice: StationConfig,
    bob: StationConfig,
    station_weights: tuple[float, float],
    pbs: tuple[bool, bool],
    times: np.ndarray,
    gen: np.random.Generator,
) -> Trials:
    a_settings = np.array(alice.settings)
    b_settings = np.array(bob.settings)
    a_v_idx, a_m_idx = _station_indices(alice, gen, times)
    b_v_idx, b_m_idx = _station_indices(bob, gen, times)
    a_v = a_settings[a_v_idx]
    a_m = a_settings[a_m_idx]
    b_v = b_settings[b_v_idx]
    b_m = b_settings[b_m_idx]
    lam = _hidden_draw(gen, a_v, b_v, station_weights, pbs)
    alpha = _detect(gen, a_m, lam, pbs[0])
    beta = _detect(gen, b_m, lam, pbs[1])
    return Trials(times, lam, a_v, b_v, a_m, b_m, alpha, beta)


def run_choice_trials(
    quad: ChoiceQuad,
    sf: SyncFractions,
    n: int,
    rng: "RngSpec | int",
    *,
    station_weights: tuple[float, float] = (0.5, 0.5),
    pbs: tuple[bool, bool] = (True, True),
) -> Trials:
    """Per-trial choice protocol with prescribed sync fractions.

    Each trial picks the measured settings uniformly, keeps each station's
    texture-epoch setting equal to the measured one with probability f_A
    (f_B), and then proceeds exactly as the timeline: hidden angle from the
    texture-epoch mixture, Malus outcomes at the measured settings.  This
    realizes arbitrary (f_A, f_B) without modelling switching hardware.
    """
    if n < 1:
        raise ValidationError("need at least one trial")
    check_station_weights(station_weights)
    gen = as_rng_spec(rng).generator()
    a_settings = np.array([quad.a, quad.a_alt])
    b_settings = np.array([quad.b, quad.b_alt])
    a_m_idx = (gen.random(n) >= 0.5).astype(np.int64)
    b_m_idx = (gen.random(n) >= 0.5).astype(np.int64)
    a_sync = gen.random(n) < sf.f_alice
    b_sync = gen.random(n) < sf.f_bob
    a_v_idx = np.where(a_sync, a_m_idx, 1 - a_m_idx)
    b_v_idx = np.where(b_sync, b_m_idx, 1 - b_m_idx)
    a_v = a_settings[a_v_idx]
    a_m = a_settings[a_m_idx]
    b_v = b_settings[b_v_idx]
    b_m = b_settings[b_m_idx]
    lam = _hidden_draw(gen, a_v, b_v, station_weights, pbs)
    alpha = _detect(gen, a_m, lam, pbs[0])
    beta = _detect(gen, b_m, lam, pbs[1])
    times = np.arange(n, dtype=np.float64)
    return Trials(times, lam, a_v, b_v, a_m, b_m, alpha, beta)


# --- estimators ---------------------------------------------------------------


def _mean_estimate(x: np.ndarray) -> EstimateWithError:
    n = x.size
    if n < 2:
        raise ValidationError("need at least two samples for a standard error")
    return EstimateWithError(
        float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(n)), int(n)
    )


def _fraction_estimate(hits: np.ndarray) -> EstimateWithError:
    n = hits.size
    if n < 1:
        raise ValidationError("no samples in group")
    p = float(np.mean(hits))
    return EstimateWithError(p, math.sqrt(p * (1.0 - p) / n), int(n))


def _setting_masks(
    values: np.ndarray, first: float, second: float
) -> tuple[np.ndarray, np.ndarray]:
    m1 = np.isclose(values, first, rtol=0.0, atol=_ANGLE_ATOL)
    m2 = np.isclose(values, second, rtol=0.0, atol=_ANGLE_ATOL)
    if np.any(m1 & m2):
        raise ValidationError("quad settings are not distinguishable")
    if not np.all(m1 | m2):
        raise ValidationError("records contain settings outside the quad")
    return m1, m2


def estimate_sync_fractions(
    trials: Trials,
) -> tuple[EstimateWithError, EstimateWithError]:
    """Empirical per-station in-sync fractions P(setting at texture epoch == measured)."""
    fa = _fraction_estimate(trials.a_v == trials.a_m)
    fb = _fraction_estimate(trials.b_v == trials.b_m)
    return fa, fb


def estimate_s_chsh(trials: Trials, quad: ChoiceQuad) -> EstimateWithError:
    """Bell S from records grouped by measured setting pair.

    Per-group means of alpha*beta are assembled with the (+, -, +, +) sign
    pattern; errors propagate in quadrature and the result is |S|.
    """
    a1, a2 = _setting_masks(trials.a_m, quad.a, quad.a_alt)
    b1, b2 = _setting_masks(trials.b_m, quad.b, quad.b_alt)
    prod = trials.alpha.astype(np.float64) * trials.beta.astype(np.float64)
    groups = ((a1 & b1, 1.0), (a1 & b2, -1.0), (a2 & b1, 1.0), (a2 & b2, 1.0))
    total = 0.0
    var = 0.0
    for mask, sign in groups:
        if not np.any(mask):
            raise ValidationError("a measured setting pair has no records")
        est = _mean_estimate(prod[mask])
        total += sign * est.value
        var += est.std_error**2
    return EstimateWithError(abs(total), math.sqrt(var), len(trials))


def estimate_s_prime(
    trials: Trials,
    alice_only: Trials,
    bob_only: Trials,
    quad: ChoiceQuad,
) -> EstimateWithError:
    """S' from coincidence records plus the two single-polarizer runs.

    The four both-click fractions come from ``trials`` grouped by measured
    pair; the subtracted singles terms are the click fractions at Alice's
    alternate setting (Bob's polarizer absent) and at Bob's first setting
    (Alice's polarizer absent), each normalized by its own group count, the
    stand-in for the no-polarizer rate that counts every pair.
    """
    a1, a2 = _setting_masks(trials.a_m, quad.a, quad.a_alt)
    b1, b2 = _setting_masks(trials.b_m, quad.b, quad.b_alt)
    both = (trials.alpha == 1) & (trials.beta == 1)
    groups = ((a1 & b1, 1.0), (a1 & b2, -1.0), (a2 & b1, 1.0), (a2 & b2, 1.0))
    total = 0.0
    var = 0.0
    n_used = 0
    for mask, sign in groups:
        count = int(np.count_nonzero(mask))
        if count == 0:
            raise ValidationError("a measured setting pair has no records")
        est = _fraction_estimate(both[mask])
        total += sign * est.value
        var += est.std_error**2
        n_used += count

    sa_mask = np.isclose(alice_only.a_m, quad.a_alt, rtol=0.0, atol=_ANGLE_ATOL)
    if not np.any(sa_mask):
        raise ValidationError("no singles records at Alice's alternate setting")
    sb_mask = np.isclose(bob_only.b_m, quad.b, rtol=0.0, atol=_ANGLE_ATOL)
    if not np.any(sb_mask):
        raise ValidationError("no singles records at Bob's first setting")
    sa = _fraction_estimate(alice_only.alpha[sa_mask] == 1)
    sb = _fraction_estimate(bob_only.beta[sb_mask] == 1)
    total -= sa.value + sb.value
    var += sa.std_error**2 + sb.std_error**2
    return EstimateWithError(total, math.sqrt(var), n_used)
