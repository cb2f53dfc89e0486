"""Event-level Monte Carlo engine, independent of the closed forms.

Every simulated pair follows the same sequence: a hidden polarization angle
is drawn from the texture mixture fixed by the settings one half round trip
*before* emission, the pair flies for the other half, and each station clicks
with the Malus probability of its setting *at arrival* against the shared
hidden angle.  Outcomes at the two stations are independent given the hidden
angle; any correlation beyond that factorization comes entirely from the
setting-dependence of the mixture.

Determinism: all sampling is chunked, each chunk owns an RNG stream derived
from (seed, stream_id, chunk index) and a disjoint time window, and chunks
are merged in index order.  Each chunk sorts its own emission times before
any other draw, so the merged records are in emission order without a
global sort.  Results are bit-identical for any worker count.

Storage: a polarizer only ever shows one of its two settings, so ``Trials``
keeps each setting as an int8 index into a 2x2 per-station ``settings``
table and exposes the angles as read-only views (``a_v``, ``b_v``, ``a_m``,
``b_m``).  The estimators resolve the quad against that table once and
group records by index.

Kernels: no per-pair trig or modulo where the hidden angle is an atom.  A
square wave's setting index is the parity of floor(2x), x = t*nu + phi/2pi,
which is exact for any t.  With polarizers present the hidden angle takes
at most 8 values per run (each station's two settings, and each minus
pi/2); a chunk builds that table once (``_AtomTable``), draws an atom code
per pair from the slot probabilities and the stations' texture-epoch
indices, and gathers both the angle and the Malus probability (a 2x8
``cos**2`` table of measured setting by atom code) from it.  Only pairs
whose hidden angle is a flat draw (the singles runs' uniform share, or a
uniform mixture component) evaluate ``cos`` per pair.  ``run_timeline``,
``run_choice_trials``, ``run_static`` and ``sample_lambda`` share that one
sampler and detector; the random numbers and their order are those of the
per-pair formulas, so every record column is unchanged.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .choice import ChoiceQuad, StationConfig, SyncFractions, check_station_weights
from .models import HALF_PI, HvMixture, ValidationError, normalize_angle

DEFAULT_CHUNK = 1 << 18

#: Beyond 2**52 periods a float64 t*frequency + phase/2pi has no fractional
#: part, so a square wave can no longer resolve its half periods.
_MAX_PERIODS = 2.0**52

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


@dataclass
class Trials:
    """Column-oriented store of simulated pairs; settings are int8 indices
    into ``settings`` (row 0 Alice's two settings, row 1 Bob's)."""

    emission_time: np.ndarray
    hidden_angle: np.ndarray
    a_v_idx: np.ndarray
    b_v_idx: np.ndarray
    a_m_idx: np.ndarray
    b_m_idx: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    settings: np.ndarray

    # read-only angle views of the indices
    a_v = property(lambda self: self.settings[0][self.a_v_idx])
    b_v = property(lambda self: self.settings[1][self.b_v_idx])
    a_m = property(lambda self: self.settings[0][self.a_m_idx])
    b_m = property(lambda self: self.settings[1][self.b_m_idx])

    def __len__(self) -> int:
        return int(self.emission_time.size)

    @classmethod
    def concat(cls, parts: Sequence["Trials"]) -> "Trials":
        """Records of ``parts`` in order, on their one settings table.  A
        single part is returned as is."""
        if not parts:
            raise ValidationError("cannot concatenate zero trial sets")
        if len(parts) == 1:
            return parts[0]
        table = parts[0].settings
        if any(not np.array_equal(p.settings, table) for p in parts):
            raise ValidationError("cannot concatenate trial sets on different settings tables")
        cols = {name: np.concatenate([getattr(p, name) for p in parts]) for name in _RECORD_COLUMNS}
        return cls(**cols, settings=table)

    def sorted_by_time(self) -> "Trials":
        order = np.argsort(self.emission_time, kind="stable")
        cols = {name: getattr(self, name)[order] for name in _RECORD_COLUMNS}
        return Trials(**cols, settings=self.settings)


_RECORD_COLUMNS = tuple(f.name for f in fields(Trials) if f.name != "settings")


def normalize_angles(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of models.normalize_angle (same fmod formula).

    Each fold adds 0 or pi, the same floats as branching but without a
    data-dependent choice per element.
    """
    r = np.fmod(x, np.pi)
    r += (r < 0.0) * np.pi
    r -= (r > HALF_PI) * np.pi
    r += 0.0
    return r


# --- sampling primitives ----------------------------------------------------


@dataclass(frozen=True)
class _AtomTable:
    """Every hidden angle a run's atoms can give, indexed by an atom code.

    A pair in texture state ``s`` picks slot j with probability ``probs[j]``
    and takes the atom ``codes[s, j]``; ``angles`` holds each code's
    normalized angle.  With a ``uniform`` component the last slot of every
    state is the code ``flat``: the pair picked no atom and draws a flat
    angle (``angles[flat]`` is nan).
    """

    angles: np.ndarray
    probs: tuple[float, ...]
    codes: np.ndarray
    uniform: bool

    @property
    def flat(self) -> int:
        return self.angles.size - 1

    @classmethod
    def build(cls, raw: Sequence[float], probs: Sequence[float], uniform: bool,
              codes: Sequence[Sequence[int]]) -> "_AtomTable":
        angles = np.append(normalize_angles(np.array(raw, dtype=np.float64)), np.nan)
        dtype = np.min_scalar_type(-2 * angles.size)  # holds (setting, code) keys too
        rows = [list(row) + [angles.size - 1] * uniform for row in codes]
        return cls(angles, tuple(probs), np.array(rows, dtype=dtype), uniform)

    @classmethod
    def of_mixture(cls, q: HvMixture) -> "_AtomTable":
        """One state; slot j is the mixture's atom j."""
        k = len(q.atoms)
        return cls.build([a for a, _ in q.atoms], [w for _, w in q.atoms],
                         q.uniform_weight > 0.0, [range(k)])

    @classmethod
    def of_stations(cls, settings: np.ndarray, station_weights: tuple[float, float],
                    pbs: tuple[bool, bool]) -> "_AtomTable":
        """State 2*a_v + b_v; each present polarizer contributes the slots of
        its texture-epoch setting s and of s - pi/2, weight w/2 each.  The
        code of station st, setting index j and that pi/2 shift h is 4*st + 2*j + h."""
        raw = [v - h * HALF_PI for row in settings.tolist() for v in row for h in (0, 1)]
        slots = [(st, h) for st in (0, 1) if pbs[st] for h in (0, 1)]
        probs = [station_weights[st] / 2.0 for st, _ in slots]
        uniform = sum(w for present, w in zip(pbs, station_weights) if not present) > 0.0
        codes = [[4 * st + 2 * (state >> (1 - st) & 1) + h for st, h in slots]
                 for state in range(4)]
        return cls.build(raw, probs, uniform, codes)


def sample_lambda(
    q: HvMixture, rng: np.random.Generator, size: int | None = None
) -> float | np.ndarray:
    """Draw hidden angles from a mixture.

    Atoms are chosen with their weights; the uniform component draws flat
    over one period.  Scalar when ``size`` is None.
    """
    m = 1 if size is None else int(size)
    out, _, _ = _mixture_draw(rng, _AtomTable.of_mixture(q), m)
    return float(out[0]) if size is None else out


def _mixture_draw(
    rng: np.random.Generator, table: _AtomTable, m: int, state: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | slice | None]:
    """The one hidden-angle sampler: (angles, atom codes, flat pairs) of ``m`` pairs.

    A first draw per pair picks a slot by ``table.probs`` (in the pair's
    ``state``; one state when None); with a uniform component a second draw
    gives the flat angle of pairs that pick none.  Without atoms the first
    draw is the flat angle.  Flat pairs are listed by index (``slice(None)``
    when every pair is flat), None when no pair can be flat.
    """
    u = rng.random(m)
    if not table.probs:
        lam = normalize_angles(-HALF_PI + np.pi * u)
        return lam, np.full(m, table.flat, dtype=table.codes.dtype), slice(None)
    n_slots = table.codes.shape[1]
    # searchsorted(cumsum(probs), u, "right") by one comparison pass per
    # threshold; without a uniform component the last threshold is left
    # out, which clamps to the last atom
    slot = np.zeros(m, dtype=table.codes.dtype)
    for c in np.cumsum(table.probs)[: n_slots - 1]:
        slot += u >= c
    code = table.codes.ravel()[slot if state is None else state * n_slots + slot]
    lam = table.angles[code]
    if not table.uniform:
        return lam, code, None
    flat = np.flatnonzero(code == table.flat)  # indices gather faster than a mask
    lam[flat] = normalize_angles(-HALF_PI + np.pi * rng.random(m)[flat])
    return lam, code, flat


def _detect(
    rng: np.random.Generator,
    table: _AtomTable,
    hidden: tuple[np.ndarray, np.ndarray, np.ndarray | slice | None],
    settings: np.ndarray,
    setting_idx: np.ndarray,
    present: bool,
) -> np.ndarray:
    """Draw +/-1 outcomes at ``settings[setting_idx]`` against the ``hidden``
    angles of ``_mixture_draw``; an absent polarizer detects every photon.

    Atom pairs gather their Malus probability from a (setting, atom code)
    table; only pairs with a flat hidden angle evaluate cos per pair.
    """
    lam, code, flat = hidden
    u = rng.random(lam.size)
    if not present:
        return np.ones(lam.size, dtype=np.int8)  # u < 1 always
    if not table.probs:  # no atoms: every hidden angle is flat
        p = np.cos(settings[setting_idx] - lam) ** 2
    else:
        malus = np.cos(settings[:, None] - table.angles) ** 2
        p = malus.ravel()[setting_idx * code.dtype.type(table.angles.size) + code]
        if flat is not None:
            p[flat] = np.cos(settings[setting_idx[flat]] - lam[flat]) ** 2
    hit = (u < p).view(np.int8)
    hit += hit
    hit -= 1
    return hit


def _station_indices(
    cfg: StationConfig, rng: np.random.Generator, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Setting index (0 or 1) at the texture epoch and at photon arrival."""
    if cfg.switching == "random":
        v = rng.integers(0, 2, size=times.size).astype(np.int8)
        m = rng.integers(0, 2, size=times.size).astype(np.int8)
        return v, m
    half = cfg.round_trip_time / 2.0
    return (
        _square_wave_index(cfg.switch_frequency, cfg.switch_phase, times - half),
        _square_wave_index(cfg.switch_frequency, cfg.switch_phase, times + half),
    )


def _square_wave_index(frequency: float, phase: float, times: np.ndarray) -> np.ndarray:
    """50%-duty square wave: 0 for the first half of each period, else 1.

    The index is the parity of floor(2x), x = t*frequency + phase/2pi,
    i.e. whether floor(2x) differs from 2*floor(x).  Both are exact, so it
    equals ``mod(x, 1) >= 0.5`` for every x, negative or beyond 2**63.  At
    frequency 0 the wave holds the level its phase picks: 0 for phases in
    [0, pi) mod 2pi, 1 for [pi, 2pi).
    """
    x = times * frequency
    x += phase / (2.0 * math.pi)
    twice = np.floor(x + x)
    np.floor(x, out=x)
    x += x
    return (twice != x).view(np.int8)


def _simulate(
    times: np.ndarray,
    settings: np.ndarray,
    indices: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    station_weights: tuple[float, float],
    pbs: tuple[bool, bool],
    gen: np.random.Generator,
) -> Trials:
    """Hidden angles and outcomes of pairs with (a_v, b_v, a_m, b_m) setting indices.

    The hidden angle comes from the texture atoms of each present polarizer
    at its texture-epoch setting; a station without a polarizer leaves its
    share of the texture uniform.
    """
    a_v, b_v, a_m, b_m = indices
    table = _AtomTable.of_stations(settings, station_weights, pbs)
    state = a_v + a_v
    state += b_v
    hidden = _mixture_draw(gen, table, times.size, state)
    alpha = _detect(gen, table, hidden, settings[0], a_m, pbs[0])
    beta = _detect(gen, table, hidden, settings[1], b_m, pbs[1])
    return Trials(times, hidden[0], a_v, b_v, a_m, b_m, alpha, beta, settings)


# --- static-mixture runs -----------------------------------------------------


def run_static(
    a: float,
    b: float,
    q: HvMixture,
    n: int,
    rng: "RngSpec | int",
) -> EstimateWithError:
    """Estimate E(a, b) for a fixed hidden-angle mixture.

    Per trial: draw the hidden angle, then independent Malus outcomes at
    each station.  Returns the mean of alpha*beta with its standard error.
    """
    if n < 1:
        raise ValidationError("need at least one trial")
    gen = as_rng_spec(rng).generator()
    table = _AtomTable.of_mixture(q)
    hidden = _mixture_draw(gen, table, n)
    measured = np.zeros(n, dtype=table.codes.dtype)
    alpha = _detect(gen, table, hidden, np.array([normalize_angle(a)]), measured, True)
    beta = _detect(gen, table, hidden, np.array([normalize_angle(b)]), measured, True)
    return _mean_estimate(alpha.astype(np.float64) * beta.astype(np.float64))


# --- timeline runs ------------------------------------------------------------

#: Bytes per record that the memory check counts (``Trials`` columns: 22).
_RECORD_BYTES = 30


def _check_memory(n_pairs: int) -> None:
    """Reject a run whose records, held twice while chunks are concatenated,
    exceed physical memory (unchecked where ``os.sysconf`` cannot tell)."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    need = 2 * _RECORD_BYTES * n_pairs
    if need > physical:
        raise ValidationError(f"--pairs {n_pairs} needs {need / 2**30:.3g} GiB of records, "
                              f"more than the {physical / 2**30:.3g} GiB of physical memory")


def run_timeline(
    alice: StationConfig,
    bob: StationConfig,
    n_pairs: int,
    duration: float,
    rng: "RngSpec | int",
    *,
    emission: str = "uniform",
    station_weights: tuple[float, float] = (0.5, 0.5),
    pbs: tuple[bool, bool] = (True, True),
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> Trials:
    """Simulate the full switching timeline.

    Emission times cover ``duration`` seconds: "uniform" draws ``n_pairs``
    independent times, "grid" spaces them evenly, "poisson" realizes a
    Poisson process of rate n_pairs/duration (n_pairs is the expected
    count).  For each pair emitted at t the texture carries the settings at
    t - T/2 and the outcomes use the settings at t + T/2, with T the
    per-station round trip time.  A periodic station at frequency 0 shows
    the one setting its phase picks (``setting_2`` for phases in [pi, 2pi)
    mod 2pi), as a stepped polarizer does.  ``_check_memory`` rejects a
    run too large to hold.

    Chunk i owns the window [duration*i/n, duration*(i+1)/n) of the n
    chunks and draws on stream ``spec.child(i)``.  "uniform" takes the
    window counts from one multinomial draw on ``spec.child()``, "poisson"
    from a Poisson draw per window; either sorts its window's times before
    the setting, hidden-angle and detection draws.  The chunks, merged in
    index order, are therefore in non-decreasing emission time.  At most
    min(workers, cpu count, chunks) threads run; the result is the same for
    any ``workers`` >= 1.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers!r}")
    if duration <= 0.0:
        raise ValidationError("duration must be > 0")
    if emission not in ("uniform", "grid", "poisson"):
        raise ValidationError(f"unknown emission mode {emission!r}")
    if n_pairs < 1:
        raise ValidationError("need at least one pair")
    _check_memory(n_pairs)
    check_station_weights(station_weights)
    for name, key, cfg in (("Alice", "a", alice), ("Bob", "b", bob)):
        # |t*frequency + phase/2pi| over t in [-T/2, duration + T/2]
        spanned = (duration + cfg.round_trip_time / 2.0) * cfg.switch_frequency
        offset = abs(cfg.switch_phase) / (2.0 * math.pi)
        periodic = cfg.switching == "periodic" and cfg.switch_frequency != 0.0
        if periodic and spanned + offset > _MAX_PERIODS:
            given = f"--duration {duration!r} s"
            if offset:
                given += f", --phase-{key} {cfg.switch_phase!r} rad"
            fix = f"reduce --phase-{key}" if offset > spanned else "shorten --duration"
            raise ValidationError(
                f"{name}'s square wave reaches {spanned + offset:.3g} periods ({given}), "
                f"more than 2**52: every time would fall in the same half period; "
                f"{fix}"
            )
    spec = as_rng_spec(rng)

    if emission == "poisson":
        rate = n_pairs / duration
        n_chunks = max(1, math.ceil(rate * duration / chunk_size))
    else:
        n_chunks = max(1, math.ceil(n_pairs / chunk_size))
    settings = np.array([alice.settings, bob.settings])
    if emission == "uniform":
        # n_pairs iid uniform times, split by window: multinomial window counts
        counts = spec.child().multinomial(n_pairs, np.full(n_chunks, 1.0 / n_chunks))

    def one_chunk(i: int) -> Trials:
        gen = spec.child(i)
        if emission == "grid":
            lo = i * chunk_size
            hi = min(lo + chunk_size, n_pairs)
            times = (np.arange(lo, hi, dtype=np.float64) + 0.5) * (duration / n_pairs)
        else:
            w0 = duration * i / n_chunks
            w1 = duration * (i + 1) / n_chunks
            count = counts[i] if emission == "uniform" else gen.poisson(rate * (w1 - w0))
            times = np.sort(w0 + gen.random(int(count)) * (w1 - w0))
        a_v, a_m = _station_indices(alice, gen, times)
        b_v, b_m = _station_indices(bob, gen, times)
        return _simulate(times, settings, (a_v, b_v, a_m, b_m), station_weights, pbs, gen)

    workers = min(workers, os.cpu_count() or 1, n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one_chunk, range(n_chunks)))
    else:
        parts = [one_chunk(i) for i in range(n_chunks)]
    # disjoint ascending windows: index order is emission order
    return Trials.concat(parts)


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
    _check_memory(n)
    check_station_weights(station_weights)
    gen = as_rng_spec(rng).generator()
    a_m = (gen.random(n) >= 0.5).astype(np.int8)
    b_m = (gen.random(n) >= 0.5).astype(np.int8)
    a_v = np.where(gen.random(n) < sf.f_alice, a_m, 1 - a_m)
    b_v = np.where(gen.random(n) < sf.f_bob, b_m, 1 - b_m)
    settings = np.array([[quad.a, quad.a_alt], [quad.b, quad.b_alt]])
    times = np.arange(n, dtype=np.float64)
    return _simulate(times, settings, (a_v, b_v, a_m, b_m), station_weights, pbs, gen)


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


def _at_setting(idx: np.ndarray, table: np.ndarray, setting: float) -> np.ndarray:
    """Records whose indexed setting in a station's 2-entry ``table`` is ``setting``."""
    return np.isclose(table, setting, rtol=0.0, atol=_ANGLE_ATOL)[idx]


def _setting_masks(
    idx: np.ndarray, table: np.ndarray, first: float, second: float
) -> tuple[np.ndarray, np.ndarray]:
    m1 = _at_setting(idx, table, first)
    m2 = _at_setting(idx, table, second)
    if np.any(m1 & m2):
        raise ValidationError("quad settings are not distinguishable")
    if not np.all(m1 | m2):
        raise ValidationError("records contain settings outside the quad")
    return m1, m2


def _bell_sum(
    trials: Trials, quad: ChoiceQuad, values: np.ndarray, estimate
) -> tuple[float, float]:
    """Signed CHSH sum (+, -, +, +) of per-group estimates over the four
    measured setting pairs, with its variance."""
    a1, a2 = _setting_masks(trials.a_m_idx, trials.settings[0], quad.a, quad.a_alt)
    b1, b2 = _setting_masks(trials.b_m_idx, trials.settings[1], quad.b, quad.b_alt)
    total = 0.0
    var = 0.0
    for mask, sign in ((a1 & b1, 1.0), (a1 & b2, -1.0), (a2 & b1, 1.0), (a2 & b2, 1.0)):
        if not np.any(mask):
            raise ValidationError("a measured setting pair has no records")
        est = estimate(values[mask])
        total += sign * est.value
        var += est.std_error**2
    return total, var


def estimate_sync_fractions(
    trials: Trials,
) -> tuple[EstimateWithError, EstimateWithError]:
    """Empirical per-station in-sync fractions P(setting at texture epoch == measured)."""
    # settings, not indices: a station may list the same setting twice
    fa = _fraction_estimate(trials.a_v == trials.a_m)
    return fa, _fraction_estimate(trials.b_v == trials.b_m)


def estimate_s_chsh(trials: Trials, quad: ChoiceQuad) -> EstimateWithError:
    """Bell S from records grouped by measured setting pair.

    Per-group means of alpha*beta are assembled with the (+, -, +, +) sign
    pattern; errors propagate in quadrature and the result is |S|.
    """
    prod = trials.alpha.astype(np.float64) * trials.beta.astype(np.float64)
    total, var = _bell_sum(trials, quad, prod, _mean_estimate)
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
    both = (trials.alpha == 1) & (trials.beta == 1)
    total, var = _bell_sum(trials, quad, both, _fraction_estimate)
    sa_mask = _at_setting(alice_only.a_m_idx, alice_only.settings[0], quad.a_alt)
    if not np.any(sa_mask):
        raise ValidationError("no singles records at Alice's alternate setting")
    sb_mask = _at_setting(bob_only.b_m_idx, bob_only.settings[1], quad.b)
    if not np.any(sb_mask):
        raise ValidationError("no singles records at Bob's first setting")
    sa = _fraction_estimate(alice_only.alpha[sa_mask] == 1)
    sb = _fraction_estimate(bob_only.beta[sb_mask] == 1)
    total -= sa.value + sb.value
    var += sa.std_error**2 + sb.std_error**2
    # the four groups partition the records
    return EstimateWithError(total, math.sqrt(var), len(trials))
