"""Event-level Monte Carlo engine, independent of the closed forms.

Every simulated pair follows the same sequence: a hidden polarization angle
is drawn from the texture mixture fixed by the settings one half round trip
*before* emission, the pair flies for the other half, and each station clicks
with the Malus probability of its setting *at arrival* against the shared
hidden angle.  Outcomes at the two stations are independent given the hidden
angle; any correlation beyond that factorization comes entirely from the
setting-dependence of the mixture.

Determinism: all sampling is chunked, each chunk owns an RNG stream derived
from (seed, stream_id, chunk index) and a disjoint time window, and every
window's record count is known before any chunk runs.  The record columns
are allocated once and each chunk writes its slice of them, in index
order, from its own thread; nothing is concatenated afterwards.  Each chunk
sorts its own emission times before any other draw, so the records are in
emission order without a global sort.  Results are bit-identical for any
worker count.

Storage: a polarizer only ever shows one of its two settings, so ``Trials``
keeps each setting as an int8 index into a 2x2 per-station ``settings``
table and exposes the angles as read-only views (``a_v``, ``b_v``, ``a_m``,
``b_m``).  The estimators read no angles: one ``np.bincount`` per run
tallies its records by measured indices and clicks (``_tally``), and every
estimate, S's standard error included, is a function of those counts.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .choice import MAX_PERIODS, ChoiceQuad, StationConfig, SyncFractions, check_station_weights
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
        cols = {name: np.concatenate([getattr(p, name) for p in parts]) for name in _RECORD_DTYPES}
        return cls(**cols, settings=table)

    def sorted_by_time(self) -> "Trials":
        order = np.argsort(self.emission_time, kind="stable")
        cols = {name: getattr(self, name)[order] for name in _RECORD_DTYPES}
        return Trials(**cols, settings=self.settings)


#: Every record column (all of ``Trials`` but ``settings``) and its dtype: 22 bytes per pair.
_RECORD_DTYPES = {
    "emission_time": np.float64,
    "hidden_angle": np.float64,
    "a_v_idx": np.int8,
    "b_v_idx": np.int8,
    "a_m_idx": np.int8,
    "b_m_idx": np.int8,
    "alpha": np.int8,
    "beta": np.int8,
}


def normalize_angles(x: np.ndarray) -> np.ndarray:
    """Vectorized twin of models.normalize_angle (same fmod and folds).

    Each fold adds 0 or pi, the same floats as branching but without a
    data-dependent choice per element.
    """
    r = np.fmod(x, np.pi)
    r -= (r > HALF_PI) * np.pi
    r += (r <= -HALF_PI) * np.pi
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
    if cfg.switch_frequency == 0.0:
        # a still wave shows the level its phase picks at every time
        level = _square_wave_index(0.0, cfg.switch_phase, np.zeros(1))[0]
        return np.full(times.size, level, np.int8), np.full(times.size, level, np.int8)
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
    mean, var = _pm1_moments(2 * int(np.count_nonzero(alpha == beta)) - n, n)
    return EstimateWithError(mean, math.sqrt(var), n)


# --- timeline runs ------------------------------------------------------------

#: Bytes per record that the memory check counts (``Trials`` columns: 22).
_RECORD_BYTES = 30


def _check_fits(flag: str, n: int, item_bytes: int, what: str) -> None:
    """Reject ``n`` items of ``item_bytes`` each that exceed physical memory
    (unchecked where ``os.sysconf`` cannot tell), before any is allocated;
    the message names the option ``flag`` that asked for ``n``."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    need = item_bytes * n
    if need > physical:
        raise ValidationError(f"{flag} {n} needs {need / 2**30:.3g} GiB of {what}, "
                              f"more than the {physical / 2**30:.3g} GiB of physical memory")


def _check_memory(n_pairs: int, flag: str = "--pairs") -> None:
    """Reject a run whose records, counted twice, exceed physical memory.

    A run's columns are allocated once (chunks write their own slices),
    but a measurement holds its main run and both singles runs at once, so
    one run's records alone understate what it needs.
    """
    _check_fits(flag, n_pairs, 2 * _RECORD_BYTES, "records")


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
    from a first Poisson draw on each window's stream; either sorts its
    window's times before the setting, hidden-angle and detection draws.
    With every count known up front, the record columns are allocated once
    and chunk i writes the slice after the records of chunks 0..i-1, so the
    run is in non-decreasing emission time and no record is held twice; a
    single chunk's records are returned as they are.  At most
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
        if periodic and spanned + offset > MAX_PERIODS:
            given = f"--duration {duration!r} s"
            fix = "shorten --duration"
            if cfg.round_trip_time / 2.0 > duration:
                given += f", --round-trip-{key} {cfg.round_trip_time!r} s"
                fix = f"shorten --round-trip-{key}"
            if offset:
                given += f", --phase-{key} {cfg.switch_phase!r} rad"
                if offset > spanned:
                    fix = f"reduce --phase-{key}"
            raise ValidationError(
                f"{name}'s square wave reaches {spanned + offset:.3g} periods ({given}), "
                f"more than 2**52: every time would fall in the same half period; "
                f"{fix}"
            )
    spec = as_rng_spec(rng)

    if emission == "poisson":
        rate = n_pairs / duration
        if math.isinf(rate):
            raise ValidationError(f"--duration {duration!r} s is too short for a Poisson "
                                  f"rate of {n_pairs} pairs in it: the rate overflows")
        n_chunks = max(1, math.ceil(rate * duration / chunk_size))
    else:
        n_chunks = max(1, math.ceil(n_pairs / chunk_size))
    settings = np.array([alice.settings, bob.settings])
    gens = [spec.child(i) for i in range(n_chunks)]
    windows = [(duration * i / n_chunks, duration * (i + 1) / n_chunks) for i in range(n_chunks)]
    # every window's record count, before any chunk runs
    if emission == "uniform":
        # n_pairs iid uniform times, split by window: multinomial window counts
        counts = spec.child().multinomial(n_pairs, np.full(n_chunks, 1.0 / n_chunks))
    elif emission == "grid":
        counts = np.minimum(chunk_size, n_pairs - chunk_size * np.arange(n_chunks))
    else:
        # a chunk's first draw on its stream
        counts = np.array([gen.poisson(rate * (w1 - w0)) for gen, (w0, w1) in zip(gens, windows)])
    starts = np.concatenate(([0], np.cumsum(counts))).tolist()

    def one_chunk(i: int) -> Trials:
        gen = gens[i]
        if emission == "grid":
            lo, hi = starts[i], starts[i + 1]
            times = (np.arange(lo, hi, dtype=np.float64) + 0.5) * (duration / n_pairs)
        else:
            w0, w1 = windows[i]
            times = np.sort(w0 + gen.random(int(counts[i])) * (w1 - w0))
        a_v, a_m = _station_indices(alice, gen, times)
        b_v, b_m = _station_indices(bob, gen, times)
        return _simulate(times, settings, (a_v, b_v, a_m, b_m), station_weights, pbs, gen)

    if n_chunks == 1:
        return one_chunk(0)
    out = Trials(**{name: np.empty(starts[-1], dtype=dtype)
                    for name, dtype in _RECORD_DTYPES.items()}, settings=settings)

    def fill(i: int) -> None:
        # disjoint ascending windows: index order is emission order
        part = one_chunk(i)
        for name in _RECORD_DTYPES:
            getattr(out, name)[starts[i]:starts[i + 1]] = getattr(part, name)

    workers = min(workers, os.cpu_count() or 1, n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(n_chunks)))
    else:
        for i in range(n_chunks):
            fill(i)
    return out


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


def _pm1_moments(s: int, n: int) -> tuple[float, float]:
    """Mean of ``n`` +/-1 samples that sum to ``s``, and the variance of that
    mean: s/n and the unbiased (n*n - s*s) / (n*n*(n - 1)).  Both are ratios
    of exact integers, so each is correctly rounded."""
    if n < 2:
        raise ValidationError("need at least two samples for a standard error")
    return s / n, (n * n - s * s) / (n * n * (n - 1))


def _fraction_estimate(hits: int, n: int) -> EstimateWithError:
    """``hits`` of ``n`` as a fraction; ``hits / n`` on exact integers is the
    mean of the 0/1 samples."""
    if n < 1:
        raise ValidationError("no samples in group")
    p = hits / n
    return EstimateWithError(p, math.sqrt(p * (1.0 - p) / n), n)


def _bits(*flags: np.ndarray) -> np.ndarray:
    """One int8 per record whose bits are ``flags`` (0/1 indices or bools),
    the first most significant."""
    key = flags[0].astype(np.int8)
    for flag in flags[1:]:
        key += key  # << 1, without the shift's range checks
        key |= flag
    return key


def _tally(trials: Trials) -> np.ndarray:
    """counts[a_m_idx, b_m_idx, alpha > 0, beta > 0] of a run's records, from
    one ``np.bincount``."""
    key = _bits(trials.a_m_idx, trials.b_m_idx, trials.alpha > 0, trials.beta > 0)
    return np.bincount(key, minlength=16).reshape(2, 2, 2, 2)


def _at_setting(table: np.ndarray, setting: float) -> np.ndarray:
    """Which entries of a station's 2-entry settings ``table`` are ``setting``."""
    return np.isclose(table, setting, rtol=0.0, atol=_ANGLE_ATOL)


def _quad_rows(seen: np.ndarray, table: np.ndarray, first: float, second: float) -> np.ndarray:
    """Row k: the indices of ``table`` at the station's k-th quad setting,
    checked on the indices ``seen`` in the records."""
    rows = np.array([_at_setting(table, first), _at_setting(table, second)])
    if np.any(rows[0] & rows[1] & seen):
        raise ValidationError("quad settings are not distinguishable")
    if np.any(~(rows[0] | rows[1]) & seen):
        raise ValidationError("records contain settings outside the quad")
    return rows


def _bell_groups(tally: np.ndarray, settings: np.ndarray, quad: ChoiceQuad):
    """The four measured setting pairs in (+, -, +, +) order, each as (sign,
    counts[alpha > 0, beta > 0]) summed from a run's ``_tally``.

    A station's table may list a setting twice or in either order, so a
    group is every index pair at its two settings.  A group is checked when
    it is reached: an estimate of one group fails before the next is found
    empty.
    """
    seen = tally.any(axis=(2, 3))
    a = _quad_rows(seen.any(axis=1), settings[0], quad.a, quad.a_alt)
    b = _quad_rows(seen.any(axis=0), settings[1], quad.b, quad.b_alt)
    for sign, i, j in ((1.0, 0, 0), (-1.0, 0, 1), (1.0, 1, 0), (1.0, 1, 1)):
        group = tally[np.outer(a[i], b[j])].sum(axis=0)
        if not group.any():
            raise ValidationError("a measured setting pair has no records")
        yield sign, group


def estimate_sync_fractions(
    trials: Trials,
) -> tuple[EstimateWithError, EstimateWithError]:
    """Empirical per-station in-sync fractions P(setting at texture epoch == measured).

    Counted by (texture-epoch index, measured index): a pair is in sync where
    the station's table holds one setting at both (everywhere, if it lists one twice).
    """

    def in_sync(v: np.ndarray, m: np.ndarray, table: np.ndarray) -> EstimateWithError:
        counts = np.bincount(_bits(v, m), minlength=4).reshape(2, 2)
        return _fraction_estimate(int(counts[table[:, None] == table].sum()), v.size)

    return (in_sync(trials.a_v_idx, trials.a_m_idx, trials.settings[0]),
            in_sync(trials.b_v_idx, trials.b_m_idx, trials.settings[1]))


def estimate_s_chsh(trials: Trials, quad: ChoiceQuad) -> EstimateWithError:
    """Bell S from records grouped by measured setting pair.

    A group's alpha*beta is +/-1, so its mean and that mean's variance
    follow from the group's count n and s = n - 2 * (records with alpha !=
    beta) (``_pm1_moments``).  The means are assembled with the (+, -, +, +)
    sign pattern, the variances add, and the result is |S|.
    """
    total = var = 0.0
    for sign, group in _bell_groups(_tally(trials), trials.settings, quad):
        n = int(group.sum())
        mean, group_var = _pm1_moments(n - 2 * int(group[0, 1] + group[1, 0]), n)
        total += sign * mean
        var += group_var
    return EstimateWithError(abs(total), math.sqrt(var), len(trials))


def _singles(counts: np.ndarray, table: np.ndarray, setting: float,
             where: str) -> EstimateWithError:
    """Click fraction at ``setting`` of a singles run's counts[index, click]."""
    at = counts[_at_setting(table, setting)]
    if not at.any():
        raise ValidationError(f"no singles records at {where}")
    return _fraction_estimate(int(at[:, 1].sum()), int(at.sum()))


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
    stand-in for the no-polarizer rate that counts every pair.  Each run is
    tallied once (``_tally``) and every fraction is a ratio of its counts;
    a singles term reads its station's marginal.
    """
    total = var = 0.0
    for sign, group in _bell_groups(_tally(trials), trials.settings, quad):
        est = _fraction_estimate(int(group[1, 1]), int(group.sum()))
        total += sign * est.value
        var += est.std_error**2
    sa = _singles(_tally(alice_only).sum(axis=(1, 3)), alice_only.settings[0], quad.a_alt,
                  "Alice's alternate setting")
    sb = _singles(_tally(bob_only).sum(axis=(0, 2)), bob_only.settings[1], quad.b,
                  "Bob's first setting")
    total -= sa.value + sb.value
    var += sa.std_error**2 + sb.std_error**2
    # the four groups partition the records
    return EstimateWithError(total, math.sqrt(var), len(trials))
