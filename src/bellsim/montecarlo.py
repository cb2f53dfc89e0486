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
window's record count is known before any chunk runs.  A run that returns
its records allocates its columns once, and each chunk writes straight into
its slice of them from its own thread: its times are drawn into the slice
and sorted there before any other draw, so the records are in emission
order without a global sort, and the rest is written in place.  A tally
chunk runs its pairs in draw order: its counts do not read the order.
Results are bit-identical for any worker count.

Storage: a polarizer only ever shows one of its two settings, so ``Trials``
keeps each setting as an int8 index into a 2x2 per-station ``settings``
table and exposes the angles as read-only views (``a_v``, ``b_v``, ``a_m``,
``b_m``).  The estimators read no angles: one count per run tallies its
records by measured indices and clicks (``_tally``), and every estimate,
S's standard error included, is a function of those counts (``_s_chsh``
and ``_s_prime``; ``estimate_s_chsh`` and ``estimate_s_prime`` tally their
runs and call them).  A run that keeps no records
(``run_timeline(..., records=False)``) returns that count alone
(``Tally``): each chunk writes its records into its scratch arena and
counts them there, in its own thread, and the run sums its chunks' counts.
A measurement (``sweep.measure_bell``) runs that way, so it holds no run's
columns and copies no record; integer counts sum exactly in any order, so
a run's tally is the same for any worker count.

Kernels: no per-pair trig or modulo where the hidden angle is an atom.  A
square wave's setting index is x - floor(x) >= 1/2, x = t*nu + phi/2pi,
which is exact for any t, a still wave's (nu = 0) included.  The hidden
angle takes at most 8 atom values per run (each present polarizer's two
settings, and each minus pi/2); a chunk builds that table once
(``_AtomTable``, whose last code is a flat draw), draws a code per pair
from the slot probabilities and the stations' texture-epoch indices, and
gathers the Malus probability from a ``cos**2`` table of measured setting
by code.  Without atoms (no polarizer, or the uniform mixture) every pair
takes the flat code and no slot is drawn.  An atom pair's angle is never
written before both detections, and in a run that keeps no records never at
all.  Only pairs whose hidden angle is a flat draw (an absent polarizer's
uniform share, or a uniform mixture component) evaluate ``cos`` per pair,
on their angles kept compact per tile.  The square of numpy's float32
``cos`` of the angle difference rounded to float32 screens the probability
(``_flat_screen``), and a pair whose uniform lies within ``_FLAT_EPS`` of
the screen is decided by the float64 ``_malus`` (``_flat_near_calls``),
so every click is the float64 comparison's.  A flat angle needs no ``fmod``
(``_flat_angles``).  An absent polarizer detects every photon and skips
its uniforms by advancing the generator.  ``run_timeline``, ``run_static``
and ``sample_lambda`` share that one sampler and detector; the random
numbers and their order are those of the per-pair formulas.

Tiles: after its time draw, a chunk runs every per-pair pass over
tiles of ``_TILE`` records (``_tiles``), stage by stage: the station
indices, all first hidden-angle draws, then all flat draws, then Alice's
detection, then Bob's.  Each stage draws its uniforms tile after tile, in
the order of one whole-chunk draw, and a tile's temporaries stay in a
core's L2 cache.  The estimators count tile by tile too, by one
``np.bincount`` of each tile's key (``_count``).

Scratch: a running chunk takes a scratch arena (``_Arena``) from one
module-level pool and puts it back when it ends.  The kernels write every
temporary into it through the ``out=`` forms of numpy calls, so after the
first chunks a run allocates its columns, or a tally run its counts, and
almost nothing else.  The pool holds as many arenas as chunks ever ran at
once (at most min(workers, cpu count) of one run).  An arena holds
tile-sized buffers and one byte per record of the chunk (its atom codes),
and a tally run's chunk adds its 14 bytes of records: about 2 MB, or 6 MB
after a tally run of default chunks.  The compact flat angles of each tile
live at the start of the tile's slice of the ``hidden_angle`` column: in a
tally chunk that is the emission times' buffer, which nothing reads once
both stations' setting indices are drawn, and a records run overwrites
them with every pair's angle after both detections (``_hidden_angles``).
An arena keeps no buffer longer than ``_ARENA_RECORDS`` records, so the
scratch is bounded whatever a run's size.  No returned column or count is
ever a scratch buffer.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .choice import MAX_PERIODS, ChoiceQuad, StationConfig, SyncFractions, check_station_weights
from .models import (HALF_PI, HvMixture, ValidationError, _check_count, _check_fits,
                     normalize_angle)

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

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            _check_count(name, getattr(self, name), 0)

    def generator(self) -> np.random.Generator:
        return self.child()

    def child(self, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, *key)
        )
        return np.random.Generator(np.random.PCG64(seq))


def as_rng_spec(rng: "RngSpec | int") -> RngSpec:
    """``rng`` itself, or the stream 0 of the seed ``rng``."""
    if isinstance(rng, RngSpec):
        return rng
    if isinstance(rng, bool) or not isinstance(rng, numbers.Integral):
        raise ValidationError(f"rng must be an RngSpec or an integer seed, got {rng!r}")
    return RngSpec(rng)


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


def _allocate(n: int, settings: np.ndarray) -> Trials:
    """Uninitialized columns for ``n`` records on ``settings``: a run's
    columns, allocated once and filled by its chunks."""
    return Trials(**{name: np.empty(n, dtype) for name, dtype in _RECORD_DTYPES.items()},
                  settings=settings)


@dataclass(frozen=True)
class Tally:
    """A run that kept no records: ``counts[a_m_idx, b_m_idx, alpha > 0,
    beta > 0]`` of its records, as ``_tally`` counts them, on its
    ``settings`` table.  Its length is its number of pairs."""

    counts: np.ndarray
    settings: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.sum())


# --- sampling primitives ----------------------------------------------------

#: Records per tile.  Every per-pair pass of a chunk after its time draw
#: runs over consecutive tiles of at most this many records, so that a
#: stage's temporaries (26 bytes per tile record) stay in a core's L2 cache.
_TILE = 1 << 16

#: Records a chunk-sized scratch buffer (the atom codes, or a column of a
#: chunk that keeps no records) may hold and still be kept for the next
#: chunk.  A larger request (an unchunked static run or hidden-angle draw,
#: or a ``chunk_size`` above the default) gets a buffer that is used once.
_ARENA_RECORDS = 2 * DEFAULT_CHUNK


def _tiles(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_TILE`` records that cover ``n``."""
    tile = _TILE
    return (slice(lo, min(lo + tile, n)) for lo in range(0, n, tile))


class _Arena:
    """Scratch buffers of one running chunk, one per role.

    The roles share buffers by lifetime.  Per pair of a tile, "u" holds a
    uniform draw, the square wave's x or a flat pair's screened probability,
    "p" the Malus probability, the wave's floor(x) or a flat pair's gap to
    its uniform (float64 each), "index" a table key widened to intp or a
    flat pair's float32 screen, "key" that key at the table's code width and
    "mask" one byte (a comparison, or a flat pair's setting index): 26 bytes
    per record of a ``_TILE``.
    Only "code", the atom code of every pair of the chunk (kept from the
    hidden-angle draw through both detections), and the record columns of a
    chunk that keeps no records (``records``) are chunk-sized; each grows to
    the largest chunk it has served, up to ``_ARENA_RECORDS`` records.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, n: int, dtype: "np.dtype | type") -> np.ndarray:
        """The first ``n`` items of the ``role`` buffer as ``dtype``."""
        size = n * np.dtype(dtype).itemsize
        buf = self.buffers.get(role)
        if buf is None or buf.size < size:
            buf = np.empty(size, np.uint8)
            if n <= _ARENA_RECORDS:
                self.buffers[role] = buf
        return buf[:size].view(dtype)

    def records(self, n: int, settings: np.ndarray) -> Trials:
        """Columns for ``n`` records of a chunk that keeps none, one
        chunk-sized role per column (14 bytes a record): the hidden angles,
        of which such a chunk writes only the compact flat ones, share the
        emission times' buffer, as no time is read once both stations'
        setting indices are drawn."""
        cols = {name: self.take(name, n, dtype) for name, dtype in _RECORD_DTYPES.items()
                if name != "hidden_angle"}
        return Trials(**cols, hidden_angle=cols["emission_time"], settings=settings)


#: Arenas of chunks that have ended, the last one ended on top; it holds as
#: many as ever ran at once.
_ARENAS: list[_Arena] = []


@contextmanager
def _scratch() -> Iterator[_Arena]:
    """An arena from the pool for one chunk, put back when the chunk ends.

    The pool is module-level because ``run_timeline`` starts new threads
    on every call: an arena outlives the thread that used it.  ``pop`` and
    ``append`` of a list are each atomic, so chunks on several threads
    never share an arena.
    """
    try:
        arena = _ARENAS.pop()
    except IndexError:
        arena = _Arena()
    try:
        yield arena
    finally:
        _ARENAS.append(arena)


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
        angles = np.array([normalize_angle(a) for a in raw] + [math.nan])
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
    if size is not None:
        _check_count("size", size, 0)
    lam = np.empty(1 if size is None else int(size))
    table = _AtomTable.of_mixture(q)
    with _scratch() as arena:
        _hidden_angles(table, _mixture_draw(rng, table, lam, arena), lam, arena)
    return float(lam[0]) if size is None else lam


def _flat_angles(u: np.ndarray, out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Flat hidden angles u*pi - pi/2 of uniforms ``u`` in [0, 1), normalized,
    into ``out`` (which may be ``u``); ``mask`` is a bool buffer of their size.

    They lie in [-pi/2, pi/2), where the fmod and the upper fold of
    ``models.normalize_angle`` are the identity and its lower fold moves
    -pi/2 alone (to pi/2), so this equals it bit for bit.
    """
    np.multiply(u, np.pi, out=out)
    out += -HALF_PI
    np.copyto(out, HALF_PI, where=np.equal(out, -HALF_PI, out=mask))
    return out


def _flat_pairs(code: np.ndarray, table: _AtomTable, arena: _Arena) -> np.ndarray:
    """Positions of the pairs in a tile's ``code`` that drew a flat angle."""
    # indices gather faster than a mask
    return np.flatnonzero(np.equal(code, table.flat, out=arena.take("mask", code.size, np.bool_)))


def _mixture_draw(
    rng: np.random.Generator, table: _AtomTable, lam: np.ndarray, arena: _Arena,
    texture: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The one hidden-angle sampler: draws the hidden angles of ``lam.size``
    pairs and returns their atom codes.

    A first draw per pair picks a slot by ``table.probs`` in the pair's
    texture state 2*a_v + b_v, of the index columns ``texture`` = (a_v,
    b_v) (one state when None).  With a uniform component, a second draw
    per pair after every first one gives the flat angle of the pairs that
    picked none (code ``table.flat``).  Without atoms there is no slot to
    pick: no first draw is made, and every pair's code is ``table.flat``.
    Each stage runs tile by tile; the codes live in the arena's chunk-sized
    "code" buffer.

    Only flat angles are written, into ``lam``, and each tile's stay
    compact at the start of its slice: ``lam[s][:f]`` holds the f flat
    angles of tile ``s`` in pair order.  An atom pair stays its code;
    ``_hidden_angles`` writes every pair's angle.
    """
    m = lam.size
    n_slots = table.codes.shape[1]
    codes = table.codes.ravel()
    # state * n_slots + searchsorted(cumsum(probs), u, "right") by one
    # comparison pass per threshold; without a uniform component the last
    # threshold is left out, which clamps to the last atom
    thresholds = np.cumsum(table.probs)[: n_slots - 1]
    code = arena.take("code", m, codes.dtype)
    if not table.probs:  # no atoms: no slot to pick
        code.fill(table.flat)
    else:
        for s in _tiles(m):
            t = s.stop - s.start
            u = rng.random(out=arena.take("u", t, np.float64))
            key = arena.take("key", t, codes.dtype)
            if texture is None:
                key.fill(0)
            else:
                np.add(texture[0][s], texture[0][s], out=key)
                key += texture[1][s]
                key *= n_slots
            above = arena.take("mask", t, np.bool_)
            for c in thresholds:
                key += np.greater_equal(u, c, out=above)
            np.take(codes, _index(key, arena), out=code[s], mode="clip")
    if table.uniform:
        for s in _tiles(m):
            u = rng.random(out=arena.take("u", s.stop - s.start, np.float64))
            flat = _flat_pairs(code[s], table, arena)
            v = np.take(u, flat, out=lam[s][: flat.size], mode="clip")
            _flat_angles(v, v, arena.take("mask", flat.size, np.bool_))
    return code


def _hidden_angles(table: _AtomTable, code: np.ndarray, lam: np.ndarray,
                   arena: _Arena) -> None:
    """Every pair's hidden angle, into the ``lam`` that ``_mixture_draw``
    filled: an atom pair's from its code, and a tile's flat angles moved
    from the start of its slice to its flat pairs, in order."""
    for s in _tiles(lam.size):
        flat = _flat_pairs(code[s], table, arena) if table.uniform else np.empty(0, np.intp)
        kept = arena.take("u", flat.size, np.float64)
        np.copyto(kept, lam[s][: flat.size])
        np.take(table.angles, _index(code[s], arena), out=lam[s], mode="clip")
        lam[s][flat] = kept


#: Half-width of the band around a flat pair's float32 screen of cos**2 in
#: which its uniform is compared with the float64 Malus probability
#: instead.  The screen differs from ``_malus`` by less than 1e-6 on
#: [-pi, pi] (at most 2.4e-7 over 1e7 evenly spaced points), so a
#: uniform outside the band falls on the same side of both and every click
#: is the float64 comparison's.
_FLAT_EPS = 1e-5


def _detect(
    rng: np.random.Generator,
    table: _AtomTable,
    lam: np.ndarray,
    code: np.ndarray,
    settings: np.ndarray,
    setting_idx: np.ndarray,
    present: bool,
    out: np.ndarray,
    arena: _Arena,
) -> None:
    """Write +/-1 outcomes at ``settings[setting_idx]`` against the atom
    ``code`` and the compact flat angles ``lam`` of ``_mixture_draw`` into
    the int8 ``out``, tile by tile.

    Atom pairs gather their Malus probability from a (setting, atom code)
    table.  A flat pair's is screened in float32 (``_flat_screen``), and a
    pair whose uniform lies within ``_FLAT_EPS`` of its screen is decided
    against ``_malus`` in float64 (``_flat_near_calls``), so every click is
    the float64 comparison's.  The probabilities take no random numbers,
    so a tile's are found before its one uniform draw per pair.  An absent
    polarizer detects every photon (u < 1 always), so it skips its draws:
    ``advance`` leaves PCG64 where they would.  (It also drops a buffered
    32-bit half, which only integer draws read, and no integer draw follows
    a detection.)
    """
    if not present:
        rng.bit_generator.advance(out.size)
        out.fill(1)
        return
    malus = (np.cos(settings[:, None] - table.angles) ** 2).ravel()
    width = code.dtype.type(table.angles.size)
    for s in _tiles(out.size):
        t = s.stop - s.start
        u = arena.take("u", t, np.float64)
        p = arena.take("p", t, np.float64)
        idx = setting_idx[s]
        key = np.multiply(idx, width, out=arena.take("key", t, code.dtype))
        key += code[s]
        np.take(malus, _index(key, arena), out=p, mode="clip")
        if table.uniform:
            # screened compact in u, then scattered over the table's nan
            flat = _flat_pairs(code[s], table, arena)
            f = flat.size
            flat_idx = np.take(idx, flat, out=arena.take("mask", f, np.int8), mode="clip")
            screen = _flat_screen(settings, flat_idx, lam[s][:f], u[:f], arena)
            p[flat] = u[:f]
        clicks = out[s]
        np.less(rng.random(out=u), p, out=clicks.view(np.bool_))
        if table.uniform:
            _flat_near_calls(u, screen, flat, settings, idx, lam[s], clicks.view(np.bool_), arena)
        clicks += clicks
        clicks -= 1


def _flat_screen(settings: np.ndarray, idx: np.ndarray, lam: np.ndarray, p: np.ndarray,
                 arena: _Arena) -> np.ndarray:
    """The float32 screen of cos(settings[idx] - lam)**2 of flat pairs: the
    square of the float32 cos of the float32-rounded float64 difference.

    It is written widened into the float64 ``p`` and returned as float32 in
    the arena's "index" buffer.  Settings and flat angles are normalized, so
    the difference lies in [-pi, pi], where the screen is within 1e-6 of
    ``_malus`` (``_FLAT_EPS``).
    """
    np.take(settings, _index(idx, arena), out=p, mode="clip")
    p -= lam
    screen = arena.take("index", p.size, np.float32)
    np.copyto(screen, p, casting="same_kind")
    np.cos(screen, out=screen)
    np.square(screen, out=screen)
    np.copyto(p, screen)
    return screen


def _flat_near_calls(u: np.ndarray, screen: np.ndarray, flat: np.ndarray,
                     settings: np.ndarray, idx: np.ndarray, lam: np.ndarray, clicks: np.ndarray,
                     arena: _Arena) -> None:
    """Decide again, against ``_malus`` in float64, the clicks of the flat
    pairs whose uniform ``u`` lies within ``_FLAT_EPS`` of their ``screen``.

    ``flat`` holds the tile positions of the screened pairs, ``lam`` their
    compact angles and ``idx`` the tile's setting indices.  The gaps live in
    the arena's "p" buffer, which the tile's comparison has read.
    """
    gap = np.take(u, flat, out=arena.take("p", screen.size, np.float64), mode="clip")
    gap -= screen
    np.abs(gap, out=gap)
    near = np.flatnonzero(np.less(gap, _FLAT_EPS, out=arena.take("mask", gap.size, np.bool_)))
    if near.size:
        at = flat[near]
        clicks[at] = u[at] < _malus(settings[idx[at]], lam[near])


def _index(key: np.ndarray, arena: _Arena) -> np.ndarray:
    """``key`` widened to intp in the arena's "index" buffer.

    ``np.take`` gathers by intp; given narrower keys it would allocate
    their intp copy itself.  Every key is in range, so the gathers use
    ``mode="clip"``, which also writes ``out`` in place (the default
    "raise" buffers it).
    """
    index = arena.take("index", key.size, np.intp)
    np.copyto(index, key)
    return index


def _malus(setting: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """cos(setting - lam)**2 per pair, in place in ``setting``."""
    setting -= lam
    np.cos(setting, out=setting)
    return np.square(setting, out=setting)


def _station_indices(
    cfg: StationConfig, rng: np.random.Generator, times: np.ndarray,
    v: np.ndarray, m: np.ndarray, arena: _Arena,
) -> None:
    """Write the setting index (0 or 1) at the texture epoch into ``v`` and
    at photon arrival into ``m``, tile by tile."""
    if cfg.switching == "random":
        # no times read: m is a fair coin, then v = m with probability p, else the other index
        for s in _tiles(m.size):
            u = rng.random(out=arena.take("u", s.stop - s.start, np.float64))
            np.greater_equal(u, 0.5, out=m[s].view(np.bool_))
        for s in _tiles(v.size):
            u = rng.random(out=arena.take("u", s.stop - s.start, np.float64))
            keep = np.less(u, cfg.sync_probability, out=arena.take("mask", u.size, np.bool_))
            np.equal(m[s].view(np.bool_), keep, out=v[s].view(np.bool_))
    else:
        half = cfg.round_trip_time / 2.0
        for s in _tiles(times.size):
            _square_wave_index(cfg.switch_frequency, cfg.switch_phase, times[s], -half, arena, v[s])
            _square_wave_index(cfg.switch_frequency, cfg.switch_phase, times[s], half, arena, m[s])


def _square_wave_index(frequency: float, phase: float, times: np.ndarray, shift: float,
                       arena: _Arena, out: np.ndarray) -> None:
    """50%-duty square wave at ``times + shift``: 0 for the first half of
    each period, else 1, into the int8 array ``out``.

    The index is ``x - floor(x) >= 0.5``, x = t*frequency + phase/2pi (a
    phase of 0 adds nothing): ``mod(x, 1) >= 0.5`` for every finite x, as
    the difference is exact for x >= 0 and x <= -1, and for -1 < x < 0 is
    x + 1, exact up to 0.5 and above it rounded only within [0.5, 1].  At
    frequency 0 the wave holds the level its phase picks: 0 for phases in
    [0, pi) mod 2pi, 1 for [pi, 2pi).  x and floor(x) live in the arena's
    "u" and "p" buffers.
    """
    x = np.add(times, shift, out=arena.take("u", times.size, np.float64))
    x *= frequency
    if phase:
        x += phase / (2.0 * math.pi)
    x -= np.floor(x, out=arena.take("p", times.size, np.float64))
    np.greater_equal(x, 0.5, out=out.view(np.bool_))


def _simulate(trials: Trials, station_weights: tuple[float, float], pbs: tuple[bool, bool],
              gen: np.random.Generator, arena: _Arena, records: bool) -> None:
    """Outcomes of pairs whose times and (a_v, b_v, a_m, b_m) setting
    indices ``trials`` holds, written into its ``alpha`` and ``beta``, and
    with ``records`` their hidden angles into its ``hidden_angle``.

    The hidden angle comes from the texture atoms of each present polarizer
    at its texture-epoch setting; a station without a polarizer leaves its
    share of the texture uniform.  Until both detections are done the
    ``hidden_angle`` column holds only each tile's compact flat angles
    (``_mixture_draw``); a run that keeps no records never writes the rest.
    """
    t = trials
    table = _AtomTable.of_stations(t.settings, station_weights, pbs)
    lam = t.hidden_angle
    code = _mixture_draw(gen, table, lam, arena, (t.a_v_idx, t.b_v_idx))
    _detect(gen, table, lam, code, t.settings[0], t.a_m_idx, pbs[0], t.alpha, arena)
    _detect(gen, table, lam, code, t.settings[1], t.b_m_idx, pbs[1], t.beta, arena)
    if records:
        _hidden_angles(table, code, lam, arena)


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
    each station.  Returns the mean of alpha*beta with its standard error,
    which takes at least two trials.
    """
    _check_count("n", n, 2)
    gen = as_rng_spec(rng).generator()
    table = _AtomTable.of_mixture(q)
    lam = np.empty(n)
    measured = np.zeros(n, dtype=np.int8)
    alpha = np.empty(n, dtype=np.int8)
    beta = np.empty(n, dtype=np.int8)
    with _scratch() as arena:
        code = _mixture_draw(gen, table, lam, arena)
        _detect(gen, table, lam, code, np.array([normalize_angle(a)]), measured, True, alpha, arena)
        _detect(gen, table, lam, code, np.array([normalize_angle(b)]), measured, True, beta, arena)
    mean, var = _pm1_moments(2 * int(np.count_nonzero(alpha == beta)) - n, n)
    return EstimateWithError(mean, math.sqrt(var), n)


# --- timeline runs ------------------------------------------------------------

#: Bytes per record that the memory check counts: the 22 of the ``Trials``
#: columns, and 8 that the tiled kernels no longer hold per record (a
#: singles run's flat-pair indices were chunk-sized), kept because a lower
#: count would let larger runs through the check.  A timeline's arenas are
#: not counted per record: there are at most min(workers, cpu count) of
#: them, of 26 bytes per tile record plus 15 bytes per record (a tally
#: chunk's 14 of records and the atom code's one) of at most
#: ``_ARENA_RECORDS`` (about 6 MB) each, whatever the run's size.
_RECORD_BYTES = 30


def _check_memory(n_pairs: int, flag: str = "--pairs") -> None:
    """Reject a run whose records, counted twice, exceed physical memory.

    A run that returns its records allocates its columns once (chunks write
    their own slices).  A run that keeps none (``records=False``, every run
    of a measurement) holds only its chunks' arenas, which are bounded apart
    from the records (``_RECORD_BYTES``); it is checked all the same, so
    that ``--pairs`` has one limit on every command.  The factor two is
    headroom: a lower count would let larger runs through.
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
    records: bool = True,
) -> "Trials | Tally":
    """Simulate the full switching timeline.

    Emission times cover ``duration`` seconds: "uniform" draws ``n_pairs``
    independent times, "grid" spaces them evenly, "poisson" realizes a
    Poisson process of rate n_pairs/duration (n_pairs is the expected
    count).  For each pair emitted at t the texture carries the settings at
    t - T/2 and the outcomes use the settings at t + T/2, with T the
    per-station round trip time.  A periodic station at frequency 0 shows
    the one setting its phase picks (``setting_2`` for phases in [pi, 2pi)
    mod 2pi), as a polarizer held still does.  ``_check_memory`` rejects a
    run too large to hold.

    Chunk i owns the window [duration*i/n, duration*(i+1)/n) of the n
    chunks and draws on stream ``spec.child(i)``.  "uniform" takes the
    window counts from one multinomial draw on ``spec.child()``, "poisson"
    from a first Poisson draw on each window's stream.  With every count
    known up front, the record columns are allocated once, and chunk i
    sorts its times into the slice after the records of chunks 0..i-1, so
    the run is in non-decreasing emission time and no record is copied.
    Each running chunk keeps its temporaries in a pooled scratch arena.
    At most min(workers, cpu count, chunks) threads run; the result is the
    same for any ``workers`` >= 1.

    With ``records=False`` the run returns its ``Tally`` and keeps no
    records: each chunk writes its records into its arena (``_Arena.records``)
    in draw order, unsorted, and counts them there (``_count``); the run sums
    the chunks' counts.  On a grid they equal ``_tally`` of the records run,
    and so they do where no station reads a time (both are random stations):
    such a chunk fills no grid and skips uniform or Poisson times by
    advancing its generator past them, so every later draw is the records
    run's.  A periodic station reads its times, a still wave's included.
    """
    _check_count("workers", workers, 1)
    _check_count("chunk_size", chunk_size, 1)
    if isinstance(n_pairs, bool) or not isinstance(n_pairs, numbers.Integral):
        raise ValidationError(f"n_pairs must be an integer >= 1, got {n_pairs!r}")
    if n_pairs < 1:
        raise ValidationError("need at least one pair")
    if not math.isfinite(duration):  # else every emission time is nan
        raise ValidationError(f"duration must be finite, got {duration!r}")
    if duration <= 0.0:
        raise ValidationError("duration must be > 0")
    if emission not in ("uniform", "grid", "poisson"):
        raise ValidationError(f"unknown emission mode {emission!r}")
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

    out = _allocate(starts[-1], settings) if records else None
    # a periodic wave is the only station that reads times
    timed = records or any(cfg.switching == "periodic" for cfg in (alice, bob))

    def one_chunk(i: int) -> np.ndarray | None:
        # disjoint ascending windows: index order is emission order
        lo, hi = starts[i], starts[i + 1]
        gen = gens[i]
        with _scratch() as arena:
            part = (Trials(**{name: getattr(out, name)[lo:hi] for name in _RECORD_DTYPES},
                           settings=settings) if records else arena.records(hi - lo, settings))
            times = part.emission_time
            if not timed:
                if emission != "grid":
                    gen.bit_generator.advance(hi - lo)  # as gen.random(out=times) would
            elif emission == "grid":
                for s in _tiles(hi - lo):  # a chunk-sized arange costs more than the fill
                    np.add(np.arange(lo + s.start, lo + s.stop, dtype=np.float64), 0.5,
                           out=times[s])
                times *= duration / n_pairs
            else:
                w0, w1 = windows[i]
                gen.random(out=times)
                times *= w1 - w0
                times += w0
                if records:
                    times.sort()
            _station_indices(alice, gen, times, part.a_v_idx, part.a_m_idx, arena)
            _station_indices(bob, gen, times, part.b_v_idx, part.b_m_idx, arena)
            _simulate(part, station_weights, pbs, gen, arena, records)
            return None if records else _count((part.a_m_idx, part.b_m_idx),
                                               (part.alpha, part.beta), arena)

    workers = min(workers, os.cpu_count() or 1, n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(one_chunk, range(n_chunks)))
    else:
        tallies = list(map(one_chunk, range(n_chunks)))
    return out if records else Tally(sum(tallies).reshape(2, 2, 2, 2), settings)


def _choice_stations(quad: ChoiceQuad, sf: SyncFractions) -> tuple[StationConfig, StationConfig]:
    """Random-switching stations on ``quad``, Alice's in sync with
    probability f_A and Bob's with f_B: the per-trial choice protocol."""
    return (StationConfig(quad.a, quad.a_alt, switching="random", sync_probability=sf.f_alice),
            StationConfig(quad.b, quad.b_alt, switching="random", sync_probability=sf.f_bob))


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
    realizes arbitrary (f_A, f_B) without modelling switching hardware: it
    is the one-worker timeline of two random-switching stations
    (``_choice_stations``), trial i emitted at time i + 1/2 on a grid.
    """
    return run_timeline(*_choice_stations(quad, sf), n, float(n), rng, emission="grid",
                        station_weights=station_weights, pbs=pbs)


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


def _count(indices: Sequence[np.ndarray], clicks: Sequence[np.ndarray] = (),
           arena: _Arena | None = None) -> np.ndarray:
    """How many records have each key whose bits are their 0/1 ``indices``
    and then their ``clicks`` > 0, the first most significant.

    The one counter of the estimators and of a chunk that keeps no
    records.  It works tile by tile on an int8 key in a scratch arena (the
    given ``arena``, such as the counting chunk's own, else one from the
    pool), so no full-length key exists, and counts each tile by one
    ``np.bincount`` of that key widened in the arena.  A tile whose
    or-reduced index column lies outside [0, 1] holds an index other than 0
    or 1, and is rejected before it is counted as another key.
    """
    bins = 1 << (len(indices) + len(clicks))
    counts = np.zeros(bins, np.intp)
    with _scratch() if arena is None else nullcontext(arena) as arena:
        for s in _tiles(indices[0].size):
            if any(not 0 <= np.bitwise_or.reduce(col[s]) <= 1 for col in indices):
                raise ValidationError("records hold setting indices other than 0 and 1")
            key = arena.take("key", s.stop - s.start, np.int8)
            np.copyto(key, indices[0][s])
            above = arena.take("mask", key.size, np.bool_)
            for col in indices[1:]:
                key += key  # << 1, without the shift's range checks
                key |= col[s]
            for col in clicks:
                key += key
                key |= np.greater(col[s], 0, out=above)
            counts += np.bincount(_index(key, arena), minlength=bins)
    return counts


def _tally(trials: Trials) -> np.ndarray:
    """counts[a_m_idx, b_m_idx, alpha > 0, beta > 0] of a run's records."""
    return _count((trials.a_m_idx, trials.b_m_idx), (trials.alpha, trials.beta)).reshape(2, 2, 2, 2)


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
        counts = _count((v, m)).reshape(2, 2)
        return _fraction_estimate(int(counts[table[:, None] == table].sum()), v.size)

    return (in_sync(trials.a_v_idx, trials.a_m_idx, trials.settings[0]),
            in_sync(trials.b_v_idx, trials.b_m_idx, trials.settings[1]))


def estimate_s_chsh(trials: Trials, quad: ChoiceQuad) -> EstimateWithError:
    """Bell S from records grouped by measured setting pair (``_s_chsh`` of
    the run's ``_tally``)."""
    return _s_chsh(_tally(trials), trials.settings, quad)


def _s_chsh(tally: np.ndarray, settings: np.ndarray, quad: ChoiceQuad) -> EstimateWithError:
    """Bell S from a run's ``_tally`` on its ``settings`` table.

    A group's alpha*beta is +/-1, so its mean and that mean's variance
    follow from the group's count n and s = n - 2 * (records with alpha !=
    beta) (``_pm1_moments``).  The means are assembled with the (+, -, +, +)
    sign pattern, the variances add, and the result is |S|.
    """
    total = var = 0.0
    for sign, group in _bell_groups(tally, settings, quad):
        n = int(group.sum())
        mean, group_var = _pm1_moments(n - 2 * int(group[0, 1] + group[1, 0]), n)
        total += sign * mean
        var += group_var
    return EstimateWithError(abs(total), math.sqrt(var), int(tally.sum()))


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
    """S' from coincidence records plus the two single-polarizer runs
    (``_s_prime`` of each run's ``_tally``)."""
    runs = (trials, alice_only, bob_only)
    return _s_prime(map(_tally, runs), [t.settings for t in runs], quad)


def _s_prime(tallies: Iterable[np.ndarray], tables: Sequence[np.ndarray],
             quad: ChoiceQuad) -> EstimateWithError:
    """S' from the ``_tally`` of the main, Alice-only and Bob-only runs, on
    their settings ``tables`` in the same order.  ``tallies`` is read in
    that order as each is needed, so a lazy one counts a singles run only
    after the main run's groups pass.

    The four both-click fractions come from the main run grouped by
    measured pair; the subtracted singles terms are the click fractions at
    Alice's alternate setting (Bob's polarizer absent) and at Bob's first
    setting (Alice's polarizer absent), each normalized by its own group
    count, the stand-in for the no-polarizer rate that counts every pair.
    Every fraction is a ratio of counts; a singles term reads its station's
    marginal.  The main run's groups are checked first, then Alice's
    singles, then Bob's.
    """
    tallies = iter(tallies)
    main = next(tallies)
    total = var = 0.0
    for sign, group in _bell_groups(main, tables[0], quad):
        est = _fraction_estimate(int(group[1, 1]), int(group.sum()))
        total += sign * est.value
        var += est.std_error**2
    sa = _singles(next(tallies).sum(axis=(1, 3)), tables[1][0], quad.a_alt,
                  "Alice's alternate setting")
    sb = _singles(next(tallies).sum(axis=(0, 2)), tables[2][1], quad.b, "Bob's first setting")
    total -= sa.value + sb.value
    var += sa.std_error**2 + sb.std_error**2
    # the four groups partition the records
    return EstimateWithError(total, math.sqrt(var), int(main.sum()))
