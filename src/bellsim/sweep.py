"""Parameter sweeps over switching frequency, sync fraction and distance split.

The central prediction being mapped: with both stations switching at a
common frequency nu against a fixed round trip T, the Bell quantities follow
the triangle wave of the in-sync fraction, so S'(nu) oscillates between the
quantum ceiling (-1/2 + 1/sqrt(2) ~ 0.207 at nu = n/T) and the fully
out-of-sync floor (-1/2 at nu = (n + 1/2)/T), while S runs from 2*sqrt(2)
down to 0.  A sweep builds S_signed = c0 + c_A f_A + c_B f_B once for its
quad (``bell_coefficients``) and evaluates it at every point, at the sync
fractions of the stations that the optional Monte Carlo estimate runs.

The ``distance_ratio`` variable realizes the asymmetric-distance protocol:
Alice's polarizer is held still (its setting chosen per pair, its texture
always in sync), Bob switches at the swept frequency, and the texture
weight of each station follows from the configured distances (nearer
polarizer textures more strongly, w = other_distance / total by default).  With all weight on Bob
the oscillation has full amplitude; with all weight on still Alice the
series is constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from . import _lazy_engine
from .choice import (
    ASPECT_FREQUENCY_ALICE,
    ASPECT_FREQUENCY_BOB,
    ASPECT_ROUND_TRIP,
    EQUAL_WEIGHTS,
    ChoiceQuad,
    STANDARD_QUAD,
    StationConfig,
    SyncFractions,
    _switching_fraction,
    bell_coefficients,
    bell_values,
    mix_fractions,
    s_chsh_fixed,
    s_prime_fixed,
    sync_fraction,
)
# importable here so that benchmarks/spans.py can wrap them by this module's name
from .choice import s_chsh_fc, s_chsh_mixture, s_prime_fc, s_prime_mixture  # noqa: F401
from .models import Model, ValidationError, _check_count, _check_fits

# engine names, bound when a Monte Carlo path first runs (no numpy at import);
# the last three are only here for benchmarks/spans.py, which wraps them by name
_bind_engine, __getattr__ = _lazy_engine(globals(), (
    "RngSpec", "_check_memory", "_choice_stations", "_s_chsh", "_s_prime", "run_timeline",
    "estimate_s_chsh", "estimate_s_prime", "run_choice_trials"))

DEFAULT_SEED = 123456789

#: Recorded single-channel Bell value of the 1982 experiment.
ASPECT_1982_S_PRIME_MEASURED = 0.101
ASPECT_1982_S_PRIME_ERROR = 0.020
#: Per-station sync fractions as reported for the 1982 experiment (two digits).
ASPECT_1982_REPORTED_F_ALICE = 0.97
ASPECT_1982_REPORTED_F_BOB = 0.83

#: Phase differences within this of a multiple of pi count as locked waves.
_PHASE_ATOL = 1e-12

#: Bytes per grid point that the memory check counts for ``--points``.  The
#: columns and rendered table or plot of a closed-form sweep or of ``curves``
#: peak at 0.42-0.95 kB a point (csv, jsonl or svg; tracemalloc, 100k points).
POINT_BYTES = 2048


class SweepError(RuntimeError):
    """A sweep point failed; the message reports the offending x."""


class SweepInputError(SweepError, ValidationError):
    """A sweep point failed on an input its estimators reject (too few
    pairs): a ``ValidationError``, so the CLI exits 1 as ``bell`` does."""


class SweepVariable(str, Enum):
    FREQUENCY_COMMON = "frequency_common"
    FREQUENCY_ALICE_ONLY = "frequency_alice_only"
    F_DIRECT = "f_direct"
    DISTANCE_RATIO = "distance_ratio"


CLOSED_FORM = "closed_form"
MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, over which grid, and with which engines."""

    variable: SweepVariable
    start: float
    stop: float
    num_points: int = 1201
    quad: ChoiceQuad = STANDARD_QUAD
    alice: StationConfig = field(default_factory=lambda: aspect_stations()[0])
    bob: StationConfig = field(default_factory=lambda: aspect_stations()[1])
    engines: tuple[str, ...] = (CLOSED_FORM,)
    mc_pairs_per_point: int = 200_000
    mc_duration: float = 1e-3
    station_weights: tuple[float, float] | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "variable", SweepVariable(self.variable))
        except ValueError:
            raise ValidationError(f"unknown sweep variable {self.variable!r}") from None
        for name, value in (("start", self.start), ("stop", self.stop),
                            ("stop - start", self.stop - self.start)):
            if not math.isfinite(value):  # else the grid holds nan
                raise ValidationError(f"sweep {name} must be finite, got {value!r}")
        if not self.start < self.stop:
            raise ValidationError("sweep range must have start < stop")
        if type(self.num_points) is int and self.num_points < 2:
            raise ValidationError("sweep needs at least two points")
        _check_count("num_points", self.num_points, 2)  # a float or a bool is no count
        for e in self.engines:
            if e not in (CLOSED_FORM, MONTE_CARLO):
                raise ValidationError(f"unknown engine {e!r}")
        if MONTE_CARLO in self.engines:
            if type(self.mc_pairs_per_point) is int and self.mc_pairs_per_point < 1:
                raise ValidationError("monte_carlo engine needs mc_pairs_per_point >= 1")
            _check_count("mc_pairs_per_point", self.mc_pairs_per_point, 1)
        if MONTE_CARLO in self.engines and not math.isfinite(self.mc_duration):
            # else the first Monte Carlo point fails, after the closed-form columns
            raise ValidationError(f"monte_carlo engine needs a finite duration, "
                                  f"got {self.mc_duration!r}")
        if MONTE_CARLO in self.engines and self.mc_duration <= 0.0:
            raise ValidationError("monte_carlo engine needs duration > 0")

    def grid(self) -> list[float]:
        """``num_points`` evenly spaced values, the last ``stop`` exactly."""
        step = (self.stop - self.start) / (self.num_points - 1)
        return [self.start + i * step for i in range(self.num_points - 1)] + [self.stop]

    def resolved_weights(self) -> tuple[float, float]:
        """Texture weight split between the stations.

        Explicit weights win; otherwise the distance-ratio protocol divides
        weight by closeness (w_alice = T_bob / (T_alice + T_bob)) and every
        other mode uses the symmetric split.
        """
        if self.station_weights is not None:
            return self.station_weights
        if self.variable is SweepVariable.DISTANCE_RATIO:
            total = self.alice.round_trip_time + self.bob.round_trip_time
            return (self.bob.round_trip_time / total, self.alice.round_trip_time / total)
        return EQUAL_WEIGHTS


@dataclass(frozen=True)
class ReferenceLines:
    """Fixed-model values for the sweep's quad, plus the LHV bounds."""

    quantum_s_prime: float
    quantum_s: float
    semiclassical_s_prime: float
    semiclassical_s: float
    lhv_s_prime_min: float = -1.0
    lhv_s_prime_max: float = 0.0
    lhv_s_max: float = 2.0

    @classmethod
    def for_quad(cls, quad: ChoiceQuad) -> "ReferenceLines":
        return cls(
            quantum_s_prime=s_prime_fixed(Model.QUANTUM, quad),
            quantum_s=s_chsh_fixed(Model.QUANTUM, quad),
            semiclassical_s_prime=s_prime_fixed(Model.SEMI_CLASSICAL, quad),
            semiclassical_s=s_chsh_fixed(Model.SEMI_CLASSICAL, quad),
        )


@dataclass(frozen=True)
class SweepSeries:
    """A sweep's table, one cell per grid point in each of its ``columns``:
    x, f_alice, f_bob, s_prime, s_chsh, mc_s_prime, mc_s_prime_err,
    mc_s_chsh and mc_s_chsh_err (the mc_* cells None without Monte Carlo)."""

    spec: SweepSpec
    reference: ReferenceLines
    columns: dict[str, Sequence]

    @property
    def points(self) -> Sequence[float]:
        """The grid: the x column."""
        return self.columns["x"]


def _grid_fractions(spec: SweepSpec, grid: Sequence[float],
                    swept: tuple[bool, bool]) -> tuple[Sequence[float], Sequence[float]]:
    """The f_A and f_B columns over ``grid``, each checked to lie in [0, 1]:
    a ``swept`` station's by ``_switching_fraction`` at each x, a fixed
    one's once, and for f_direct the grid itself."""
    columns = (grid, grid) if spec.variable is SweepVariable.F_DIRECT else tuple(
        [_switching_fraction(station, x) for x in grid] if at_x
        else (station.sync_fraction(),) * len(grid)
        for station, at_x in zip((spec.alice, spec.bob), swept))
    for f in itertools.chain(*columns):
        if not 0.0 <= f <= 1.0:
            raise ValidationError(f"f value {f!r} outside [0, 1]")
    return columns


def measure_bell(
    quad: ChoiceQuad,
    n: int,
    rng: RngSpec,
    *,
    sf: SyncFractions | None = None,
    stations: tuple[StationConfig, StationConfig] | None = None,
    duration: float = 1e-3,
    station_weights: tuple[float, float] = EQUAL_WEIGHTS,
    workers: int = 1,
) -> tuple[EstimateWithError, EstimateWithError]:
    """S' and S from one main run plus the Alice-only and Bob-only runs.

    Pairs come from the switching timeline of ``stations`` over
    ``duration`` seconds, on ``workers`` threads; without stations, of two
    random-switching stations in sync with probabilities ``sf``
    (``_choice_stations``).  A periodic station at frequency 0 (a still
    polarizer) shows one setting per timeline, so it is measured as the
    random station in sync with probability 1: its measured setting is a
    fair choice per pair, its texture always shows that setting, and its
    own phase is not used.  Two random stations read no times, so their
    pairs lie on an emission grid.  The main run is on stream
    ``rng.stream_id + 1``, Alice-only (Bob's polarizer removed) on +2 and
    Bob-only on +3, ``n`` pairs each.

    Every run keeps no records (``run_timeline(..., records=False)``): each
    chunk counts its own records, in draw order, in its worker, and the run
    returns only its tally, so a measurement holds no run's columns and its
    memory does not grow with ``n``.  S' and S both read the main run's
    tally.  On a grid the estimates equal ``estimate_s_prime`` and
    ``estimate_s_chsh`` of the records runs; with a periodic station they
    share those estimates' law, as the records runs sort their times.

    Equal-frequency waves read in phase or in anti-phase at photon arrival
    (t + T/2) show only two of the four measured pairs, so Bob's is offset a
    quarter period.  Those waves are locked when (phi_B - phi_A) +
    pi nu (T_B - T_A) is within 1e-12 rad of a multiple of pi.
    """
    _bind_engine()
    if sf is None and stations is None:
        raise ValidationError("measure_bell needs sync fractions (sf) or stations")
    alice, bob = (
        replace(s, switching="random", sync_probability=1.0)
        if s.switching == "periodic" and s.switch_frequency == 0.0 else s
        for s in (_choice_stations(quad, sf) if stations is None else stations))
    # at equal frequencies, Bob's wave phase minus Alice's as each is read
    # at photon arrival, t + T/2
    gap = (bob.switch_phase - alice.switch_phase) + math.pi * bob.switch_frequency * (
        bob.round_trip_time - alice.round_trip_time)
    if (alice.switching == bob.switching == "periodic"
            and alice.switch_frequency == bob.switch_frequency
            and abs(math.remainder(gap, math.pi)) <= _PHASE_ATOL):
        bob = replace(bob, switch_phase=bob.switch_phase + math.pi / 2)
    emission = "grid" if alice.switching == bob.switching == "random" else "uniform"
    # main, Alice-only and Bob-only
    runs = [run_timeline(alice, bob, n, duration, RngSpec(rng.seed, rng.stream_id + k),
                         emission=emission, station_weights=station_weights, pbs=pbs,
                         workers=workers, records=False)
            for k, pbs in ((1, (True, True)), (2, (True, False)), (3, (False, True)))]
    return (_s_prime([run.counts for run in runs], [run.settings for run in runs], quad),
            _s_chsh(runs[0].counts, runs[0].settings, quad))


def run_sweep(spec: SweepSpec) -> SweepSeries:
    """Evaluate the sweep; Monte Carlo failures abort with the offending x.

    A ``ValidationError`` (such as too few pairs per point) is raised as
    ``SweepInputError``, still a ``ValidationError``; any other failure as
    ``SweepError``.  A ``--mc-pairs`` too large to hold is rejected before
    the first point, and so is a ``--points`` grid too large to hold.
    ``distance_ratio`` holds Alice's polarizer still (its series' spec has
    her periodic at frequency 0), so ``measure_bell`` measures her as a
    random station in sync with probability 1.  The f columns come whole and checked from
    ``_grid_fractions`` before the first Monte Carlo point, and S' and S from
    ``bell_values``; only a Monte Carlo point builds a ``SyncFractions`` or
    ``StationConfig``.
    """
    if spec.variable is SweepVariable.DISTANCE_RATIO:
        spec = replace(spec, alice=replace(spec.alice, switch_frequency=0.0, switching="periodic",
                                           sync_probability=0.5))
    _check_fits("--points", spec.num_points, POINT_BYTES, "sweep points")
    if MONTE_CARLO in spec.engines:
        _bind_engine()
        _check_memory(spec.mc_pairs_per_point, "--mc-pairs")
    weights = spec.resolved_weights()
    bell = bell_coefficients(spec.quad, weights)
    v = spec.variable  # swept: whether Alice's and Bob's frequency is the grid value
    swept = (v is not SweepVariable.DISTANCE_RATIO, v is not SweepVariable.FREQUENCY_ALICE_ONLY)
    grid = tuple(spec.grid())  # f_direct's f columns are this one, so it is immutable
    f_alice, f_bob = _grid_fractions(spec, grid, swept)
    s_prime, s_chsh = zip(*map(bell_values, itertools.repeat(bell), f_alice, f_bob))
    # (S', its error, S, its error) at each point
    estimates = [(None,) * 4] * len(grid)
    if MONTE_CARLO in spec.engines:
        for i, x in enumerate(grid):
            stations = None if v is SweepVariable.F_DIRECT else tuple(
                replace(s, switch_frequency=x) if at_x else s
                for s, at_x in zip((spec.alice, spec.bob), swept))
            try:
                mc_p, mc_c = measure_bell(
                    spec.quad, spec.mc_pairs_per_point, RngSpec(spec.seed, i * 8),
                    sf=SyncFractions(f_alice[i], f_bob[i]), stations=stations,
                    duration=spec.mc_duration, station_weights=weights,
                )
            except Exception as exc:
                error = SweepInputError if isinstance(exc, ValidationError) else SweepError
                raise error(f"monte carlo failed at {spec.variable.value} = {x!r}: {exc}") from exc
            estimates[i] = mc_p.value, mc_p.std_error, mc_c.value, mc_c.std_error
    mc_s_prime, mc_s_prime_err, mc_s_chsh, mc_s_chsh_err = zip(*estimates)
    columns = {"x": grid, "f_alice": f_alice, "f_bob": f_bob, "s_prime": s_prime,
               "s_chsh": s_chsh, "mc_s_prime": mc_s_prime, "mc_s_prime_err": mc_s_prime_err,
               "mc_s_chsh": mc_s_chsh, "mc_s_chsh_err": mc_s_chsh_err}
    return SweepSeries(spec, ReferenceLines.for_quad(spec.quad), columns)


@dataclass(frozen=True)
class Extremum:
    x: float
    value: float
    kind: str  # "max" | "min"


def find_extrema(xs: list[float], ys: list[float], atol: float = 1e-9) -> list[Extremum]:
    """Interior local extrema by discrete comparison, plateau-aware.

    Values within ``atol`` count as equal, so float-level wiggle in an
    analytically constant series is a single plateau.  A run of equal values
    counts once, located at its middle sample; runs touching either boundary
    are not classified, and a constant series has no extrema.
    """
    if len(xs) != len(ys):
        raise ValidationError("x and y lengths differ")
    if len(xs) < 3:
        raise ValidationError("need at least three points")
    runs: list[tuple[int, int, float]] = []
    start = 0
    for i in range(1, len(ys) + 1):
        if i == len(ys) or abs(ys[i] - ys[start]) > atol:
            runs.append((start, i - 1, ys[start]))
            start = i
    out = []
    for k in range(1, len(runs) - 1):
        lo, hi, y = runs[k]
        prev_y = runs[k - 1][2]
        next_y = runs[k + 1][2]
        mid = (lo + hi) // 2
        if y > prev_y + atol and y > next_y + atol:
            out.append(Extremum(xs[mid], y, "max"))
        elif y < prev_y - atol and y < next_y - atol:
            out.append(Extremum(xs[mid], y, "min"))
    return out


def series_extrema(series: SweepSeries, which: str = "s_prime") -> list[Extremum]:
    """Extrema of one column of a sweep series."""
    if which not in series.columns:
        raise ValidationError(f"unknown sweep column {which!r} (choose from "
                              f"{' | '.join(series.columns)})")
    if None in series.columns[which]:
        raise ValidationError(f"sweep column {which!r} has no values: Monte Carlo did not run")
    return find_extrema(series.points, series.columns[which])


@dataclass(frozen=True)
class AspectChain:
    """One reconstruction of the 1982 figures from a pair of sync fractions."""

    fractions: SyncFractions
    s_prime: float
    s_chsh: float


@dataclass(frozen=True)
class AspectReport:
    """Predicted Bell values for the 1982 parameters vs the recorded result.

    ``exact`` evaluates the square-wave sync fractions at full precision;
    ``reported`` chains the two-digit fractions as they were reported for
    the experiment (0.97 and 0.83), which is where the familiar headline
    S' = 0.136 comes from.
    """

    exact: AspectChain
    reported: AspectChain
    measured_s_prime: float = ASPECT_1982_S_PRIME_MEASURED
    measured_s_prime_error: float = ASPECT_1982_S_PRIME_ERROR

    def as_dict(self) -> dict:
        return {
            "f_alice": self.exact.fractions.f_alice,
            "f_bob": self.exact.fractions.f_bob,
            "f": self.exact.fractions.f,
            "f_prime": self.exact.fractions.f_prime,
            "s_prime": self.exact.s_prime,
            "s_chsh": self.exact.s_chsh,
            "reported_f_alice": self.reported.fractions.f_alice,
            "reported_f_bob": self.reported.fractions.f_bob,
            "reported_f": self.reported.fractions.f,
            "reported_f_prime": self.reported.fractions.f_prime,
            "reported_s_prime": self.reported.s_prime,
            "reported_s_chsh": self.reported.s_chsh,
            "measured_s_prime": self.measured_s_prime,
            "measured_s_prime_error": self.measured_s_prime_error,
            "reported_minus_measured": self.reported.s_prime - self.measured_s_prime,
        }


def aspect_point() -> AspectReport:
    """Reconstruct the 1982 configuration: 46.2 / 48.4 MHz over a 43 ns round trip."""
    bell = bell_coefficients(STANDARD_QUAD)
    exact, reported = (
        AspectChain(sf, *bell_values(bell, sf.f_alice, sf.f_bob))
        for sf in (
            mix_fractions(sync_fraction(ASPECT_FREQUENCY_ALICE, ASPECT_ROUND_TRIP),
                          sync_fraction(ASPECT_FREQUENCY_BOB, ASPECT_ROUND_TRIP)),
            mix_fractions(ASPECT_1982_REPORTED_F_ALICE, ASPECT_1982_REPORTED_F_BOB),
        )
    )
    return AspectReport(exact=exact, reported=reported)


def aspect_stations(quad: ChoiceQuad = STANDARD_QUAD) -> tuple[StationConfig, StationConfig]:
    """Station configurations matching the 1982 parameters."""
    alice = StationConfig(quad.a, quad.a_alt, ASPECT_FREQUENCY_ALICE)
    bob = StationConfig(quad.b, quad.b_alt, ASPECT_FREQUENCY_BOB)
    return alice, bob
