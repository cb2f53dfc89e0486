"""Switching-synchronization algebra for Bell tests with setting choice.

When a station switches its polarizer between two settings during photon
flight, the texture imprinted on the source can lag the setting actually used
for the measurement.  Each analyzer sends its own texture to the source, so
each station's share of the hidden-angle mixture is fixed by that station
alone.  Writing f_A for the fraction of time Alice's texture-epoch setting
equals her measurement setting (f_B for Bob) and w_A, w_B for the stations'
texture weights, the correlation at measured settings (a, b) with alternates
(a', b') is

    E(a,b) = w_A * [f_A c(a) + (1-f_A) c(a')] + w_B * [f_B c(b) + (1-f_B) c(b')]

    c(s) = cos(2(a-s)) * cos(2(b-s)),

the atom sum of a texture pair at s and s - pi/2.  Every closed form here is
built from this one expression.  With equal weights, c(a) = c(b) =
cos(2(a-b)) and f = (f_A + f_B)/2, f' = (f_A - f_B)/2 split it into in-sync,
out-of-sync and unbalanced parts,

    E = f cos(2(a-b)) + (1-f) E_os + f' E_ub,
    E_os = [c(a') + c(b')] / 2,        E_ub = [c(b') - c(a')] / 2.

Sign conventions for the two Bell quantities, at measured settings drawn from
the quad (a, b, a', b'):

    S  = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|        LHV bound |S| <= 2
    S' = n(a,b) - n(a,b') + n(a',b) + n(a',b') - 1      LHV bound -1 <= S' <= 0

Malus outcomes give the both-click probability n = (1 + E)/4 for every
mixture built here (each station clicks half the time, and the atom pairs at
s and s - pi/2 average Malus's law to 1/2), so with S_signed the sum inside
|.| above, S' = S_signed/4 - 1/2.  E has no f_A f_B term, so S_signed =
c0 + c_A f_A + c_B f_B, with (c0, c_A, c_B) from ``bell_coefficients`` fixed
by the quad and the weights ((0, sqrt 2, sqrt 2) at the standard quad); every
S and S' under choice evaluates that map, and a sweep builds it once per quad.
The Monte Carlo engine estimates n and the singles terms directly instead of
assuming them, and the atom expansions ``q_fc``, ``s_chsh_mixture`` and
``s_prime_mixture`` stay as an independent check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .models import (
    WEIGHT_TOL,
    HvMixture,
    Model,
    ValidationError,
    coincidence_mixture,
    corr,
    corr_mixture,
    normalize_angle,
    texture_mixture,
)

SQRT2 = math.sqrt(2.0)

#: Round trip time (texture out, photon back) in the 1982 reference setup.
ASPECT_ROUND_TRIP = 43e-9
ASPECT_FREQUENCY_ALICE = 46.2e6
ASPECT_FREQUENCY_BOB = 48.4e6

#: Beyond 2**52 periods a float64 count of periods has no fractional part,
#: so a square wave can no longer resolve its half periods.
MAX_PERIODS = 2.0**52


@dataclass(frozen=True)
class ChoiceQuad:
    """The four candidate settings: Alice picks a or a_alt, Bob b or b_alt."""

    a: float
    b: float
    a_alt: float
    b_alt: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "a_alt", "b_alt"):
            object.__setattr__(self, name, normalize_angle(getattr(self, name)))

    def bell_terms(self) -> tuple[tuple["ChoiceQuad", float], ...]:
        """The four measured-pair arrangements entering S and S', with signs.

        Each term treats its own (a, b) as the measured pair and carries the
        other two settings as the alternates a station may have shown to the
        texture.
        """
        a, b, aa, bb = self.a, self.b, self.a_alt, self.b_alt
        return (
            (ChoiceQuad(a, b, aa, bb), 1.0),
            (ChoiceQuad(a, bb, aa, b), -1.0),
            (ChoiceQuad(aa, b, a, bb), 1.0),
            (ChoiceQuad(aa, bb, a, b), 1.0),
        )


#: The S-optimal configuration used throughout: (0, pi/8, pi/4, 3pi/8).
STANDARD_QUAD = ChoiceQuad(0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8)


@dataclass(frozen=True)
class StationConfig:
    """One observer's settings, switching behavior and source distance.

    ``switch_frequency`` is the square-wave frequency in Hz.  ``switch_phase``
    is in radians within one switching period: the wave shows ``setting_1``
    for phases in [0, pi) mod 2pi and ``setting_2`` for [pi, 2pi), so at
    frequency 0 the setting is fixed at the one the phase picks.
    ``round_trip_time`` is 2d/v for source-detector distance d (texture
    travels out, the photon travels back).  ``switching`` selects the
    periodic square wave or a fair random choice per pair, whose texture
    epoch shows the measured setting with probability ``sync_probability``.
    """

    setting_1: float
    setting_2: float
    switch_frequency: float = 0.0
    switch_phase: float = 0.0
    round_trip_time: float = ASPECT_ROUND_TRIP
    switching: str = "periodic"
    sync_probability: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "setting_1", normalize_angle(self.setting_1))
        object.__setattr__(self, "setting_2", normalize_angle(self.setting_2))
        for name in ("switch_frequency", "switch_phase", "round_trip_time"):
            value = getattr(self, name)
            if not math.isfinite(value):  # else the timeline's indices all read 0
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.switch_frequency < 0.0:
            raise ValidationError("switch_frequency must be >= 0")
        if self.round_trip_time <= 0.0:
            raise ValidationError("round_trip_time must be > 0")
        if self.switching not in ("periodic", "random"):
            raise ValidationError(f"unknown switching mode {self.switching!r}")
        if not 0.0 <= self.sync_probability <= 1.0:
            raise ValidationError(f"sync_probability {self.sync_probability!r} outside [0, 1]")
        if self.switching == "periodic" and self.sync_probability != 0.5:
            raise ValidationError("sync_probability applies to random switching only")

    @classmethod
    def fixed(cls, setting: float, round_trip_time: float = ASPECT_ROUND_TRIP) -> "StationConfig":
        return cls(setting, setting, 0.0, 0.0, round_trip_time)

    @classmethod
    def random_choice(
        cls, setting_1: float, setting_2: float, round_trip_time: float = ASPECT_ROUND_TRIP
    ) -> "StationConfig":
        return cls(setting_1, setting_2, 0.0, 0.0, round_trip_time, switching="random")

    @property
    def settings(self) -> tuple[float, float]:
        return (self.setting_1, self.setting_2)

    def sync_fraction(self) -> float:
        """Fraction of time the texture-epoch setting matches the measured one."""
        return _switching_fraction(self, self.switch_frequency)


def _switching_fraction(station: StationConfig, frequency: float) -> float:
    """``station.sync_fraction()`` at ``frequency``, a negative frequency rejected."""
    if frequency < 0.0:
        raise ValidationError("switch_frequency must be >= 0")
    if station.switching == "random":
        return station.sync_probability
    return sync_fraction(frequency, station.round_trip_time)


def sync_fraction(frequency: float, round_trip_time: float) -> float:
    """In-sync fraction for 50%-duty square-wave switching.

    1 - 2|x - round(x)| with x = T*nu for round trip T and frequency nu: a
    triangle wave in x that is 1 whenever the round trip holds an integer
    number of switching periods and 0 at half-integers.  This is
    (1/pi) * arccos(cos(2*pi*(x - 1/2))) without the arccos, which loses
    half the digits near the nodes.  A station that never switches (nu = 0,
    x = 0) is always in sync, f = 1 exactly.  An x beyond ``MAX_PERIODS``,
    or not finite, is rejected.
    """
    if round_trip_time <= 0.0:
        raise ValidationError("round_trip_time must be > 0")
    if frequency < 0.0:
        raise ValidationError("frequency must be >= 0")
    x = round_trip_time * frequency
    if not x <= MAX_PERIODS:
        raise ValidationError(
            f"a {round_trip_time!r} s round trip holds {x:.3g} periods at {frequency!r} Hz, "
            f"more than 2**52: its half periods cannot be resolved"
        )
    return 1.0 - 2.0 * abs(x - round(x))


@dataclass(frozen=True)
class SyncFractions:
    """Per-station in-sync fractions and their mixed forms f, f'."""

    f_alice: float
    f_bob: float

    def __post_init__(self) -> None:
        for v in (self.f_alice, self.f_bob):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"sync fraction {v!r} outside [0, 1]")

    @property
    def f(self) -> float:
        return (self.f_alice + self.f_bob) / 2.0

    @property
    def f_prime(self) -> float:
        return (self.f_alice - self.f_bob) / 2.0


def mix_fractions(f_alice: float, f_bob: float) -> SyncFractions:
    """Combine per-station sync fractions into f = mean, f' = half-difference."""
    return SyncFractions(float(f_alice), float(f_bob))


def fractions_for(alice: StationConfig, bob: StationConfig) -> SyncFractions:
    """Sync fractions implied by two station configurations."""
    return SyncFractions(alice.sync_fraction(), bob.sync_fraction())


EQUAL_WEIGHTS = (0.5, 0.5)


def check_station_weights(weights: tuple[float, float]) -> None:
    """Texture weights (w_A, w_B) must be nonnegative and sum to 1 (so not nan)."""
    w_a, w_b = weights
    if not (w_a >= 0.0 and w_b >= 0.0 and abs(w_a + w_b - 1.0) <= WEIGHT_TOL):
        raise ValidationError(f"station weights {weights!r} must be >= 0 and sum to 1")


def q_fc(
    quad: ChoiceQuad,
    sf: SyncFractions,
    station_weights: tuple[float, float] = EQUAL_WEIGHTS,
) -> HvMixture:
    """Hidden-angle mixture for measured pair (quad.a, quad.b) under choice.

    Convex combination of the four two-station texture mixtures, weighted by
    the probabilities that each station's texture-epoch setting was the
    measured one (f) or its alternate (1 - f).  Atoms are kept per term
    (16 for distinct settings); use ``.merged()`` for the collapsed form.
    """
    fa, fb = sf.f_alice, sf.f_bob
    parts = (
        (fa * fb, (quad.a, quad.b)),
        (fa * (1.0 - fb), (quad.a, quad.b_alt)),
        ((1.0 - fa) * fb, (quad.a_alt, quad.b)),
        ((1.0 - fa) * (1.0 - fb), (quad.a_alt, quad.b_alt)),
    )
    atoms: list[tuple[float, float]] = []
    for p, settings in parts:
        sub = texture_mixture(settings, station_weights)
        atoms.extend((angle, p * w) for angle, w in sub.atoms)
    return HvMixture(tuple(atoms))


def corr_fc(
    quad: ChoiceQuad,
    sf: SyncFractions,
    station_weights: tuple[float, float] = EQUAL_WEIGHTS,
) -> float:
    """Measured correlation E(a, b) under setting choice, per station.

    Identical to the atom expansion corr_mixture(a, b, q_fc(quad, sf, w)).
    """
    check_station_weights(station_weights)
    a, b = quad.a, quad.b

    def c(s: float) -> float:
        return math.cos(2.0 * (a - s)) * math.cos(2.0 * (b - s))

    w_a, w_b = station_weights
    fa, fb = sf.f_alice, sf.f_bob
    return (w_a * (fa * c(a) + (1.0 - fa) * c(quad.a_alt))
            + w_b * (fb * c(b) + (1.0 - fb) * c(quad.b_alt)))


def _signed_chsh(quad: ChoiceQuad, corr_of: Callable[[ChoiceQuad], float]) -> float:
    """E(a,b) - E(a,b') + E(a',b) + E(a',b'), each term its own measured pair."""
    return sum(sign * corr_of(term) for term, sign in quad.bell_terms())


def bell_coefficients(
    quad: ChoiceQuad,
    station_weights: tuple[float, float] = EQUAL_WEIGHTS,
) -> tuple[float, float, float]:
    """(c0, c_A, c_B) of S_signed = c0 + c_A f_A + c_B f_B under choice, from
    ``corr_fc`` at three corners of the (f_A, f_B) square."""

    def signed(f_alice: float, f_bob: float) -> float:
        sf = SyncFractions(f_alice, f_bob)
        return _signed_chsh(quad, lambda term: corr_fc(term, sf, station_weights))

    c0 = signed(0.0, 0.0)
    return c0, signed(1.0, 0.0) - c0, signed(0.0, 1.0) - c0


def bell_values(coefficients: tuple[float, float, float], f_alice: float,
                f_bob: float) -> tuple[float, float]:
    """(S', S) at sync fractions (f_A, f_B) from the affine map:
    S' = S_signed/4 - 1/2, S = |S_signed|."""
    c0, c_alice, c_bob = coefficients
    signed = c0 + c_alice * f_alice + c_bob * f_bob
    return signed / 4.0 - 0.5, abs(signed)


def s_chsh_fc(
    quad: ChoiceQuad,
    sf: SyncFractions,
    station_weights: tuple[float, float] = EQUAL_WEIGHTS,
) -> float:
    """Bell S under setting choice; equals 2*sqrt(2)*f at the standard quad."""
    return bell_values(bell_coefficients(quad, station_weights), sf.f_alice, sf.f_bob)[1]


def s_prime_fc(
    quad: ChoiceQuad,
    sf: SyncFractions,
    station_weights: tuple[float, float] = EQUAL_WEIGHTS,
) -> float:
    """S' under setting choice: S_signed/4 - 1/2."""
    return bell_values(bell_coefficients(quad, station_weights), sf.f_alice, sf.f_bob)[0]


def s_chsh_fixed(model: Model, quad: ChoiceQuad) -> float:
    """Bell S for a fixed-settings model (no switching)."""
    return abs(_signed_chsh(quad, lambda term: corr(model, term.a, term.b)))


def s_prime_fixed(model: Model, quad: ChoiceQuad) -> float:
    """S' for a fixed-settings model with Malus outcomes."""
    if model is Model.MAX_CLASSICAL_LHV:
        raise ValidationError(f"no both-click closed form for {model!r}")
    return _signed_chsh(quad, lambda term: corr(model, term.a, term.b)) / 4.0 - 0.5


def s_prime_fc_closed(f: float) -> float:
    """S' at the standard quad as a function of f alone: -1/2 + f/sqrt(2)."""
    if not 0.0 <= f <= 1.0:
        raise ValidationError(f"f {f!r} outside [0, 1]")
    return -0.5 + f / SQRT2


# --- atom expansion: an independent check of the closed forms ---------------


def s_prime(
    n_values: tuple[float, float, float, float],
    singles: tuple[float, float] = (0.5, 0.5),
) -> float:
    """Assemble S' from the four both-click probabilities and the singles terms.

    n_values are n(a,b), n(a,b'), n(a',b), n(a',b') in that order; the
    combination is n1 - n2 + n3 + n4 - singles_A - singles_B.
    """
    for v in (*n_values, *singles):
        if not -1e-12 <= v <= 1.0 + 1e-12:
            raise ValidationError(f"probability {v!r} outside [0, 1]")
    n1, n2, n3, n4 = n_values
    return n1 - n2 + n3 + n4 - singles[0] - singles[1]


def s_chsh_mixture(
    quad: ChoiceQuad,
    sf: SyncFractions,
    station_weights: tuple[float, float] = EQUAL_WEIGHTS,
) -> float:
    """Bell S from the mixture expansion."""
    total = 0.0
    for term, sign in quad.bell_terms():
        total += sign * corr_mixture(term.a, term.b, q_fc(term, sf, station_weights))
    return abs(total)


def s_prime_mixture(
    quad: ChoiceQuad,
    sf: SyncFractions,
    station_weights: tuple[float, float] = EQUAL_WEIGHTS,
) -> float:
    """S' from the both-click probabilities of the mixture expansion."""
    values = []
    for term, _ in quad.bell_terms():
        values.append(coincidence_mixture(term.a, term.b, q_fc(term, sf, station_weights)))
    return s_prime(tuple(values))
