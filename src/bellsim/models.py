"""Closed-form correlation and detection models for two-photon polarization tests.

Conventions used throughout the package:

    Angles are polarizer orientations in radians with period pi; the canonical
    representative lives in the half-open interval (-pi/2, pi/2].

    E(a, b) is the correlation of the +/-1 outcomes at stations with polarizer
    angles a and b.  Detection follows Malus's law,
    P(+1 | a, lam) = cos^2(a - lam), so P(+1) - P(-1) = cos(2(a - lam)).

Four reference models are provided:

    quantum        E = cos(2(a - b))
    semiclassical  E = cos(2(a - b)) / 2   (uniform hidden angle, Malus response)
    maxclassical   E = 1 - 4*delta/pi      (uniform hidden angle, sign response)
    texture        E = cos(2(a - b))       (hidden angle pinned to the polarizer axes)

The texture model draws the hidden angle from a discrete mixture whose atoms
sit on each station's polarizer axis and its orthogonal axis; with both
stations contributing equally this reproduces the quantum correlation exactly
even though outcomes factorize given the hidden angle.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

HALF_PI = math.pi / 2.0

# Absolute tolerance for "weights sum to one" checks.
WEIGHT_TOL = 1e-12


class ValidationError(ValueError):
    """An input violates a documented contract."""


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


def _check_count(name: str, value: object, least: int) -> None:
    """Reject a ``value`` of parameter ``name`` that is not an integer >=
    ``least``; an integer is what ``operator.index`` takes, and a bool is
    not one."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def normalize_angle(theta: float) -> float:
    """Fold an angle into the canonical polarization interval (-pi/2, pi/2]."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValidationError(f"angle must be finite, got {theta!r}")
    # fmod is exact and leaves (-pi, pi) as it is; each shift is exact too
    # (Sterbenz), so a canonical angle comes back unchanged
    r = math.fmod(theta, math.pi)
    if r > HALF_PI:
        r -= math.pi
    if r <= -HALF_PI:
        r += math.pi
    return r + 0.0  # collapse -0.0


class Model(str, Enum):
    """The four correlation models."""

    QUANTUM = "qm"
    SEMI_CLASSICAL = "sc"
    MAX_CLASSICAL_LHV = "mclhv"
    TEXTURE = "vt"


@dataclass(frozen=True)
class HvMixture:
    """Distribution of the hidden polarization angle.

    A weighted set of discrete atoms plus an optional uniform component
    (density 1/pi over one period).  Atom angles are stored normalized.
    Duplicate angles are permitted; weights are additive in expectation.
    Total mass must be 1 within ``WEIGHT_TOL``.
    """

    atoms: tuple[tuple[float, float], ...]
    uniform_weight: float = 0.0

    def __post_init__(self) -> None:
        atoms = []
        total = float(self.uniform_weight)
        if self.uniform_weight < -WEIGHT_TOL:
            raise ValidationError("uniform_weight must be nonnegative")
        for angle, weight in self.atoms:
            weight = float(weight)
            if weight < -WEIGHT_TOL:
                raise ValidationError(f"atom weight must be nonnegative, got {weight!r}")
            atoms.append((normalize_angle(angle), max(weight, 0.0)))
            total += weight
        if not abs(total - 1.0) <= WEIGHT_TOL:  # a nan weight makes a nan total
            raise ValidationError(f"mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "uniform_weight", max(float(self.uniform_weight), 0.0))

    def merged(self) -> "HvMixture":
        """Collapse coincident atoms, drop zero weights, sort by angle."""
        mass: dict[float, float] = {}
        for angle, weight in self.atoms:
            mass[angle] = mass.get(angle, 0.0) + weight
        atoms = tuple((a, w) for a, w in sorted(mass.items()) if w > 0.0)
        return HvMixture(atoms, self.uniform_weight)


#: The flat distribution: pure rotational symmetry at the source.
UNIFORM_MIXTURE = HvMixture((), 1.0)


def texture_mixture(
    settings: Sequence[float], weights: Sequence[float] | None = None
) -> HvMixture:
    """Hidden-angle mixture imprinted by a set of polarizer settings.

    Each setting ``s`` with station weight ``w`` contributes two atoms,
    (s, w/2) and (s - pi/2, w/2): the polarizer's pass axis and its
    orthogonal axis are equally favored.  Weights default to equal and
    must sum to 1.  Atoms are kept per-station (not merged).
    """
    settings = [float(s) for s in settings]
    if not settings:
        raise ValidationError("texture_mixture requires at least one setting")
    if weights is None:
        weights = [1.0 / len(settings)] * len(settings)
    weights = [float(w) for w in weights]
    if len(weights) != len(settings):
        raise ValidationError(
            f"{len(settings)} settings but {len(weights)} weights"
        )
    total = sum(weights)
    if not abs(total - 1.0) <= WEIGHT_TOL:  # a nan weight makes a nan total
        raise ValidationError(f"station weights sum to {total!r}, expected 1")
    atoms = []
    for s, w in zip(settings, weights):
        if w < -WEIGHT_TOL:
            raise ValidationError("station weights must be nonnegative")
        atoms.append((s, w / 2.0))
        atoms.append((s - HALF_PI, w / 2.0))
    return HvMixture(tuple(atoms))


def detect_prob(setting: float, hidden_angle: float) -> float:
    """Malus's law: probability of a click, cos^2(setting - hidden_angle)."""
    c = math.cos(setting - hidden_angle)
    return c * c


def corr_qm(a: float, b: float) -> float:
    """Quantum correlation cos(2(a - b))."""
    return math.cos(2.0 * (a - b))


def corr_sc(a: float, b: float) -> float:
    """Semiclassical correlation cos(2(a - b))/2 (uniform hidden angle)."""
    return 0.5 * math.cos(2.0 * (a - b))


def corr_mclhv(a: float, b: float) -> float:
    """Maximal classical correlation: the triangle wave 1 - 4*delta/pi.

    delta is |a - b| folded into [0, pi/2].  This is the closed form of the
    uniform-hidden-angle integral with sign response sgn(cos(2(a - lam)));
    it is validated against direct quadrature in the test suite.
    """
    delta = abs(normalize_angle(a - b))
    return 1.0 - 4.0 * delta / math.pi


def corr_mixture(a: float, b: float, q: HvMixture) -> float:
    """Correlation under a hidden-angle mixture.

    Discrete atoms contribute w * cos(2(a - lam)) * cos(2(b - lam)); the
    uniform component contributes its weight times the semiclassical value.
    """
    total = q.uniform_weight * corr_sc(a, b)
    for lam, w in q.atoms:
        if w != 0.0:
            total += w * math.cos(2.0 * (a - lam)) * math.cos(2.0 * (b - lam))
    return total


def coincidence_mixture(a: float, b: float, q: HvMixture) -> float:
    """Probability that both stations click, under a hidden-angle mixture.

    Atoms contribute w * cos^2(a - lam) * cos^2(b - lam); the uniform
    component contributes w * (2 + cos(2(a - b)))/8.
    """
    total = q.uniform_weight * (2.0 + math.cos(2.0 * (a - b))) / 8.0
    for lam, w in q.atoms:
        if w != 0.0:
            total += w * detect_prob(a, lam) * detect_prob(b, lam)
    return total


def corr(model: Model, a: float, b: float) -> float:
    """Dispatch to the model-specific correlation function.

    The texture model builds the two-station mixture from (a, b) and
    evaluates it as a finite atom sum.
    """
    if model is Model.QUANTUM:
        return corr_qm(a, b)
    if model is Model.SEMI_CLASSICAL:
        return corr_sc(a, b)
    if model is Model.MAX_CLASSICAL_LHV:
        return corr_mclhv(a, b)
    if model is Model.TEXTURE:
        return corr_mixture(a, b, texture_mixture([a, b]))
    raise ValidationError(f"unknown model {model!r}")
