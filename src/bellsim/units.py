"""Parsing of dimensioned command-line and config values.

Angles always carry an explicit unit tag ("deg" or "rad") because a bare
number would be ambiguous; a switching phase may also be bare radians.
Frequencies and times accept standard SI suffixes or bare numbers in the
base unit (Hz, s), e.g. "46.2MHz", "48.4e6", "43ns".  Suffixes are
case-sensitive.  Every value must be finite.
"""

from __future__ import annotations

import math

from .models import ValidationError, normalize_angle

# x * pi/180 has the same bits as math.radians(x)
_ANGLE_UNITS = {"deg": math.pi / 180.0, "rad": 1.0}
_FREQUENCY_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9, "ps": 1e-12}


def _read(value: "str | float", what: str, units: dict[str, float]) -> float:
    """A number with an optional unit suffix from ``units``, scaled to the
    base unit; a bare number is in the base unit.  Raises ``ValidationError``
    for malformed text and non-finite values."""
    if isinstance(value, (int, float)):
        out = float(value)
    else:
        text = value.strip()
        # longest suffix first so "ms" is not read as bare "s"
        unit = next((u for u in sorted(units, key=len, reverse=True) if text.endswith(u)), "")
        try:
            out = float(text.removesuffix(unit)) * units.get(unit, 1.0)
        except ValueError:
            raise ValidationError(f"cannot parse {what} value {text!r}") from None
    if not math.isfinite(out):
        raise ValidationError(f"{what} must be finite, got {out!r}")
    return out


def parse_angle(value: "str | float") -> float:
    """Parse an angle with a mandatory deg/rad tag; returns normalized radians."""
    if isinstance(value, (int, float)):
        raise ValidationError(
            f"angle {value!r} needs an explicit unit, e.g. '22.5deg' or '0.3927rad'"
        )
    text = value.strip()
    if not text.endswith(tuple(_ANGLE_UNITS)):
        raise ValidationError(f"angle {text!r} needs a 'deg' or 'rad' unit tag")
    return normalize_angle(_read(text, "angle", _ANGLE_UNITS))


def parse_phase(value: "str | float") -> float:
    """Parse a switching phase: a deg/rad-tagged angle or bare radians.

    Unlike a polarizer angle a phase is 2*pi-periodic, so it is returned in
    radians as given, not normalized.
    """
    return _read(value, "phase", _ANGLE_UNITS)


def parse_angle_list(value: str, expected: int | None = None) -> tuple[float, ...]:
    """Parse a comma-separated list of tagged angles."""
    parts = [p for p in (s.strip() for s in value.split(",")) if p]
    if expected is not None and len(parts) != expected:
        raise ValidationError(f"expected {expected} angles, got {len(parts)} in {value!r}")
    return tuple(parse_angle(p) for p in parts)


def parse_frequency(value: "str | float") -> float:
    """Parse a frequency in Hz; accepts kHz/MHz/GHz suffixes or bare numbers."""
    out = _read(value, "frequency", _FREQUENCY_UNITS)
    if out < 0.0:
        raise ValidationError(f"frequency must be >= 0, got {out!r}")
    return out


def parse_time(value: "str | float") -> float:
    """Parse a duration in seconds; accepts ms/us/ns/ps suffixes or bare numbers."""
    return _read(value, "time", _TIME_UNITS)
