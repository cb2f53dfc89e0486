"""Parsing of dimensioned command-line and config values.

Angles always carry an explicit unit tag ("deg" or "rad") because a bare
number would be ambiguous; a switching phase may also be bare radians.
Frequencies and times accept standard SI suffixes or bare numbers in the
base unit (Hz, s), e.g. "46.2MHz", "48.4e6", "43ns".  Suffixes are
case-sensitive.
"""

from __future__ import annotations

import math

from .models import ValidationError, normalize_angle

_FREQUENCY_SUFFIXES = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_TIME_SUFFIXES = {
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "µs": 1e-6,
    "ns": 1e-9,
    "ps": 1e-12,
}


def _split_suffix(text: str, suffixes: dict[str, float]) -> tuple[str, float]:
    # longest suffix first so "ms" is not read as bare "s"
    for suffix in sorted(suffixes, key=len, reverse=True):
        if text.endswith(suffix):
            return text[: -len(suffix)], suffixes[suffix]
    return text, 1.0


def _to_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"cannot parse {what} value {text!r}") from None


def parse_angle(value: "str | float") -> float:
    """Parse an angle with a mandatory deg/rad tag; returns normalized radians."""
    if isinstance(value, (int, float)):
        raise ValidationError(
            f"angle {value!r} needs an explicit unit, e.g. '22.5deg' or '0.3927rad'"
        )
    text = value.strip()
    if text.endswith("deg"):
        return normalize_angle(math.radians(_to_float(text[:-3].strip(), "angle")))
    if text.endswith("rad"):
        return normalize_angle(_to_float(text[:-3].strip(), "angle"))
    raise ValidationError(f"angle {text!r} needs a 'deg' or 'rad' unit tag")


def parse_phase(value: "str | float") -> float:
    """Parse a switching phase: a deg/rad-tagged angle or bare radians.

    Unlike a polarizer angle a phase is 2*pi-periodic, so it is returned in
    radians as given, not normalized.  Malformed text raises ``ValueError``.
    """
    if isinstance(value, (int, float)):
        out = float(value)
    else:
        text = value.strip()
        if text.endswith("deg"):
            out = math.radians(float(text[:-3]))
        else:
            out = float(text[:-3] if text.endswith("rad") else text)
    if not math.isfinite(out):
        raise ValueError(f"phase must be finite, got {out!r}")
    return out


def parse_angle_list(value: str, expected: int | None = None) -> tuple[float, ...]:
    """Parse a comma-separated list of tagged angles."""
    parts = [p for p in (s.strip() for s in value.split(",")) if p]
    if expected is not None and len(parts) != expected:
        raise ValidationError(f"expected {expected} angles, got {len(parts)} in {value!r}")
    return tuple(parse_angle(p) for p in parts)


def parse_frequency(value: "str | float") -> float:
    """Parse a frequency in Hz; accepts kHz/MHz/GHz suffixes or bare numbers."""
    if isinstance(value, (int, float)):
        out = float(value)
    else:
        number, scale = _split_suffix(value.strip(), _FREQUENCY_SUFFIXES)
        out = _to_float(number.strip(), "frequency") * scale
    if out < 0.0 or not math.isfinite(out):
        raise ValidationError(f"frequency must be finite and >= 0, got {out!r}")
    return out


def parse_time(value: "str | float") -> float:
    """Parse a duration in seconds; accepts ms/us/ns/ps suffixes or bare numbers."""
    if isinstance(value, (int, float)):
        out = float(value)
    else:
        number, scale = _split_suffix(value.strip(), _TIME_SUFFIXES)
        out = _to_float(number.strip(), "time") * scale
    if not math.isfinite(out):
        raise ValidationError(f"time must be finite, got {out!r}")
    return out
