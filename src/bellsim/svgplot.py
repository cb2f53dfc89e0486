"""Minimal deterministic SVG line plots.

The plots are meant for golden-file testing as much as for viewing: every
series carries its full-precision values in ``data-x``/``data-y`` attributes
and the file bytes depend only on the inputs (fixed layout, fixed float
formatting, no timestamps or generated ids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .models import ValidationError
from .output import format_float, provenance_header

WIDTH = 960.0
HEIGHT = 560.0
MARGIN_LEFT = 70.0
MARGIN_RIGHT = 20.0
MARGIN_TOP = 40.0
MARGIN_BOTTOM = 50.0

_SERIES_COLORS = ("#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e")


# xml.sax.saxutils' escape and quoteattr, byte for byte; that module imports
# urllib.request, http.client and ssl
def escape(text: str) -> str:
    """&, > and < as entities."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """``escape`` with newline, carriage return and tab as character
    references, quoted: in single quotes if it holds " but not ', else in
    double quotes (with " as &quot;)."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"{}"'.format(text.replace('"', "&quot;"))


@dataclass
class LinePlot:
    """A titled line plot with optional reference lines and a shaded band."""

    title: str
    x_label: str
    y_label: str
    provenance: dict = field(default_factory=dict)
    series: list[tuple[str, list[float], list[float]]] = field(default_factory=list)
    ref_lines: list[tuple[str, float]] = field(default_factory=list)
    band: tuple[float, float] | None = None  # shaded y-range (e.g. the LHV region)

    def add_series(self, name: str, xs: list[float], ys: list[float]) -> None:
        if len(xs) != len(ys) or not xs:
            raise ValidationError(f"series {name!r} needs equal, nonempty x and y")
        self.series.append((name, list(xs), list(ys)))

    def add_ref_line(self, name: str, value: float) -> None:
        self.ref_lines.append((name, float(value)))

    def _ranges(self) -> tuple[float, float, float, float]:
        xs = [x for _, sx, _ in self.series for x in sx]
        ys = [y for _, _, sy in self.series for y in sy]
        ys += [v for _, v in self.ref_lines]
        if self.band is not None:
            ys += list(self.band)
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        pad = 0.05 * (y1 - y0) or 1.0
        return x0, x1, y0 - pad, y1 + pad

    def render(self) -> str:
        if not self.series:
            raise ValidationError("plot has no series")
        x0, x1, y0, y1 = self._ranges()
        pw = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        ph = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

        def px(x: float) -> float:
            return MARGIN_LEFT + (x - x0) / (x1 - x0) * pw

        def py(y: float) -> float:
            return MARGIN_TOP + (y1 - y) / (y1 - y0) * ph

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}"'
            f' height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
            f"<metadata>{escape(provenance_header(self.provenance))}</metadata>",
            f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="#ffffff"/>',
        ]
        if self.band is not None:
            b0, b1 = sorted(self.band)
            out.append(
                f'<rect class="band" x="{px(x0):.3f}" y="{py(b1):.3f}"'
                f' width="{pw:.3f}" height="{py(b0) - py(b1):.3f}"'
                f' fill="#cccccc" fill-opacity="0.45"'
                f' data-y0={quoteattr(format_float(b0))}'
                f' data-y1={quoteattr(format_float(b1))}/>'
            )
        # frame and labels
        out.append(
            f'<rect x="{MARGIN_LEFT:.3f}" y="{MARGIN_TOP:.3f}" width="{pw:.3f}"'
            f' height="{ph:.3f}" fill="none" stroke="#000000"/>'
        )
        out.append(
            f'<text x="{WIDTH / 2:.3f}" y="20" text-anchor="middle"'
            f' font-family="sans-serif" font-size="15">{escape(self.title)}</text>'
        )
        out.append(
            f'<text x="{WIDTH / 2:.3f}" y="{HEIGHT - 12:.3f}" text-anchor="middle"'
            f' font-family="sans-serif" font-size="13">{escape(self.x_label)}</text>'
        )
        out.append(
            f'<text x="16" y="{HEIGHT / 2:.3f}" text-anchor="middle"'
            f' font-family="sans-serif" font-size="13"'
            f' transform="rotate(-90 16 {HEIGHT / 2:.3f})">{escape(self.y_label)}</text>'
        )
        # axis ticks
        for i in range(6):
            xv = x0 + (x1 - x0) * i / 5
            yv = y0 + (y1 - y0) * i / 5
            out.append(
                f'<text class="tick-x" x="{px(xv):.3f}" y="{HEIGHT - MARGIN_BOTTOM + 16:.3f}"'
                f' text-anchor="middle" font-family="sans-serif" font-size="11">{xv:.4g}</text>'
            )
            out.append(
                f'<text class="tick-y" x="{MARGIN_LEFT - 6:.3f}" y="{py(yv) + 4:.3f}"'
                f' text-anchor="end" font-family="sans-serif" font-size="11">{yv:.4g}</text>'
            )
        for name, value in self.ref_lines:
            out.append(
                f'<line class="ref" x1="{MARGIN_LEFT:.3f}" x2="{MARGIN_LEFT + pw:.3f}"'
                f' y1="{py(value):.3f}" y2="{py(value):.3f}" stroke="#555555"'
                f' stroke-dasharray="6 4" data-name={quoteattr(name)}'
                f' data-value={quoteattr(format_float(value))}/>'
            )
        for k, (name, xs, ys) in enumerate(self.series):
            color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
            pts = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in zip(xs, ys))
            data_x = " ".join(format_float(x) for x in xs)
            data_y = " ".join(format_float(y) for y in ys)
            out.append(
                f'<polyline class="series" fill="none" stroke="{color}"'
                f' stroke-width="1.5" points="{pts}" data-name={quoteattr(name)}'
                f" data-x={quoteattr(data_x)} data-y={quoteattr(data_y)}/>"
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path: "str | Path") -> None:
        Path(path).write_text(self.render(), encoding="utf-8", newline="")
