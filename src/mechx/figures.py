"""Trend tables and figure emission (CSV + SVG scatter).

Five canned figures compare platforms over time and against their
onboard computers:

  fig1_transistors   year vs transistor count (artificial platforms)
  fig2_mech_configs  year vs log10 of mechanical configuration count
  fig3_bits_vs_bits  computational bits vs mechanical bits, log-log square
  fig4_celegans      fig2's platforms (y in bits) plus the nematode models
                     at x = 302 neurons
  fig5_animals       fig4 plus fly, cat, and human models at x = neuron count

Both emitters are pure: identical inputs give byte-identical output.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from typing import Callable, Iterable, NamedTuple, Optional

from . import _Record
from .capacity import count_configurations
from .model import Platform
from .specfile import Diagnostic, Severity, _fmt_num, is_computable


class UnknownFigureId(ValueError):
    pass


class DegenerateAxisWarning(UserWarning):
    """A log axis had zero span; it was padded by half a decade each way."""


SERIES_ARTIFICIAL = "artificial"
SERIES_NATURAL_ANATOMY = "natural-anatomy"
SERIES_NATURAL_BEHAVIOR = "natural-behavior"

# x positions for the natural models; the worm count is exact, the rest
# are estimates.
NEURON_COUNTS = {
    "C. elegans (anatomy)": 302,
    "C. elegans (agar behavior)": 302,
    "Drosophila": 100_000,
    "Cat": 760_000_000,
    "Human (mocap)": 86_000_000_000,
    "Human (breath)": 86_000_000_000,
}

# Which natural models count anatomy (structural DOFs / muscles) versus
# measured behavior.
_NATURAL_SERIES = {
    "C. elegans (anatomy)": SERIES_NATURAL_ANATOMY,
    "Drosophila": SERIES_NATURAL_ANATOMY,
    "Cat": SERIES_NATURAL_ANATOMY,
    "C. elegans (agar behavior)": SERIES_NATURAL_BEHAVIOR,
    "Human (mocap)": SERIES_NATURAL_BEHAVIOR,
    "Human (breath)": SERIES_NATURAL_BEHAVIOR,
}


class TrendPoint(_Record):
    label: str
    x: float
    y: float
    series: str
    y_is_log10: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point {self.label!r} has non-finite coordinates")


class AxisSpec(_Record):
    x_label: str
    y_label: str
    x_log: bool = False
    y_log: bool = False


class FigureBundle(_Record):
    figure_id: str
    points: tuple[TrendPoint, ...]
    csv: str
    svg: str
    axis_spec: AxisSpec


def _skip(diagnostics: Optional[list], name: str, why: str):
    if diagnostics is not None:
        diagnostics.append(
            Diagnostic(Severity.WARNING, 0, f"skipped {name!r}: {why}")
        )


class _Source(NamedTuple):
    """One coordinate of a figure: ``value`` is defined only for platforms
    that pass ``has``; the others are skipped with reason ``missing``."""

    missing: str
    has: Callable[[Platform], bool]
    value: Callable[[Platform], float]
    is_log10: bool = False


_YEAR = _Source("no year", lambda p: p.year is not None, lambda p: float(p.year))
_TRANSISTORS = _Source(
    "no processor",
    lambda p: p.processor is not None,
    lambda p: float(p.processor.transistors),
)
_NEURONS = _Source(
    "no neuron count",
    lambda p: p.name in NEURON_COUNTS,
    lambda p: float(NEURON_COUNTS[p.name]),
)
_MECH_LOG10 = _Source(
    "capacity is not computable",
    is_computable,
    lambda p: count_configurations(p, mechanical_only=True).log10,
    is_log10=True,
)
_MECH_BITS = _Source(
    "capacity is not computable",
    is_computable,
    lambda p: count_configurations(p, mechanical_only=True).log2,
)


class _Figure(NamedTuple):
    """Artificial platforms are plotted at (x, y), the natural models in
    ``roster`` at (neuron count, y).  A ``square`` figure gets a square
    plot area."""

    axis_spec: AxisSpec
    x: _Source
    y: _Source
    roster: tuple[str, ...] = ()
    square: bool = False


_WORMS = ("C. elegans (anatomy)", "C. elegans (agar behavior)")
_NEURONS_VS_BITS = AxisSpec(
    "year (artificial) or neurons (natural)",
    "mechanical capacity (bits)",
    x_log=True,
    y_log=True,
)

_FIGURES = {
    "fig1_transistors": _Figure(
        AxisSpec("year", "transistors", x_log=False, y_log=True), _YEAR, _TRANSISTORS
    ),
    "fig2_mech_configs": _Figure(
        AxisSpec("year", "log10 mechanical configurations", x_log=False, y_log=False),
        _YEAR,
        _MECH_LOG10,
    ),
    "fig3_bits_vs_bits": _Figure(
        AxisSpec(
            "computational capacity (bits)",
            "mechanical capacity (bits)",
            x_log=True,
            y_log=True,
        ),
        _TRANSISTORS,
        _MECH_BITS,
        square=True,
    ),
    "fig4_celegans": _Figure(_NEURONS_VS_BITS, _YEAR, _MECH_BITS, roster=_WORMS),
    "fig5_animals": _Figure(
        _NEURONS_VS_BITS,
        _YEAR,
        _MECH_BITS,
        roster=_WORMS + ("Drosophila", "Cat", "Human (mocap)", "Human (breath)"),
    ),
}
FIGURE_IDS = tuple(_FIGURES)


def trend_table(
    dataset: Iterable[Platform],
    figure_id: str,
    diagnostics: Optional[list] = None,
) -> list[TrendPoint]:
    """Points for one figure.  Platforms missing a needed field (year,
    processor, computable groups) are skipped; pass ``diagnostics`` to
    collect a note for each skip."""
    if figure_id not in FIGURE_IDS:
        raise UnknownFigureId(f"unknown figure id {figure_id!r}")
    fig = _FIGURES[figure_id]
    platforms = list(dataset)
    points: list[TrendPoint] = []

    def add(p: Platform, x: _Source, series: str):
        for source in (x, fig.y):
            if not source.has(p):
                _skip(diagnostics, p.name, source.missing)
                return
        points.append(
            TrendPoint(
                label=p.name,
                x=x.value(p),
                y=fig.y.value(p),
                series=series,
                y_is_log10=fig.y.is_log10,
            )
        )

    for p in platforms:
        if p.kind == "artificial":
            add(p, fig.x, SERIES_ARTIFICIAL)
    if fig.roster:
        by_name = {p.name: p for p in platforms}
        for name in fig.roster:
            if name in by_name:
                add(by_name[name], _NEURONS, _NATURAL_SERIES[name])
        # Naturals that could never be plotted (no computable groups) get
        # a note even when the roster does not mention them.
        for p in platforms:
            if p.kind == "natural" and p.name not in fig.roster and not fig.y.has(p):
                _skip(diagnostics, p.name, fig.y.missing)
    return points


def sort_points(points: Iterable[TrendPoint]) -> list[TrendPoint]:
    return sorted(points, key=lambda p: (p.series, p.x, p.label))


def emit_csv(points: Iterable[TrendPoint]) -> str:
    """Deterministic CSV: header "label,series,x,y", rows sorted by
    (series, x, label), shortest round-trip numbers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "series", "x", "y"])
    for p in sort_points(points):
        writer.writerow([p.label, p.series, _fmt_num(p.x), _fmt_num(p.y)])
    return buf.getvalue()


def parse_csv(text: str) -> list[TrendPoint]:
    """Inverse of emit_csv (y_is_log10 is not carried by the format)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["label", "series", "x", "y"]:
        raise ValueError("missing or malformed header row")
    return [
        TrendPoint(label=r[0], series=r[1], x=float(r[2]), y=float(r[3]))
        for r in rows[1:]
    ]


# SVG rendering --------------------------------------------------------------

_MARGIN_LEFT, _MARGIN_RIGHT = 70.0, 20.0
_MARGIN_TOP, _MARGIN_BOTTOM = 20.0, 50.0
_PALETTE = {
    SERIES_ARTIFICIAL: "#1f77b4",
    SERIES_NATURAL_ANATOMY: "#2ca02c",
    SERIES_NATURAL_BEHAVIOR: "#d62728",
}
_FALLBACK_COLORS = ("#9467bd", "#8c564b", "#e377c2", "#7f7f7f")
LABEL_SUPPRESS_PX = 12.0
# The largest width or height, in px: squared distances between markers
# then stay far inside float range.
MAX_SIZE_PX = 1_000_000


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _axis_range(values: list[float], log: bool, axis_name: str) -> tuple[float, float]:
    """Data range in plot coordinates (log10 space for log axes), padded."""
    if log:
        for v in values:
            if v <= 0:
                raise ValueError(f"log-scaled {axis_name} axis requires positive values")
        coords = [math.log10(v) for v in values]
    else:
        coords = values
    lo, hi = min(coords), max(coords)
    if lo == hi:
        if log:
            warnings.warn(
                f"{axis_name} axis has zero span; padding by half a decade",
                DegenerateAxisWarning,
                stacklevel=3,
            )
        pad = 0.5
    else:
        pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _linear_ticks(lo: float, hi: float) -> list[float]:
    # Standard 1-2-5 tick spacing, about five ticks across the span.
    span = hi - lo
    raw = span / 5
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        ticks.append(round(t, 12))
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    # Integer powers of 10 inside the (log10-space) range.
    ticks = [float(e) for e in range(math.ceil(lo - 1e-12), math.floor(hi + 1e-12) + 1)]
    return ticks if ticks else [lo, hi]


def _tick_label(coord: float, log: bool) -> str:
    if log:
        if coord == int(coord):
            return f"1e{int(coord)}"
        return f"{10 ** coord:.3g}"
    if coord == int(coord) and abs(coord) < 1e16:
        return str(int(coord))
    return f"{coord:.6g}"


def emit_svg_scatter(
    points: Iterable[TrendPoint],
    axis_spec: AxisSpec,
    width: float = 640,
    height: float = 480,
    label_min_gap: float = LABEL_SUPPRESS_PX,
) -> str:
    """Self-contained SVG 1.1 scatter plot.

    Log axes get power-of-10 ticks.  Point labels are drawn unless the
    marker sits within ``label_min_gap`` pixels of an already drawn
    marker.  Output is a pure function of the inputs.
    """
    if not (width > 0 and height > 0):  # NaN fails this too
        raise ValueError("width and height must be positive")
    if width > MAX_SIZE_PX or height > MAX_SIZE_PX:
        raise ValueError(f"width and height must be at most {MAX_SIZE_PX} px")
    pts = sort_points(points)
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM
    if plot_w <= 0 or plot_h <= 0:
        raise ValueError("figure too small for its margins")

    if pts:
        x_lo, x_hi = _axis_range([p.x for p in pts], axis_spec.x_log, "x")
        y_lo, y_hi = _axis_range([p.y for p in pts], axis_spec.y_log, "y")
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0

    def xc(v: float) -> float:
        c = math.log10(v) if axis_spec.x_log else v
        return _MARGIN_LEFT + (c - x_lo) / (x_hi - x_lo) * plot_w

    def yc(v: float) -> float:
        c = math.log10(v) if axis_spec.y_log else v
        return _MARGIN_TOP + plot_h - (c - y_lo) / (y_hi - y_lo) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt_num(width)}" height="{_fmt_num(height)}" '
        f'viewBox="0 0 {_fmt_num(width)} {_fmt_num(height)}">'
    )
    out.append(
        f'<rect x="0" y="0" width="{_fmt_num(width)}" height="{_fmt_num(height)}" '
        f'fill="white"/>'
    )
    ax_b = _MARGIN_TOP + plot_h
    ax_r = _MARGIN_LEFT + plot_w
    out.append(
        f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" '
        f'width="{plot_w:.2f}" height="{plot_h:.2f}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )

    x_ticks = (_log_ticks if axis_spec.x_log else _linear_ticks)(x_lo, x_hi)
    y_ticks = (_log_ticks if axis_spec.y_log else _linear_ticks)(y_lo, y_hi)
    for t in x_ticks:
        px = _MARGIN_LEFT + (t - x_lo) / (x_hi - x_lo) * plot_w
        out.append(
            f'<line x1="{px:.2f}" y1="{ax_b:.2f}" x2="{px:.2f}" '
            f'y2="{ax_b + 5:.2f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{ax_b + 18:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">'
            f"{_esc(_tick_label(t, axis_spec.x_log))}</text>"
        )
    for t in y_ticks:
        py = _MARGIN_TOP + plot_h - (t - y_lo) / (y_hi - y_lo) * plot_h
        out.append(
            f'<line x1="{_MARGIN_LEFT - 5:.2f}" y1="{py:.2f}" '
            f'x2="{_MARGIN_LEFT:.2f}" y2="{py:.2f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8:.2f}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">'
            f"{_esc(_tick_label(t, axis_spec.y_log))}</text>"
        )

    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{height - 8:.2f}" '
        f'font-size="12" text-anchor="middle" font-family="sans-serif">'
        f"{_esc(axis_spec.x_label)}</text>"
    )
    out.append(
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.2f}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.2f})">'
        f"{_esc(axis_spec.y_label)}</text>"
    )

    series_names = sorted({p.series for p in pts})
    colors = {}
    fallback = 0
    for name in series_names:
        if name in _PALETTE:
            colors[name] = _PALETTE[name]
        else:
            colors[name] = _FALLBACK_COLORS[fallback % len(_FALLBACK_COLORS)]
            fallback += 1

    placed: list[tuple[float, float]] = []
    for p in pts:
        px, py = xc(p.x), yc(p.y)
        out.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
            f'fill="{colors[p.series]}" class="marker"/>'
        )
        crowded = any(
            (px - qx) ** 2 + (py - qy) ** 2 < label_min_gap ** 2
            for qx, qy in placed
        )
        if not crowded:
            out.append(
                f'<text x="{px + 5:.2f}" y="{py - 5:.2f}" font-size="10" '
                f'font-family="sans-serif">{_esc(p.label)}</text>'
            )
        placed.append((px, py))

    for i, name in enumerate(series_names):
        ly = _MARGIN_TOP + 14 + 16 * i
        lx = ax_r - 150
        out.append(
            f'<circle cx="{lx:.2f}" cy="{ly - 4:.2f}" r="4" fill="{colors[name]}"/>'
        )
        out.append(
            f'<text x="{lx + 10:.2f}" y="{ly:.2f}" font-size="11" '
            f'font-family="sans-serif">{_esc(name)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def build_figure(
    dataset: Iterable[Platform],
    figure_id: str,
    width: float = 640,
    height: float = 480,
    diagnostics: Optional[list] = None,
) -> FigureBundle:
    """Assemble points, CSV, and SVG for one figure id.

    fig3 is rendered with a square plot area; its height argument is
    overridden so plot width equals plot height.
    """
    points = tuple(sort_points(trend_table(dataset, figure_id, diagnostics)))
    fig = _FIGURES[figure_id]
    if fig.square:
        height = width - (_MARGIN_LEFT + _MARGIN_RIGHT) + (_MARGIN_TOP + _MARGIN_BOTTOM)
    return FigureBundle(
        figure_id=figure_id,
        points=points,
        csv=emit_csv(points),
        svg=emit_svg_scatter(points, fig.axis_spec, width=width, height=height),
        axis_spec=fig.axis_spec,
    )
