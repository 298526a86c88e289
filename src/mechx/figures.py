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
import itertools
import math
import warnings
from collections import namedtuple
from collections.abc import Iterable

from . import _Record
from .capacity import count_configurations
from .model import ARTIFICIAL, NATURAL, Platform
from .specfile import Diagnostic, _fmt_num, is_computable


class UnknownFigureId(ValueError):
    pass


class DegenerateAxisWarning(UserWarning):
    """A log axis had zero span; it was padded by half a decade each way."""


SERIES_ARTIFICIAL = "artificial"
SERIES_NATURAL_ANATOMY = "natural-anatomy"
SERIES_NATURAL_BEHAVIOR = "natural-behavior"

# The natural models, in the order figures plot them, each with its neuron
# count (its x) and its series: a series of anatomy counts structural DOFs
# or muscles, one of behavior measured motion.  The worm count is exact,
# the rest are estimates.
NATURAL_MODELS = {
    "C. elegans (anatomy)": (302, SERIES_NATURAL_ANATOMY),
    "C. elegans (agar behavior)": (302, SERIES_NATURAL_BEHAVIOR),
    "Drosophila": (100_000, SERIES_NATURAL_ANATOMY),
    "Cat": (760_000_000, SERIES_NATURAL_ANATOMY),
    "Human (mocap)": (86_000_000_000, SERIES_NATURAL_BEHAVIOR),
    "Human (breath)": (86_000_000_000, SERIES_NATURAL_BEHAVIOR),
}


class TrendPoint(_Record):
    label: str
    x: float
    y: float
    series: str

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


def _skip(diagnostics: list | None, name: str, why: str):
    if diagnostics is not None:
        diagnostics.append(Diagnostic(0, f"skipped {name!r}: {why}"))


# One coordinate of a figure: ``value(p)`` is defined only for platforms
# that pass ``has(p)``; the others are skipped with reason ``missing``.
_Source = namedtuple("_Source", "missing has value")


_YEAR = _Source("no year", lambda p: p.year is not None, lambda p: float(p.year))
_TRANSISTORS = _Source(
    "no processor",
    lambda p: p.processor is not None,
    lambda p: float(p.processor.transistors),
)
_NEURONS = _Source(
    "no neuron count",
    lambda p: p.name in NATURAL_MODELS,
    lambda p: float(NATURAL_MODELS[p.name][0]),
)
_MECH_LOG10 = _Source(
    "capacity is not computable",
    is_computable,
    lambda p: count_configurations(p, mechanical_only=True).log10,
)
_MECH_BITS = _Source(
    "capacity is not computable",
    is_computable,
    lambda p: count_configurations(p, mechanical_only=True).log2,
)


# Artificial platforms are plotted at (x, y), both ``_Source``s, and the
# first ``naturals`` of NATURAL_MODELS at (neuron count, y).  A ``square``
# figure gets a square plot area.
_Figure = namedtuple("_Figure", "axis_spec x y naturals square", defaults=(0, False))


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
    "fig4_celegans": _Figure(_NEURONS_VS_BITS, _YEAR, _MECH_BITS, naturals=2),
    "fig5_animals": _Figure(
        _NEURONS_VS_BITS, _YEAR, _MECH_BITS, naturals=len(NATURAL_MODELS)
    ),
}
FIGURE_IDS = tuple(_FIGURES)


def trend_table(
    dataset: Iterable[Platform],
    figure_id: str,
    diagnostics: list | None = None,
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
            TrendPoint(label=p.name, x=x.value(p), y=fig.y.value(p), series=series)
        )

    for p in platforms:
        if p.kind == ARTIFICIAL:
            add(p, fig.x, SERIES_ARTIFICIAL)
    roster = list(NATURAL_MODELS)[: fig.naturals]
    if roster:
        by_name = {p.name: p for p in platforms}
        for name in roster:
            if name in by_name:
                add(by_name[name], _NEURONS, NATURAL_MODELS[name][1])
        # Naturals that could never be plotted (no computable groups) get
        # a note even when the roster does not mention them.
        for p in platforms:
            if p.kind == NATURAL and p.name not in roster and not fig.y.has(p):
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
    """Inverse of emit_csv; a row of other than four fields raises ValueError."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["label", "series", "x", "y"]:
        raise ValueError("missing or malformed header row")
    for n, r in enumerate(rows[1:], start=2):
        if len(r) != 4:
            raise ValueError(f"row {n} has {len(r)} fields, not 4: {r!r}")
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
# The default width and height of a figure, in px, and the largest: squared
# distances between markers then stay far inside float range.
WIDTH_PX, HEIGHT_PX = 640, 480
MAX_SIZE_PX = 1_000_000


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(
    x: float | str, y: float, size: int, body: str, anchor: str = "", extra: str = ""
) -> str:
    """Every label of a figure goes through here.  An x given as a str is
    written as is, a number to two decimals."""
    x = x if isinstance(x, str) else f"{x:.2f}"
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y:.2f}" font-size="{size}"{anchor} '
        f'font-family="sans-serif"{extra}>{_esc(body)}</text>'
    )


# A tick mark on either axis.
_LINE = (
    '<line x1="{:.2f}" y1="{:.2f}" x2="{:.2f}" y2="{:.2f}" '
    'stroke="black" stroke-width="1"/>'
)


def _coords(values: list[float], log: bool, axis_name: str) -> list[float]:
    """Plot coordinates of one axis: the values, or their log10 on a log axis."""
    if not log:
        return values
    if any(v <= 0 for v in values):
        raise ValueError(f"log-scaled {axis_name} axis requires positive values")
    return [math.log10(v) for v in values]


def _axis_range(coords: list[float], log: bool, axis_name: str) -> tuple[float, float]:
    """The range of plot coordinates, padded."""
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
    lo, hi = lo - pad, hi + pad
    if not 0 < hi - lo < math.inf:
        raise ValueError(f"{axis_name} axis cannot be drawn: padded span {hi - lo!r}")
    return lo, hi


def _linear_ticks(lo: float, hi: float, axis_name: str) -> list[tuple[float, str]]:
    """(coordinate, label) of each tick, about five at 1-2-5 spacing; rounded
    to 12 decimals and labelled to 6 digits, or down to the place of the tick
    step's leading digit where 6 misname a tick or two labels are equal."""
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    if mag == 0:  # a span of a few subnormals has no tick step above 0
        raise ValueError(f"{axis_name} axis cannot be drawn: padded span {hi - lo!r}")
    step = next((m * mag for m in (1, 2, 5) if raw <= m * mag), 10 * mag)
    unrounded = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-12 * abs(step):
        unrounded.append(t)
        if t + step == t:  # a step below the float spacing at t
            break
        t += step
    ticks = [round(t, 12) for t in unrounded]
    place = math.floor(math.log10(step))
    labels = [_fmt_num(t, 6) for t in ticks]
    for i, t in enumerate(ticks):
        if float(labels[i]) != t:  # as 100000 for 100000.5; never at 0
            labels[i] = _fmt_num(t, min(17, math.floor(math.log10(abs(t))) - place + 1))
    if len(set(labels)) < len(labels):
        place = math.floor(math.log10(mag))
        ticks = [round(t, max(12, -place)) for t in unrounded]
        top = math.floor(math.log10(max(map(abs, ticks))))
        labels = [_fmt_num(t, top - place + 1) for t in ticks]
    return list(zip(ticks, labels))


def _log_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    # Integer powers of 10 inside the (log10-space) range, or else its ends.
    powers = range(math.ceil(lo - 1e-12), math.floor(hi + 1e-12) + 1)
    return [(float(e), f"1e{e}") for e in powers] or [(t, f"{10 ** t:.3g}") for t in (lo, hi)]


def _check_size(width: float, height: float) -> None:
    if not (width > 0 and height > 0):  # NaN fails this too
        raise ValueError("width and height must be positive")
    if width > MAX_SIZE_PX or height > MAX_SIZE_PX:
        raise ValueError(f"width and height must be at most {MAX_SIZE_PX} px")


def emit_svg_scatter(
    points: Iterable[TrendPoint],
    axis_spec: AxisSpec,
    width: float = WIDTH_PX,
    height: float = HEIGHT_PX,
) -> str:
    """Self-contained SVG 1.1 scatter plot.

    Log axes get power-of-10 ticks.  Point labels are drawn unless the
    marker sits within LABEL_SUPPRESS_PX pixels of an already drawn
    marker.  An axis whose padded span is zero, infinite or too small for
    a tick step raises ValueError.  Output is a pure function of the inputs.
    """
    _check_size(width, height)
    pts = sort_points(points)
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM
    if plot_w <= 0 or plot_h <= 0:
        raise ValueError("figure too small for its margins")

    x_log, y_log = axis_spec.x_log, axis_spec.y_log
    xs = _coords([p.x for p in pts], x_log, "x")
    x_lo, x_hi = _axis_range(xs, x_log, "x") if pts else (0.0, 1.0)
    ys = _coords([p.y for p in pts], y_log, "y")
    y_lo, y_hi = _axis_range(ys, y_log, "y") if pts else (0.0, 1.0)

    def px(c: float) -> float:
        return _MARGIN_LEFT + (c - x_lo) / (x_hi - x_lo) * plot_w

    def py(c: float) -> float:
        return _MARGIN_TOP + plot_h - (c - y_lo) / (y_hi - y_lo) * plot_h

    ax_b = _MARGIN_TOP + plot_h
    mid_x, mid_y = _MARGIN_LEFT + plot_w / 2, _MARGIN_TOP + plot_h / 2
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt_num(width)}" height="{_fmt_num(height)}" '
        f'viewBox="0 0 {_fmt_num(width)} {_fmt_num(height)}">',
        f'<rect x="0" y="0" width="{_fmt_num(width)}" height="{_fmt_num(height)}" '
        f'fill="white"/>',
        f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" '
        f'width="{plot_w:.2f}" height="{plot_h:.2f}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t, label in _log_ticks(x_lo, x_hi) if x_log else _linear_ticks(x_lo, x_hi, "x"):
        x = px(t)
        out.append(_LINE.format(x, ax_b, x, ax_b + 5))
        out.append(_text(x, ax_b + 18, 11, label, "middle"))
    for t, label in _log_ticks(y_lo, y_hi) if y_log else _linear_ticks(y_lo, y_hi, "y"):
        y = py(t)
        out.append(_LINE.format(_MARGIN_LEFT - 5, y, _MARGIN_LEFT, y))
        out.append(_text(_MARGIN_LEFT - 8, y + 4, 11, label, "end"))
    rotate = f' transform="rotate(-90 14 {mid_y:.2f})"'
    out.append(_text(mid_x, height - 8, 12, axis_spec.x_label, "middle"))
    out.append(_text("14", mid_y, 12, axis_spec.y_label, "middle", rotate))

    series_names = sorted({p.series for p in pts})
    fallback = itertools.cycle(_FALLBACK_COLORS)
    colors = {s: _PALETTE[s] if s in _PALETTE else next(fallback) for s in series_names}

    placed: list[tuple[float, float]] = []
    gap2 = LABEL_SUPPRESS_PX ** 2
    for p, cx, cy in zip(pts, xs, ys):
        x, y = px(cx), py(cy)
        color = colors[p.series]
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}" class="marker"/>')
        if not any((x - qx) ** 2 + (y - qy) ** 2 < gap2 for qx, qy in placed):
            out.append(_text(x + 5, y - 5, 10, p.label))
        placed.append((x, y))

    lx = _MARGIN_LEFT + plot_w - 150
    for i, name in enumerate(series_names):
        ly = _MARGIN_TOP + 14 + 16 * i
        color = colors[name]
        out.append(f'<circle cx="{lx:.2f}" cy="{ly - 4:.2f}" r="4" fill="{color}"/>')
        out.append(_text(lx + 10, ly, 11, name))

    out.append("</svg>")
    return "\n".join(out) + "\n"


def build_figure(
    dataset: Iterable[Platform],
    figure_id: str,
    width: float = WIDTH_PX,
    height: float = HEIGHT_PX,
    diagnostics: list | None = None,
) -> FigureBundle:
    """Assemble points, CSV, and SVG for one figure id.

    fig3 is rendered with a square plot area; its height argument is
    checked as emit_svg_scatter checks it, then overridden so plot width
    equals plot height.
    """
    points = tuple(sort_points(trend_table(dataset, figure_id, diagnostics)))
    fig = _FIGURES[figure_id]
    if fig.square:
        _check_size(width, height)
        height = width - (_MARGIN_LEFT + _MARGIN_RIGHT) + (_MARGIN_TOP + _MARGIN_BOTTOM)
    return FigureBundle(
        figure_id=figure_id,
        points=points,
        csv=emit_csv(points),
        svg=emit_svg_scatter(points, fig.axis_spec, width=width, height=height),
        axis_spec=fig.axis_spec,
    )
