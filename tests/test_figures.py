"""Trend tables, CSV emission, and deterministic SVG rendering."""

import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest

from mechx import figures
from mechx.figures import (
    FIGURE_IDS,
    NEURON_COUNTS,
    AxisSpec,
    DegenerateAxisWarning,
    TrendPoint,
    UnknownFigureId,
    build_figure,
    emit_csv,
    emit_svg_scatter,
    parse_csv,
    sort_points,
    trend_table,
)
from mechx.specfile import load_dataset

DATASET = [doc.platform for doc in load_dataset()]

EXPECTED_COUNTS = {
    "fig1_transistors": 19,
    "fig2_mech_configs": 19,
    "fig3_bits_vs_bits": 19,
    "fig4_celegans": 21,
    "fig5_animals": 25,
}


def by_label(points, label):
    match = [p for p in points if p.label == label]
    assert len(match) == 1, label
    return match[0]


class TestTrendTables:
    def test_figure_ids(self):
        assert FIGURE_IDS == tuple(EXPECTED_COUNTS)

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_point_counts(self, figure_id):
        assert len(trend_table(DATASET, figure_id)) == EXPECTED_COUNTS[figure_id]

    def test_unknown_figure_id(self):
        with pytest.raises(UnknownFigureId):
            trend_table(DATASET, "fig9_nope")
        with pytest.raises(UnknownFigureId):
            build_figure(DATASET, "")

    def test_fig1_is_year_vs_transistors(self):
        p = by_label(trend_table(DATASET, "fig1_transistors"), "NAO")
        assert p.x == 2008
        assert p.y == 47_000_000
        assert p.series == "artificial"

    def test_fig2_is_year_vs_log10_configs(self):
        points = trend_table(DATASET, "fig2_mech_configs")
        assert all(p.y_is_log10 for p in points)
        p = by_label(points, "NAO")
        assert p.x == 2008
        assert p.y == pytest.approx(71.62, abs=0.05)

    def test_fig3_is_bits_vs_bits(self):
        points = trend_table(DATASET, "fig3_bits_vs_bits")
        assert all(p.series == "artificial" for p in points)
        p = by_label(points, "NAO")
        assert p.x == 47_000_000
        assert p.y == pytest.approx(237.9, abs=0.5)

    def test_fig4_adds_both_worms(self):
        points = trend_table(DATASET, "fig4_celegans")
        anatomy = by_label(points, "C. elegans (anatomy)")
        behavior = by_label(points, "C. elegans (agar behavior)")
        assert anatomy.x == behavior.x == 302
        assert anatomy.series == "natural-anatomy"
        assert behavior.series == "natural-behavior"
        assert anatomy.y == pytest.approx(490.7, abs=0.5)
        assert behavior.y == pytest.approx(22.6, abs=0.5)
        robots = [p for p in points if p.series == "artificial"]
        assert len(robots) == 19
        # Robot y values are bits here, not log10 counts.
        assert by_label(points, "NAO").y == pytest.approx(237.9, abs=0.5)

    def test_fig5_adds_larger_animals(self):
        points = trend_table(DATASET, "fig5_animals")
        fly = by_label(points, "Drosophila")
        cat = by_label(points, "Cat")
        mocap = by_label(points, "Human (mocap)")
        breath = by_label(points, "Human (breath)")
        assert fly.x == NEURON_COUNTS["Drosophila"] == 100_000
        assert cat.x == NEURON_COUNTS["Cat"] == 760_000_000
        assert mocap.x == breath.x == 86_000_000_000
        assert fly.y == pytest.approx(2072.7, abs=1)
        assert cat.y == pytest.approx(3434.9, abs=1)
        assert mocap.y == pytest.approx(1875.9, abs=1)
        assert breath.y == pytest.approx(29897.4, abs=1)
        assert fly.series == cat.series == "natural-anatomy"
        assert mocap.series == breath.series == "natural-behavior"

    def test_fig3_skip_diagnostics(self):
        diags = []
        trend_table(DATASET, "fig3_bits_vs_bits", diagnostics=diags)
        skipped = sorted(d.message for d in diags)
        assert len(skipped) == 3
        assert all("Bellagio" in m and "no processor" in m for m in skipped)

    def test_fig5_skips_non_computable(self):
        diags = []
        trend_table(DATASET, "fig5_animals", diagnostics=diags)
        assert any(
            "Human (WA-eval)" in d.message and "not computable" in d.message
            for d in diags
        )

    def test_capacity_gap_invariants(self):
        # The two headline gaps: every robot's mechanical state count
        # stays under 10^140, and its computational bits exceed its
        # mechanical bits by nearly the full transistor budget.
        fig2 = trend_table(DATASET, "fig2_mech_configs")
        assert max(p.y for p in fig2) <= 140
        fig3 = trend_table(DATASET, "fig3_bits_vs_bits")
        assert min(p.x - p.y for p in fig3) > 1e6 - 600


class TestCsv:
    def test_header_only_for_no_points(self):
        assert emit_csv([]) == "label,series,x,y\n"

    def test_sorted_rows(self):
        pts = [
            TrendPoint("b", 2.0, 5.0, "s"),
            TrendPoint("a", 2.0, 7.0, "s"),
            TrendPoint("z", 1.0, 6.0, "s"),
            TrendPoint("m", 9.0, 1.0, "r"),
        ]
        lines = emit_csv(pts).splitlines()
        assert lines[0] == "label,series,x,y"
        assert [l.split(",")[0] for l in lines[1:]] == ["m", "z", "a", "b"]

    def test_quoting_round_trip(self):
        pts = [
            TrendPoint('with "quote"', 1.0, 2.0, "s"),
            TrendPoint("with,comma", 3.0, 4.5, "s"),
            TrendPoint("plain", 1e-7, 4.777777777777e30, "s"),
        ]
        back = parse_csv(emit_csv(pts))
        assert back == sort_points(pts)

    def test_numbers_round_trip_exactly(self):
        pts = [TrendPoint("p", 0.1 + 0.2, 1 / 3, "s")]
        back = parse_csv(emit_csv(pts))
        assert back[0].x == 0.1 + 0.2
        assert back[0].y == 1 / 3

    def test_integral_floats_written_as_integers(self):
        text = emit_csv([TrendPoint("p", 2008.0, 47000000.0, "s")])
        assert "2008," in text and "47000000" in text
        assert "2008.0" not in text

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_csv("x,y\n1,2\n")
        with pytest.raises(ValueError):
            parse_csv("")

    def test_deterministic(self):
        a = build_figure(DATASET, "fig2_mech_configs")
        b = build_figure(DATASET, "fig2_mech_configs")
        assert a.csv == b.csv


SQUARE = AxisSpec("x", "y", x_log=True, y_log=True)


class TestSvg:
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_well_formed_and_marker_count(self, figure_id):
        bundle = build_figure(DATASET, figure_id)
        root = ET.fromstring(bundle.svg)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        markers = [
            el
            for el in root.iter("{http://www.w3.org/2000/svg}circle")
            if el.get("class") == "marker"
        ]
        assert len(markers) == len(bundle.points)
        legend = [
            el
            for el in root.iter("{http://www.w3.org/2000/svg}circle")
            if el.get("class") is None
        ]
        assert len(legend) == len({p.series for p in bundle.points})

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_byte_deterministic(self, figure_id):
        assert (
            build_figure(DATASET, figure_id).svg
            == build_figure(DATASET, figure_id).svg
        )

    def test_single_point_warns_and_renders(self):
        pts = [TrendPoint("only", 100.0, 10.0, "s")]
        with pytest.warns(DegenerateAxisWarning):
            svg = emit_svg_scatter(pts, SQUARE)
        root = ET.fromstring(svg)
        markers = [
            el
            for el in root.iter("{http://www.w3.org/2000/svg}circle")
            if el.get("class") == "marker"
        ]
        assert len(markers) == 1

    def test_fig3_square_plot_area(self):
        bundle = build_figure(DATASET, "fig3_bits_vs_bits")
        root = ET.fromstring(bundle.svg)
        assert root.get("width") == "640"
        assert root.get("height") == "620"
        frame = [
            el
            for el in root.iter("{http://www.w3.org/2000/svg}rect")
            if el.get("fill") == "none"
        ]
        assert len(frame) == 1
        assert frame[0].get("width") == frame[0].get("height") == "550.00"

    def test_log_ticks_are_powers_of_ten(self):
        bundle = build_figure(DATASET, "fig3_bits_vs_bits")
        root = ET.fromstring(bundle.svg)
        tick_texts = [
            el.text
            for el in root.iter("{http://www.w3.org/2000/svg}text")
            if el.get("font-size") == "11" and el.text and el.text.startswith("1e")
        ]
        assert len(tick_texts) >= 4
        assert all(t[2:].lstrip("-").isdigit() for t in tick_texts)

    def test_log_axis_within_one_decade_labels_its_ends(self):
        # 2 to 5, padded by 5% of the span in log space each side: no power
        # of ten lies inside, so the two ends are the ticks.
        points = [TrendPoint("a", 2.0, 1.0, "s"), TrendPoint("b", 5.0, 2.0, "s")]
        svg = emit_svg_scatter(points, AxisSpec("x", "y", x_log=True))
        root = ET.fromstring(svg)
        x_ticks = [
            el.text
            for el in root.iter("{http://www.w3.org/2000/svg}text")
            if el.get("font-size") == "11" and el.get("text-anchor") == "middle"
        ]
        assert x_ticks == ["1.91", "5.23"]

    def test_label_suppression(self):
        spec = AxisSpec("x", "y", x_log=False, y_log=False)
        near = [
            TrendPoint("a", 0.0, 0.0, "s"),
            TrendPoint("b", 1.0, 1.0, "s"),
            TrendPoint("c", 1.0 + 1e-9, 1.0, "s"),
        ]
        svg = emit_svg_scatter(near, spec)
        labels = [
            line for line in svg.splitlines() if 'font-size="10"' in line
        ]
        # "c" coincides with "b" and is suppressed.
        assert len(labels) == 2
        assert any(">a<" in l for l in labels)
        assert any(">b<" in l for l in labels)
        assert not any(">c<" in l for l in labels)

    def test_no_external_references(self):
        for figure_id in FIGURE_IDS:
            svg = build_figure(DATASET, figure_id).svg
            assert "http" not in svg.replace(
                "http://www.w3.org/2000/svg", ""
            )
            assert "xlink" not in svg

    def test_log_axis_rejects_non_positive(self):
        with pytest.raises(ValueError):
            emit_svg_scatter([TrendPoint("p", -1.0, 1.0, "s")], SQUARE)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            emit_svg_scatter([], SQUARE, width=0)
        with pytest.raises(ValueError):
            emit_svg_scatter([], SQUARE, width=80, height=60)

    def test_csv_feeds_svg_identically(self):
        # Rendering the parsed CSV reproduces the bundle's SVG verbatim,
        # so the two emitted artifacts can never disagree.
        bundle = build_figure(DATASET, "fig2_mech_configs")
        reparsed = parse_csv(bundle.csv)
        assert emit_svg_scatter(reparsed, bundle.axis_spec, 640, 480) == bundle.svg

    def test_empty_dataset_renders(self):
        svg = emit_svg_scatter([], SQUARE)
        ET.fromstring(svg)


def _points(series_of, *rows):
    return [TrendPoint(label, x, y, series_of) for label, x, y in rows]


LINEAR = AxisSpec("x", "y")
_NINE_SERIES = ["artificial", "natural-anatomy", "natural-behavior"] + [
    f"extra-{i}" for i in range(1, 7)
]

# Synthetic inputs beyond the five bundled figures, each with the SHA-256
# of its SVG and the warnings it gives.  The digests were recorded from
# the emitter as it stood before it was rewritten around one text writer
# and one pixel mapping per axis, so they pin every byte of that output.
PINNED_SVGS = {
    "fallback-colors": (
        [TrendPoint(f"p{i}", float(i), float(i * i), s) for i, s in enumerate(_NINE_SERIES)],
        LINEAR,
        {},
        "b6e6df209e5c5054e6e95dfb5e133677eb6af51035c3980d99117f850f548ebe",
        (),
    ),
    "escaped-text": (
        _points("<s&t>", ("a<b & c>", 1.0, 10.0), ("&amp;", 100.0, 1000.0)),
        AxisSpec("x <&> axis", "y & <y>", x_log=True, y_log=True),
        {},
        "bf1c7712f85d23996b09b66598d53ff487d6d2a8f857d1f8bf45b211eefb6118",
        (),
    ),
    "fractional-negative-ticks": (
        _points("s", ("lo", -0.37, -1250.0), ("mid", -0.05, -400.5), ("hi", 0.021, -3.0)),
        LINEAR,
        {},
        "4a0f9cbafe092ed249ac4952859868fea422bca2f9ca753a4f337808d85f6aa8",
        (),
    ),
    "log-x-linear-y": (
        _points("s", ("a", 0.002, -7.5), ("b", 3.0, 0.25), ("c", 4.0e9, 12.0)),
        AxisSpec("x", "y", x_log=True),
        {},
        "0ab788d5285a86fce15c01789f3a28d0afb33277c42a37a97925c172dbf5e95c",
        (),
    ),
    "crowded-labels": (
        [TrendPoint(f"p{i}", i * 0.01, (i % 3) * 0.01, "s") for i in range(30)]
        + _points("t", ("far", 5.0, 5.0), ("near-far", 5.001, 5.0)),
        LINEAR,
        {},
        "0cd5fc82b3acac42137de13a2790cfb0119067b56cf161924e01b03676b10112",
        (),
    ),
    "empty": (
        [],
        SQUARE,
        {},
        "ce8ff43c462fdebec7895d170f105c8e8ab2704db25d2aac7bb1e2ed9636d49c",
        (),
    ),
    "odd-size": (
        _points("s", ("a", 1.5, 2.5), ("b", 7.25, 9.125)),
        LINEAR,
        {"width": 333.3, "height": 217},
        "5ba19be21984825ca79932abba72c2d687a964ccffdc6ad29662c146a304460c",
        (),
    ),
    "single-point-log": (
        _points("s", ("only", 100.0, 10.0)),
        SQUARE,
        {"width": 500, "height": 500},
        "f436b74e9b4230015d77aa59f8f359350d3d0b975ad63c580b1d9d124ea8b5e9",
        ("x axis has zero span; padding by half a decade",
         "y axis has zero span; padding by half a decade"),
    ),
    "single-point-linear": (
        _points("s", ("only", 3.0, -2.0)),
        LINEAR,
        {},
        "bdc2f5993ad2228560d7ed07ae80542f14703109cd96ff386e52f2ef86bb8bd8",
        (),
    ),
}


@pytest.mark.parametrize("name", PINNED_SVGS)
def test_svg_bytes_are_pinned(name):
    points, spec, size, digest, expected_warnings = PINNED_SVGS[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        svg = emit_svg_scatter(points, spec, **size)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest
    assert [(w.category, str(w.message), w.filename) for w in caught] == [
        (DegenerateAxisWarning, message, __file__) for message in expected_warnings
    ]


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("x", (1e16,), "x axis cannot be drawn: padded span 0.0"),
        ("x", (-1e308, 1e308), "x axis cannot be drawn: padded span inf"),
        ("y", (1.7e308, -1e308), "y axis cannot be drawn: padded span inf"),
        ("y", (-2e16, -2e16), "y axis cannot be drawn: padded span 0.0"),
    ],
    ids=["point-at-1e16", "x-past-float-range", "y-past-float-range", "y-repeated-at-2e16"],
)
def test_axis_that_cannot_be_drawn_raises(axis, values, message):
    # Around 1e16 a pad of 0.5 rounds away; a span of 2e308 overflows.
    points = [
        TrendPoint(f"p{i}", *((v, 1.0 + i) if axis == "x" else (1.0 + i, v)), "s")
        for i, v in enumerate(values)
    ]
    with pytest.raises(ValueError) as info:
        emit_svg_scatter(points, LINEAR)
    assert str(info.value) == message


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("axis", "xy")
def test_subnormal_span_raises_naming_the_axis(axis, k):
    # Points at 0 and k subnormal steps leave a span whose tick step
    # rounds to zero; that used to be a bare math domain error (k <= 2)
    # or an UnboundLocalError.
    values = (0.0, k * 5e-324)
    points = [
        TrendPoint(f"p{i}", *((v, 1.0 + i) if axis == "x" else (1.0 + i, v)), "s")
        for i, v in enumerate(values)
    ]
    with pytest.raises(ValueError, match=f"^{axis} axis cannot be drawn: padded span "):
        emit_svg_scatter(points, LINEAR)


def test_tick_step_below_the_float_spacing_ends():
    # Near 1e16 floats are 2 apart, so a tick step of 1 leaves a tick
    # where it is; the loop must end instead of spinning.
    code = (
        "from mechx.figures import AxisSpec, TrendPoint, emit_svg_scatter\n"
        "points = [TrendPoint('a', 1e16, 0.0, 's'), TrendPoint('b', 1e16 + 4, 1.0, 's')]\n"
        "svg = emit_svg_scatter(points, AxisSpec('x', 'y'))\n"
        "print([line for line in svg.splitlines() if 'y=\"448.00\"' in line])\n"
    )
    src = pathlib.Path(figures.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "['<text x=\"70.00\" y=\"448.00\" font-size=\"11\" text-anchor=\"middle\" "
        "font-family=\"sans-serif\">1e+16</text>']\n"
    )


def _frozen_linear_ticks(lo, hi):
    # _linear_ticks and _tick_label as they were before a tick step that
    # the labels could not show got labels of its own: the reference the
    # labels must still match wherever its labels are distinct.
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw))
    step = next((m * mag for m in (1, 2, 5) if raw <= m * mag), 10 * mag)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-12 * abs(step):
        ticks.append(round(t, 12))
        if t + step == t:
            break
        t += step
    return ticks


def _frozen_tick_label(coord):
    if coord == int(coord) and abs(coord) < 1e16:
        return str(int(coord))
    return f"{coord:.6g}"


def _x_tick_labels(svg):
    return [
        el.text
        for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
        if el.get("font-size") == "11" and el.get("text-anchor") == "middle"
    ]


@pytest.mark.parametrize(
    "xs, labels",
    [
        ((1.0, 1.000000001), ["1", "1.0000000005", "1.000000001"]),
        ((1e-13, 3e-13), ["1e-13", "1.5e-13", "2e-13", "2.5e-13", "3e-13"]),
    ],
    ids=["near-one", "near-zero"],
)
def test_narrow_linear_axis_gets_distinct_tick_labels(xs, labels):
    # Rounded to 12 decimals and printed to 6 digits, these ticks read
    # "1 1 1" and "0 0 0 0 0".
    points = [TrendPoint(f"p{i}", x, 1.0 + i, "s") for i, x in enumerate(xs)]
    assert _x_tick_labels(emit_svg_scatter(points, LINEAR)) == labels


def test_tick_labels_name_their_ticks_far_from_zero():
    # To 6 digits these ticks read "100000 100001 100002".
    lo, hi = figures._axis_range([100000.5, 100001.5], False, "x")
    ticks = figures._linear_ticks(lo, hi, "x")
    assert ticks == [(100000.5, "100000.5"), (100001.0, "100001"), (100001.5, "100001.5")]


def test_tick_labels_keep_their_old_text_wherever_it_was_distinct():
    rng = random.Random(4242)
    verdicts = set()
    for _ in range(4000):
        center = rng.choice((1, -1)) * 10 ** rng.uniform(-20, 20) * rng.choice((0, 1))
        width = 10 ** rng.uniform(-15, 1) * max(abs(center), 10 ** rng.uniform(-20, 20))
        lo, hi = figures._axis_range([center, center + width], False, "x")
        ticks, labels = zip(*figures._linear_ticks(lo, hi, "x"))
        old = _frozen_linear_ticks(lo, hi)
        old_labels = [_frozen_tick_label(t) for t in old]
        distinct = len(set(old_labels)) == len(old_labels)
        # An old label that does not read back as its tick (100000.5 shown
        # as 100000) is not kept.
        named = all(float(label) == t for t, label in zip(old, old_labels))
        if distinct and named:
            assert (list(ticks), list(labels)) == (old, old_labels)
        else:
            assert len(ticks) == len(old)
            values = [float(label) for label in labels]
            assert values == sorted(set(values))
            if distinct and len(ticks) > 1:  # an old label misnamed its tick; no new one does
                step = (ticks[-1] - ticks[0]) / (len(ticks) - 1)
                assert all(abs(v - t) < step / 2 for v, t in zip(values, ticks))
        verdicts.add((distinct, named))
    assert verdicts >= {(True, True), (True, False), (False, True)}
