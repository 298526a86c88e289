"""Trend tables, CSV emission, and deterministic SVG rendering."""

import math
import xml.etree.ElementTree as ET

import pytest

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
