"""SVG output is checked structurally by parsing it back as XML."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from routestretch import svgplot as sv

NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text):
    return ET.fromstring(svg_text)


def sample_series():
    return [
        ("N=10", [(1.0, 1.0), (2.0, 0.7), (3.0, 0.8)]),
        ("N=100", [(1.0, 1.0), (2.0, 0.4), (3.0, 0.5)]),
    ]


def test_chart_is_wellformed_xml_with_one_polyline_per_series():
    root = parse(sv.render_line_chart(sample_series(), "s_p", "s_t", "tradeoff"))
    assert root.tag == f"{NS}svg"
    assert root.get("width") == "800"
    assert root.get("height") == "600"
    polylines = root.findall(f"{NS}polyline")
    assert len(polylines) == 2
    for pl in polylines:
        assert pl.get("fill") == "none"
        assert len(pl.get("points").split()) == 3
    # distinct palette colors per series
    assert polylines[0].get("stroke") != polylines[1].get("stroke")


def test_chart_text_labels():
    root = parse(sv.render_line_chart(sample_series(), "path stretch", "table stretch", "T"))
    texts = [t.text for t in root.iter(f"{NS}text")]
    assert "T" in texts
    assert "path stretch" in texts
    assert "table stretch" in texts
    assert "N=10" in texts and "N=100" in texts


def test_chart_escapes_markup_in_labels():
    svg = sv.render_line_chart([("a<b&c", [(0.0, 0.0), (1.0, 1.0)])], "x<y", "y&z")
    root = parse(svg)  # would raise if unescaped
    texts = [t.text for t in root.iter(f"{NS}text")]
    assert "a<b&c" in texts


@given(st.text(st.sampled_from("&<>;amplgt") | st.characters()))
def test_escape_is_saxutils_escape(text):
    assert sv._escape(text) == escape(text)


def test_chart_handles_degenerate_extents():
    # single point and a flat series both need the padded bounds
    svg = sv.render_line_chart([("p", [(2.0, 3.0)]), ("q", [(2.0, 3.0), (2.0, 3.0)])], "x", "y")
    parse(svg)


def test_empty_series_rejected():
    with pytest.raises(ValueError, match="nothing to plot"):
        sv.render_line_chart([], "x", "y")
    with pytest.raises(ValueError, match="nothing to plot"):
        sv.render_line_chart([("empty", [])], "x", "y")


@pytest.mark.parametrize("point", [(1.0, float("nan")), (float("inf"), 2.0), (0.0, float("-inf"))])
def test_non_finite_point_rejected(point):
    series = [("ok", [(0.0, 0.0)]), ("N=10", [(0.5, 1.0), point])]
    with pytest.raises(ValueError, match=r"^series 'N=10' point 1 is not finite"):
        sv.render_line_chart(series, "x", "y")


def test_write_line_chart(tmp_path):
    p = tmp_path / "chart.svg"
    sv.write_line_chart(p, sample_series(), "x", "y", title="t")
    data = p.read_bytes()
    assert data == sv.render_line_chart(sample_series(), "x", "y", "t").encode()
    assert b"\r" not in data
