"""SVG chart rendering: structure, colors, determinism."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from astute_np import ACCURACY_COLOR, ASTUTENESS_COLOR, sweep_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def _chart(tmp_path, sizes=(20, 100, 1000), acc=((0.80, 0.90, 0.99), (0.05, 0.02, 0.01)),
           ast=((0.60, 0.80, 0.95), (0.08, 0.03, 0.01)), title="demo", name="chart.svg"):
    return sweep_chart(sizes, *acc, *ast, str(tmp_path / name), title=title)


def test_svg_is_well_formed(tmp_path):
    root = ET.fromstring(_chart(tmp_path))
    assert root.tag == f"{SVG_NS}svg"


def test_marker_counts(tmp_path):
    root = ET.fromstring(_chart(tmp_path))
    circles = root.findall(f".//{SVG_NS}circle")
    polylines = root.findall(f".//{SVG_NS}polyline")
    # one marker per point, one data polyline per series (the frame and
    # error bars are lines and paths)
    assert len(circles) == 6
    assert len(polylines) == 2


def test_series_colors_present(tmp_path):
    doc = _chart(tmp_path)
    assert ACCURACY_COLOR in doc
    assert ASTUTENESS_COLOR in doc
    assert "accuracy" in doc and "astuteness" in doc


def test_render_deterministic(tmp_path):
    assert _chart(tmp_path, name="a.svg") == _chart(tmp_path, name="b.svg")


def test_golden_hash_frozen(tmp_path):
    # catches accidental layout churn; update deliberately when the chart
    # format itself changes
    _chart(tmp_path)
    digest = hashlib.sha256((tmp_path / "chart.svg").read_bytes()).hexdigest()
    assert digest == "c03e623529dd8c1816f5de0a29cbe08fc008cf851959f51c898a33e15084be27"


def test_emit_writes_file(tmp_path):
    doc = _chart(tmp_path)
    assert (tmp_path / "chart.svg").read_text() == doc
    ET.fromstring(doc)


def test_sweep_chart_writes(tmp_path):
    out = tmp_path / "sweep.svg"
    sweep_chart((10, 100), (0.7, 0.9), (0.1, 0.02), (0.5, 0.8), (0.1, 0.05),
                str(out), title="tiny sweep")
    doc = out.read_text()
    ET.fromstring(doc)
    assert "tiny sweep" in doc


def test_log_scale_kicks_in_for_wide_ranges(tmp_path):
    flat = ((0.5, 0.9), (0.0, 0.0))
    wide = _chart(tmp_path, sizes=(10, 1000), acc=flat, ast=flat)
    narrow = _chart(tmp_path, sizes=(10, 20), acc=flat, ast=flat)
    # under a log axis the midpoint of 10..1000 is 100; linearly it is 505,
    # so the x tick positions differ between the two documents
    assert wide != narrow


def test_single_size_sits_mid_plot(tmp_path):
    # one size spans no x range, so the axis is padded around it
    flat = ((0.5,), (0.0,))
    root = ET.fromstring(_chart(tmp_path, sizes=(100,), acc=flat, ast=flat))
    assert {c.get("cx") for c in root.findall(f".//{SVG_NS}circle")} == {"340.00"}


def test_series_validation(tmp_path):
    with pytest.raises(ValueError):
        _chart(tmp_path, sizes=(), acc=((), ()), ast=((), ()))
    with pytest.raises(ValueError):
        _chart(tmp_path, sizes=(1, 2), acc=((0.5,), (0.1,)))
    with pytest.raises(ValueError):
        _chart(tmp_path, sizes=(1, 2), ast=((0.5, 0.6), (0.1,)))


def test_escaping_in_title(tmp_path):
    flat = ((0.5, 0.6), (0.0, 0.0))
    doc = _chart(tmp_path, sizes=(1, 2), acc=flat, ast=flat, title="a < b & c")
    ET.fromstring(doc)
    assert "a &lt; b &amp; c" in doc
