import xml.etree.ElementTree as ET

from kirchlab.svgplot import LineChart


def chart():
    c = LineChart(title="demo", xlabel="x", ylabel="y", logx=True, logy=True)
    c.add_line([1.0, 10.0, 100.0], [1.0, 0.1, 0.01], "decay")
    c.add_points([1.0, 10.0], [0.5, 0.05], "pts")
    return c


def test_render_is_valid_xml():
    ET.fromstring(chart().render())


def test_render_deterministic():
    assert chart().render() == chart().render()


def test_log_axes_drop_nonpositive_points():
    c = LineChart(logy=True)
    c.add_line([1.0, 2.0, 3.0], [1.0, 0.0, -1.0])
    body = c.render()
    # only the first point survives, so no polyline with multiple points
    assert "polyline" in body
    assert body.count(",") >= 1


def test_empty_chart_renders():
    ET.fromstring(LineChart(title="empty").render())


def test_log_axes_without_a_range_render():
    # No visible point, and a single point below 0.5, on log axes.
    ET.fromstring(LineChart(logx=True, logy=True).render())
    c = LineChart(logx=True, logy=True)
    c.add_line([0.2, 0.2], [0.0, 0.3])
    ET.fromstring(c.render())
