"""Minimal static SVG line charts.

Byte-deterministic by construction: plots are assembled from formatted
strings only, with no timestamps or generated ids. Charts are a viewing
convenience; the CSV files are the data contract.
"""

from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _transform(value, lo, hi, pix_lo, pix_hi, log):
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5 * (pix_lo + pix_hi)
    frac = (value - lo) / (hi - lo)
    return pix_lo + frac * (pix_hi - pix_lo)


def _ticks(lo, hi, log):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // 8)
        return [10.0**e for e in range(lo_e, hi_e + 1, step) if lo <= 10.0**e <= hi]
    if hi == lo:
        return [lo]
    raw = (hi - lo) / 6.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw), default=10.0) * mag
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * abs(step):
        ticks.append(v)
        v += step
    return ticks


def _span(values, log):
    """Axis range of the visible values. An empty or one-point range is
    widened to one that a log axis can show too."""
    if not values:
        return (1.0, 10.0) if log else (0.0, 1.0)
    lo, hi = min(values), max(values)
    if lo == hi:
        return (lo / 2.0, hi * 2.0) if log else (lo - 0.5, hi + 0.5)
    return lo, hi


class LineChart:
    """Collect labeled series, then render once to an SVG file."""

    def __init__(self, title="", xlabel="", ylabel="", logx=False, logy=False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.logx = logx
        self.logy = logy
        self.series = []

    def add_line(self, xs, ys, label=""):
        self.series.append((False, list(map(float, xs)), list(map(float, ys)), label, None))

    def add_points(self, xs, ys, label="", color=None):
        self.series.append((True, list(map(float, xs)), list(map(float, ys)), label, color))

    def _visible(self, x, y):
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        if self.logx and x <= 0.0:
            return False
        if self.logy and y <= 0.0:
            return False
        return True

    def render(self) -> str:
        # Lines are drawn, coloured and listed in the legend before point sets.
        series = sorted(self.series, key=lambda s: s[0])
        visible = [[(x, y) for x, y in zip(xs, ys) if self._visible(x, y)]
                   for _, xs, ys, _, _ in series]
        x_lo, x_hi = _span([x for pts in visible for x, _ in pts], self.logx)
        y_lo, y_hi = _span([y for pts in visible for _, y in pts], self.logy)

        px = lambda x: _transform(x, x_lo, x_hi, _ML, _W - _MR, self.logx)
        py = lambda y: _transform(y, y_lo, y_hi, _H - _MB, _MT, self.logy)

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
            f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
        ]
        if self.title:
            out.append(
                f'<text x="{_W // 2}" y="20" text-anchor="middle" '
                f'font-size="14">{self.title}</text>'
            )
        for tx in _ticks(x_lo, x_hi, self.logx):
            X = px(tx)
            out.append(
                f'<line x1="{_fmt(X)}" y1="{_H - _MB}" x2="{_fmt(X)}" '
                f'y2="{_H - _MB + 5}" stroke="black"/>'
            )
            out.append(
                f'<text x="{_fmt(X)}" y="{_H - _MB + 18}" text-anchor="middle" '
                f'font-size="11">{_fmt(tx)}</text>'
            )
        for ty in _ticks(y_lo, y_hi, self.logy):
            Y = py(ty)
            out.append(
                f'<line x1="{_ML - 5}" y1="{_fmt(Y)}" x2="{_ML}" '
                f'y2="{_fmt(Y)}" stroke="black"/>'
            )
            out.append(
                f'<text x="{_ML - 8}" y="{_fmt(Y)}" text-anchor="end" '
                f'font-size="11">{_fmt(ty)}</text>'
            )
        if self.xlabel:
            out.append(
                f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
                f'font-size="12">{self.xlabel}</text>'
            )
        if self.ylabel:
            out.append(
                f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="12" '
                f'transform="rotate(-90 16 {_H // 2})">{self.ylabel}</text>'
            )

        legend_y = _MT + 14
        for idx, ((is_points, _, _, label, color), pts) in enumerate(zip(series, visible)):
            color = color or _PALETTE[idx % len(_PALETTE)]
            if is_points:
                out.extend(
                    f'<rect x="{_fmt(px(x) - 3)}" y="{_fmt(py(y) - 3)}" '
                    f'width="6" height="6" fill="{color}"/>'
                    for x, y in pts
                )
            elif pts:
                coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
                out.append(
                    f'<polyline points="{coords}" fill="none" '
                    f'stroke="{color}" stroke-width="1.4"/>'
                )
            if label:
                out.append(
                    f'<text x="{_W - _MR - 8}" y="{legend_y}" text-anchor="end" '
                    f'font-size="11" fill="{color}">{label}</text>'
                )
                legend_y += 14
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
