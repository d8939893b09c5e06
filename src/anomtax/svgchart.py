"""Minimal static SVG line charts for ROC output.

Self-contained files: fixed-size viewport, unit-square axes, no scripting.
"""

from __future__ import annotations

__all__ = ["unit_line_chart"]

_SIZE = 480
_MARGIN = 50
_PLOT = _SIZE - 2 * _MARGIN
_COLOR = "#1f77b4"
_XLABEL = "False positive rate"
_YLABEL = "True positive rate"


def _px(x: float, y: float):
    # data space is the unit square, y axis points up
    return (_MARGIN + x * _PLOT, _SIZE - _MARGIN - y * _PLOT)


def unit_line_chart(label: str, points, title: str) -> str:
    """SVG text for one ROC line named ``label`` over [0, 1] x [0, 1],
    with FPR and TPR axes and the dashed diagonal chance line.

    ``points`` is an iterable of (x, y) pairs.
    """
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
        f'<text x="{_SIZE / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    # axes box and ticks every 0.25
    x0, y0 = _px(0.0, 0.0)
    x1, y1 = _px(1.0, 1.0)
    parts.append(f'<rect x="{x1 - _PLOT:.1f}" y="{y1:.1f}" width="{_PLOT}" '
                 f'height="{_PLOT}" fill="none" stroke="#000000"/>')
    for i in range(5):
        v = i / 4
        px, _ = _px(v, 0.0)
        _, py = _px(0.0, v)
        parts.append(f'<line x1="{px:.1f}" y1="{y0:.1f}" x2="{px:.1f}" '
                     f'y2="{y0 + 5:.1f}" stroke="#000000"/>')
        parts.append(f'<text x="{px:.1f}" y="{y0 + 20:.1f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{v:.2f}</text>')
        parts.append(f'<line x1="{x0 - 5:.1f}" y1="{py:.1f}" x2="{x0:.1f}" '
                     f'y2="{py:.1f}" stroke="#000000"/>')
        parts.append(f'<text x="{x0 - 8:.1f}" y="{py + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{v:.2f}</text>')
    parts.append(f'<text x="{_SIZE / 2:.1f}" y="{_SIZE - 8}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{_XLABEL}</text>')
    parts.append(f'<text x="14" y="{_SIZE / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 14 {_SIZE / 2:.1f})">'
                 f'{_YLABEL}</text>')
    parts.append(f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" '
                 f'y2="{y1:.1f}" stroke="#999999" stroke-dasharray="6,4"/>')
    coords = " ".join(f"{_px(x, y)[0]:.2f},{_px(x, y)[1]:.2f}"
                      for x, y in points)
    parts.append(f'<polyline points="{coords}" fill="none" '
                 f'stroke="{_COLOR}" stroke-width="2"/>')
    # legend: a line sample and the label
    ly = _MARGIN + 18
    parts.append(f'<line x1="{_MARGIN + _PLOT - 120:.1f}" y1="{ly}" '
                 f'x2="{_MARGIN + _PLOT - 96:.1f}" y2="{ly}" '
                 f'stroke="{_COLOR}" stroke-width="2"/>')
    parts.append(f'<text x="{_MARGIN + _PLOT - 90:.1f}" y="{ly + 4}" '
                 f'font-family="sans-serif" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
