"""Deterministic SVG rendering of junior-simplex triangulations (n = 3).

Ray generators are projected to the age-1 slice by barycentric
coordinates and drawn inside an equilateral triangle.  All positions are
computed as exact fractions and quantized to fixed decimals, so the
output bytes depend only on the input fan.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionUnsupported
from .fans import Fan
from .groups import GroupData, element_names

# equilateral triangle corners for e1, e2, e3 (height 300*sqrt(3) ~ 519.6)
_CORNERS = (
    (Fraction(30), Fraction(5696, 10)),
    (Fraction(630), Fraction(5696, 10)),
    (Fraction(330), Fraction(50)),
)
_WIDTH, _HEIGHT = 660, 620


def _fmt(x: Fraction) -> str:
    # round half up at two decimals using integer arithmetic only
    q = (x.numerator * 200 + x.denominator) // (2 * x.denominator)
    return f"{q // 100}.{q % 100:02d}"


def _position(coords) -> tuple[Fraction, Fraction]:
    total = sum(coords)
    bary = [Fraction(c, total) for c in coords]
    x = sum(b * corner[0] for b, corner in zip(bary, _CORNERS))
    y = sum(b * corner[1] for b, corner in zip(bary, _CORNERS))
    return x, y


def junior_graph_svg(fan: Fan, group: GroupData) -> str:
    """SVG of the triangulated junior simplex with labeled points."""
    if fan.lattice.dim != 3:
        raise DimensionUnsupported("graph export is only defined for n = 3")
    names = element_names(group)
    positions = {ray: _position(ray.coords) for ray in fan.rays}

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for edge in fan.two_cones():
        a, b = edge.rays
        xa, ya = positions[a]
        xb, yb = positions[b]
        lines.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" '
            f'y2="{_fmt(yb)}" stroke="#000000" stroke-width="1"/>'
        )
    units = {u: f"e{i + 1}" for i, u in enumerate(group.lattice.units())}
    for ray in fan.rays:
        x, y = positions[ray]
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#000000"/>'
        )
        label = units.get(ray) or names.get(ray) or ""
        if label:
            lines.append(
                f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 6)}" '
                f'font-family="monospace" font-size="14">{label}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
