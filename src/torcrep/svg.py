"""Deterministic SVG rendering of junior-simplex triangulations (n = 3).

Ray generators are projected to the age-1 slice by barycentric
coordinates and drawn inside an equilateral triangle.  Each position is a
pair of integer numerators over one denominator ``10 * sum(coords)``,
quantized to fixed decimals, so the output bytes depend only on the input
fan.
"""

from __future__ import annotations

from .errors import InputError
from .fans import Fan
from .groups import GroupData, element_names

# equilateral triangle corners for e1, e2, e3 in tenths (height 300*sqrt(3) ~ 519.6)
_CORNERS = ((300, 5696), (6300, 5696), (3300, 500))
_WIDTH, _HEIGHT = 660, 620


def _fmt(num: int, den: int) -> str:
    # round half up at two decimals using integer arithmetic only; the
    # result depends on num / den alone, so a common factor changes nothing
    q = (num * 200 + den) // (2 * den)
    return f"{q // 100}.{q % 100:02d}"


def _position(coords) -> tuple[int, int, int]:
    """Numerators of ``x`` and ``y`` and their denominator ``10 * sum(coords)``."""
    x = sum(c * corner[0] for c, corner in zip(coords, _CORNERS))
    y = sum(c * corner[1] for c, corner in zip(coords, _CORNERS))
    return x, y, 10 * sum(coords)


def junior_graph_svg(fan: Fan, group: GroupData) -> str:
    """SVG of the triangulated junior simplex with labeled points."""
    if fan.lattice.dim != 3:
        raise InputError("graph export is only defined for n = 3")
    names = element_names(group)
    positions = {ray: _position(ray.coords) for ray in fan.rays}

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    # in n = 3 the 2-cones are the facets
    for a, b in sorted(fan.facets, key=lambda rays: tuple(r.coords for r in rays)):
        xa, ya, da = positions[a]
        xb, yb, db = positions[b]
        lines.append(
            f'<line x1="{_fmt(xa, da)}" y1="{_fmt(ya, da)}" x2="{_fmt(xb, db)}" '
            f'y2="{_fmt(yb, db)}" stroke="#000000" stroke-width="1"/>'
        )
    units = {u: f"e{i + 1}" for i, u in enumerate(group.lattice.units())}
    for ray in fan.rays:
        x, y, d = positions[ray]
        lines.append(
            f'<circle cx="{_fmt(x, d)}" cy="{_fmt(y, d)}" r="4" fill="#000000"/>'
        )
        label = units.get(ray) or names.get(ray) or ""
        if label:
            lines.append(
                f'<text x="{_fmt(x + 8 * d, d)}" y="{_fmt(y - 6 * d, d)}" '
                f'font-family="monospace" font-size="14">{label}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
