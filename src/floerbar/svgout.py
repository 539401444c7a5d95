"""Write-only SVG rendering: barcode strips per degree and diagram schematics.

Layout coordinates are computed with exact rational arithmetic and emitted as
integers (pi-linear endpoints are positioned with a rational convergent of
pi; this affects pixel placement only, never any computed value).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # annotations only: rendering loads no layer
    from .diagrams import TwoCurveDiagram
    from .persistence import Barcode

__all__ = ["barcode_svg", "diagram_svg"]

_PI_PIXELS = Fraction(355, 113)


def _approx(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if hasattr(value, "rational"):
        return value.rational + value.pi_coeff * _PI_PIXELS
    return Fraction(value)


def barcode_svg(barcode: Barcode, width: int = 640) -> str:
    bars = barcode.expand()
    if not bars:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40">'
                '<text x="10" y="25" font-size="12">empty barcode</text></svg>')
    finite_pts = [_approx(b.left) for b in bars]
    finite_pts += [_approx(b.right) for b in bars if not b.is_infinite]
    lo, hi = min(finite_pts), max(finite_pts)
    if lo == hi:
        hi = lo + 1
    span = hi - lo
    margin, lane_h = 60, 18

    def x(v: Fraction) -> int:
        return margin + int((Fraction(v) - lo) * (width - 2 * margin) / span)

    degrees = barcode.degrees()
    rows: List[str] = []
    y = 20
    for deg in degrees:
        rows.append(f'<text x="4" y="{y + 12}" font-size="11">deg {deg}</text>')
        for b in bars:
            if b.degree != deg:
                continue
            x0 = x(_approx(b.left))
            x1 = width - margin // 2 if b.is_infinite else x(_approx(b.right))
            dash = ' stroke-dasharray="6 3"' if b.is_infinite else ""
            rows.append(f'<line x1="{x0}" y1="{y + 8}" x2="{x1}" y2="{y + 8}" '
                        f'stroke="black" stroke-width="3"{dash}/>')
            y += lane_h
        y += 8
    height = y + 10
    body = "".join(rows)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}">{body}</svg>')


def diagram_svg(diagram: TwoCurveDiagram, size: int = 420) -> str:
    """Meander-style schematic: the first curve as a horizontal line with the
    crossings in order, the second as arcs above/below, faces listed with
    their areas.  Reads the diagram's validated geometry, built once per
    diagram."""
    geo = diagram._analysis.geometry
    m = geo.m
    pad = 40
    xs = {p: pad + (i * (size - 2 * pad)) // max(m - 1, 1)
          for i, p in enumerate(diagram.order_k)}
    mid = size // 2
    parts = [f'<line x1="{pad - 20}" y1="{mid}" x2="{size - pad + 20}" y2="{mid}" '
             'stroke="steelblue" stroke-width="2"/>']
    for p, xp in xs.items():
        parts.append(f'<circle cx="{xp}" cy="{mid}" r="3" fill="black"/>')
        parts.append(f'<text x="{xp - 4}" y="{mid + 16}" font-size="11">{p}</text>')
    # second curve: one arc per consecutive pair along its cyclic order,
    # bending to the side of the first curve it lives on
    sides = sorted(geo.face_components("L"), key=min)
    for i in range(m):
        a, b = geo.arcs["L"][i]
        face = geo.left[("L", i)]
        above = face in sides[0]
        xa, xb = xs[a], xs[b]
        r = max(abs(xb - xa) // 2, 14)
        sweep = 1 if above else 0
        parts.append(f'<path d="M {xa} {mid} A {r} {r} 0 0 {sweep} {xb} {mid}" '
                     'fill="none" stroke="seagreen" stroke-width="2"/>')
    y = size + 6
    for name in sorted(diagram.areas):
        flag = " (boundary)" if name in diagram.boundary_faces else ""
        parts.append(f'<text x="{pad}" y="{y}" font-size="11">{name}: '
                     f'{diagram.areas[name]}{flag}</text>')
        y += 14
    body = "".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{y + 6}">{body}</svg>')
