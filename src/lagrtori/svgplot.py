"""Deterministic SVG rendering of the moment triangle and fiber lattices.

Output is plain SVG 1.1 assembled from fixed-format strings: no timestamps,
no library-dependent attribute ordering, identical bytes for identical
inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import lattice_indices

_W, _H, _PAD = 480, 440, 48
_SCALE = 360.0


def _screen(r0, r1) -> tuple[float, float]:
    return (_PAD + float(r0) * _SCALE, _H - _PAD - float(r1) * _SCALE)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _circle(x: float, y: float, r: float, style: str, cls: str) -> str:
    return (f'  <circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" '
            f'r="{_fmt(r)}" {style}/>')


def render_triangle_plot(level: int) -> str:
    """SVG of the triangle with the level's fiber lattices marked.

    Interior lattice points are filled dots, boundary points of the closed
    lattice are open rings, and the symmetric monotone point carries a
    distinct highlight ring whether or not it is a lattice point.
    """
    boundary, interior = [], []
    for i, j in lattice_indices(level, closed=True):
        (boundary if i == 0 or j == 0 or i + j == level else interior).append((i, j))

    v0, v1, v2 = _screen(0, 0), _screen(1, 0), _screen(0, 1)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'  <title>fiber lattice, level {level}</title>',
        f'  <rect width="{_W}" height="{_H}" fill="white"/>',
        f'  <path d="M {_fmt(v0[0])} {_fmt(v0[1])} L {_fmt(v1[0])} {_fmt(v1[1])} '
        f'L {_fmt(v2[0])} {_fmt(v2[1])} Z" fill="#f5f5f0" stroke="#333333" '
        'stroke-width="1.5"/>',
    ]
    for i, j in boundary:
        x, y = _screen(i / level, j / level)
        lines.append(_circle(x, y, 3.2, 'fill="none" stroke="#888888" stroke-width="1.2"',
                             "closed-fiber"))
    for i, j in interior:
        x, y = _screen(i / level, j / level)
        lines.append(_circle(x, y, 4.0, 'fill="#1f77b4" stroke="none"', "open-fiber"))
    mx, my = _screen(Fraction(1, 3), Fraction(1, 3))
    lines.append(_circle(mx, my, 7.0, 'fill="none" stroke="#d62728" stroke-width="2.0"',
                         "monotone-point"))
    lines.append(f'  <text x="{_fmt(_PAD)}" y="{_fmt(28.0)}" font-family="monospace" '
                 f'font-size="14" fill="#333333">level {level}: '
                 f'{len(interior)} interior / {len(boundary) + len(interior)} closed</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
