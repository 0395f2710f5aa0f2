"""
Deterministic SVG pictures of cactus words.

Diagrams are drawn left to right, one column per letter: the strands at
positions p..q run to a single midpoint and come out in reversed order, all
other strands pass straight through.  Geometry is fixed (integer track
spacing and column width) so the output is byte-reproducible and suitable for
golden-file comparison.  Every coordinate is an integer: COLUMN is even, so a
column's midpoint is, and a crossing meets at (y[p] + y[q]) / 2 with
y[p] + y[q] = 2 MARGIN + TRACK (p + q - 2), even because TRACK is.
"""

from __future__ import annotations

from .cactus import CactusWord, walk

TRACK = 24  # vertical distance between strand tracks
COLUMN = 36  # horizontal advance per letter
MARGIN = 12


def render_svg(w: CactusWord, labels: bool = False) -> str:
    """Render a word as SVG text; one polyline per strand.

    With labels=True, strand numbers are printed at the left edge and the
    label set of each crossing underneath its column.
    """
    width = 2 * MARGIN + COLUMN * len(w.letters)
    height = 2 * MARGIN + TRACK * (w.n - 1) + (18 if labels and w.letters else 0)
    y = [MARGIN + TRACK * (pos - 1) for pos in range(w.n + 1)]  # y[pos] of track pos
    ys = [f",{y_pos}" for y_pos in y]  # ",y" of track pos
    strands = range(1, w.n + 1)
    tracks = list(strands)  # tracks[pos - 1] = strand on that track
    points = [[f"0,{y[strand]}"] for strand in range(w.n + 1)]  # "x,y ..." strings per strand
    texts = []
    x = MARGIN
    for letter, block in zip(w.letters, walk(w.letters, tracks, tuple)):
        p, q = letter.p, letter.q
        left, middle, right = str(x), f" {x + COLUMN // 2},{(y[p] + y[q]) // 2} ", str(x + COLUMN)
        for pos, strand in enumerate(block, start=p):
            points[strand].append(left + ys[pos] + middle + right + ys[p + q - pos])
        if labels:
            text = ",".join(map(str, sorted(block)))
            texts.append(f'<text x="{x + COLUMN // 2}" y="{height - 4}" font-family="monospace"'
                         f' font-size="9" text-anchor="middle">{{{text}}}</text>')
        x += COLUMN
    for pos, strand in enumerate(tracks, start=1):
        points[strand].append(f"{width},{y[pos]}")

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
             f' viewBox="0 0 {width} {height}">']
    lines += (f'<polyline fill="none" stroke="black" stroke-width="2"'
              f' points="{" ".join(points[strand])}"/>' for strand in strands)
    if labels:
        lines += (f'<text x="2" y="{y[strand] - 3}" font-family="monospace"'
                  f' font-size="9">{strand}</text>' for strand in strands)
        lines += texts
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
