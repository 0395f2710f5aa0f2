"""
Deterministic SVG pictures of cactus words.

Diagrams are drawn left to right, one column per letter: the strands at
positions p..q run to a single midpoint and come out in reversed order, all
other strands pass straight through.  Geometry is fixed (integer track
spacing and column width) so the output is byte-reproducible and suitable for
golden-file comparison.
"""

from __future__ import annotations

from .cactus import CactusWord, walk

TRACK = 24  # vertical distance between strand tracks
COLUMN = 36  # horizontal advance per letter
MARGIN = 12


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.1f}"


def render_svg(w: CactusWord, labels: bool = False) -> str:
    """Render a word as SVG text; one polyline per strand.

    With labels=True, strand numbers are printed at the left edge and the
    label set of each crossing underneath its column.
    """
    width = 2 * MARGIN + COLUMN * len(w.letters)
    height = 2 * MARGIN + TRACK * (w.n - 1) + (18 if labels and w.letters else 0)

    def y(pos: int) -> int:
        return MARGIN + TRACK * (pos - 1)

    tracks = list(range(1, w.n + 1))  # tracks[pos - 1] = strand on that track
    points: dict[int, list[tuple[float, float]]] = {
        strand: [(0, y(strand))] for strand in tracks
    }
    crossing_texts = []
    x = MARGIN
    for letter, block in walk(w.letters, tracks):
        meeting_y = (y(letter.p) + y(letter.q)) / 2
        for pos, strand in enumerate(block, start=letter.p):
            points[strand].append((x, y(pos)))
            points[strand].append((x + COLUMN / 2, meeting_y))
            points[strand].append((x + COLUMN, y(letter.p + letter.q - pos)))
        if labels:
            text = ",".join(str(s) for s in sorted(block))
            crossing_texts.append((x + COLUMN / 2, height - 4, "{" + text + "}"))
        x += COLUMN
    for pos, strand in enumerate(tracks, start=1):
        points[strand].append((width, y(pos)))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">'
    ]
    for strand in range(1, w.n + 1):
        path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points[strand])
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="2" points="{path}"/>'
        )
    if labels:
        for strand in range(1, w.n + 1):
            lines.append(
                f'<text x="2" y="{y(strand) - 3}" font-family="monospace"'
                f' font-size="9">{strand}</text>'
            )
        for tx, ty, text in crossing_texts:
            lines.append(
                f'<text x="{_fmt(tx)}" y="{_fmt(ty)}" font-family="monospace"'
                f' font-size="9" text-anchor="middle">{text}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
