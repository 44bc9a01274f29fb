"""Arc-diagram drawing: monospace text and a small SVG subset.

The SVG output sticks to svg, line, circle, path, and text elements so
the files stay trivially diffable and render anywhere.  Text output
lays each arc on a row of its own nesting depth, splitting a depth
into extra rows only when arcs would collide; among arcs competing for
a row, the longer one wins the higher row.

Costs.  Both writers take time linear in their output, up to the log
factor of sorting the arcs for the text layout.  The SVG writer formats
each point's x, each label and each arc radius once per document, and
draws a document one panel (one diagram) at a time: a panel's elements
are joined into one string as soon as it is drawn, and the panels are
joined once at the end, so a document peaks at about two copies of its
text.  render_trace still returns the whole document as one string,
because the benchmark's tracer measures the string it returns; a
writer that streamed stage by stage would hold one panel at a time.
The text of a deep diagram is quadratic by nature (lines x label
width), and a trace is panels x points, so the CLI warns above a
ceiling; ascii_shape gives the lines and width without drawing.
"""

from __future__ import annotations

from typing import Callable

from ncpseq.bijection import ConstructionTrace
from ncpseq.partitions import Arc, ArcDiagram, arc_nesting_depths


# SVG geometry, in user units: the distance between neighbouring points
# and the blank border around the drawing.
SPACING = 40.0
MARGIN = 30.0

_FONT = 'font-family="monospace" font-size="12"'


def _label_columns(m: int) -> list[int]:
    """Column of each point's label on the baseline row, 1-indexed at [p]."""
    cols = [0, 0]
    for p in range(2, m + 1):
        cols.append(cols[p - 1] + len(str(p - 1)) + 1)
    return cols


def _arc_rows(d: ArcDiagram) -> list[list[Arc]]:
    """Arcs grouped into display rows, outermost row first, each by left end.

    Depth by depth, longer arcs first, each arc goes to the first row of
    its depth that holds no arc it touches.  Arcs of one depth neither
    nest nor cross, so an arc touches only the arc of its depth that
    ends where it starts and the one that starts where it ends (an arc
    sharing an end point with it is always of its depth).  So each arc
    checks the rows of those two, and a depth has at most three rows.
    """
    depths = arc_nesting_depths(d)
    ending_at = {arc[1]: arc for arc in d.arcs}
    starting_at = {arc[0]: arc for arc in d.arcs}
    row_of: dict[Arc, int] = {}
    rows: list[list[Arc]] = []
    first = 0
    depth = -1
    for arc in sorted(d.arcs, key=lambda a: (depths[a], a[0] - a[1], a[0])):
        if depths[arc] != depth:
            depth, first = depths[arc], len(rows)
        taken = (row_of.get(ending_at.get(arc[0])), row_of.get(starting_at.get(arc[1])))
        i = first
        while i in taken:
            i += 1
        if i == len(rows):
            rows.append([])
        rows[i].append(arc)
        row_of[arc] = i
    for row in rows:
        row.sort()
    return rows


def ascii_shape(d: ArcDiagram) -> tuple[int, int]:
    """Lines and width of render_ascii(d), found without drawing it."""
    m = d.point_count
    return len(_arc_rows(d)) + 1, _label_columns(m)[m] + len(str(m))


def render_ascii(d: ArcDiagram) -> str:
    """Text picture of the diagram, baseline labels on the last line."""
    m = d.point_count
    cols = _label_columns(m)
    lines = []
    for row in _arc_rows(d):
        pieces: list[str] = []
        end = 0
        for left, right in row:
            lo, hi = cols[left], cols[right]
            pieces += (" " * (lo - end), "/", "-" * (hi - lo - 1), "\\")
            end = hi + 1
        lines.append("".join(pieces))
    lines.append(" ".join(map(str, range(1, m + 1))))
    return "\n".join(lines)


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


_Panel = Callable[[ArcDiagram, float], tuple[list[str], float]]


def _panel_drawer(m: int) -> _Panel:
    """Draws diagrams on points 1..m; the text that no y enters is made here once.

    The returned function takes a diagram and the y of its arc apexes,
    and gives the diagram's elements and its bottom y.
    """
    xs = [""] + [_fmt(MARGIN + (p - 1) * SPACING) for p in range(1, m + 1)]
    radii = [_fmt(span * SPACING / 2) for span in range(m)]
    # The circles, and the labels, of all m points at one y are these
    # pieces joined with that y.
    circles = _pieces_around_y(
        [f'<circle cx="{x}" cy="' for x in xs[1:]],
        ['" r="3" fill="black"/>'] * m,
    )
    labels = _pieces_around_y(
        [f'<text x="{x}" y="' for x in xs[1:]],
        [f'" text-anchor="middle" {_FONT}>{p}</text>' for p in range(1, m + 1)],
    )
    x_first, x_last = xs[1], xs[m]

    def draw(d: ArcDiagram, top: float) -> tuple[list[str], float]:
        base_y = top + max((r - l for l, r in d.arcs), default=0) * SPACING / 2
        y = _fmt(base_y)
        elements = [
            f'<line x1="{x_first}" y1="{y}" x2="{x_last}" y2="{y}" '
            f'stroke="black" stroke-width="1"/>'
        ]
        elements += [
            f'<path d="M {xs[l]} {y} A {radii[r - l]} {radii[r - l]} 0 0 1 {xs[r]} {y}" '
            f'fill="none" stroke="black" stroke-width="1.5"/>'
            for l, r in d.arcs
        ]
        bottom = base_y + 16
        elements += (y.join(circles), _fmt(bottom).join(labels))
        return elements, bottom

    return draw


def _pieces_around_y(heads: list[str], tails: list[str]) -> list[str]:
    """Pieces that, joined with a y, give head + y + tail per element, one a line."""
    return [heads[0]] + [t + "\n" + h for t, h in zip(tails, heads[1:])] + [tails[-1]]


def _document(width: float, height: float, body: list[str]) -> str:
    """The svg frame around body's lines, joined once."""
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>\n"])


def _width(points: int) -> float:
    return 2 * MARGIN + (points - 1) * SPACING


def render_svg(d: ArcDiagram) -> str:
    """Standalone SVG for one diagram."""
    elements, bottom = _panel_drawer(d.point_count)(d, MARGIN)
    return _document(_width(d.point_count), bottom + MARGIN, elements)


def render_trace(t: ConstructionTrace) -> str:
    """One SVG stacking each stage of a construction trace.

    The stages are the start and the diagram of each step that shifts
    an arc: such a step (v > 1) lengthens its arc, and v = 1 changes
    nothing.
    """
    stages = [("start", t.start)]
    stages += [(f"step {st.index}", st.diagram) for st in t.steps if st.shifted]
    # Every stage has the start's points.
    m = t.start.point_count
    draw = _panel_drawer(m)
    panels: list[str] = []
    y = MARGIN
    for caption, d in stages:
        elements, bottom = draw(d, y + 20)
        title = f'<text x="{_fmt(MARGIN)}" y="{_fmt(y + 12)}" {_FONT}>{caption}</text>'
        panels.append("\n".join([title, *elements]))
        y = bottom + MARGIN
    return _document(_width(m), y, panels)
