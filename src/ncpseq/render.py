"""Arc-diagram drawing: monospace text and a small SVG subset.

The SVG output sticks to svg, line, circle, path, and text elements so
the files stay trivially diffable and render anywhere.  Text output
lays each arc on a row of its own nesting depth, splitting a depth
into extra rows only when arcs would collide; among arcs competing for
a row, the longer one wins the higher row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ncpseq.bijection import ConstructionTrace
from ncpseq.partitions import Arc, ArcDiagram, arc_nesting_depths


# SVG geometry, in user units: the distance between neighbouring points
# and the blank border around the drawing.
SPACING = 40.0
MARGIN = 30.0


def _label_columns(m: int) -> list[int]:
    """Column of each point's label on the baseline row, 1-indexed at [p]."""
    cols = [0, 0]
    for p in range(2, m + 1):
        cols.append(cols[p - 1] + len(str(p - 1)) + 1)
    return cols


def _arc_rows(d: ArcDiagram) -> list[list[Arc]]:
    """Arcs grouped into display rows, outermost row first."""
    depths = arc_nesting_depths(d)
    by_depth: dict[int, list[Arc]] = {}
    for arc, depth in depths.items():
        by_depth.setdefault(depth, []).append(arc)
    rows: list[list[Arc]] = []
    for depth in sorted(by_depth):
        arcs = sorted(by_depth[depth], key=lambda a: (a[0] - a[1], a[0]))
        sub: list[list[Arc]] = []
        for arc in arcs:
            for row in sub:
                if all(arc[1] < other[0] or other[1] < arc[0] for other in row):
                    row.append(arc)
                    break
            else:
                sub.append([arc])
        rows.extend(sub)
    return rows


def render_ascii(d: ArcDiagram) -> str:
    """Text picture of the diagram, baseline labels on the last line."""
    m = d.point_count
    cols = _label_columns(m)
    labels = " ".join(str(p) for p in range(1, m + 1))
    lines = []
    for row in _arc_rows(d):
        chars = [" "] * len(labels)
        for left, right in row:
            lo, hi = cols[left], cols[right]
            chars[lo] = "/"
            chars[hi] = "\\"
            for c in range(lo + 1, hi):
                chars[c] = "-"
        lines.append("".join(chars).rstrip())
    lines.append(labels)
    return "\n".join(lines)


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


@dataclass
class _Svg:
    """Accumulates elements and tracks the drawing's extent."""

    elements: list[str] = field(default_factory=list)

    def x(self, p: int) -> float:
        return MARGIN + (p - 1) * SPACING

    def text(self, x: float, y: float, s: str, anchor: str | None = None) -> None:
        where = f' text-anchor="{anchor}"' if anchor else ""
        self.elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}"{where} '
            f'font-family="monospace" font-size="12">{s}</text>'
        )

    def diagram(self, d: ArcDiagram, top: float) -> float:
        """Draw one diagram with its arc apexes at ``top``; returns its bottom y."""
        max_r = max((r - l for l, r in d.arcs), default=0) * SPACING / 2
        base_y = top + max_r
        x_last = self.x(d.point_count)
        self.elements.append(
            f'<line x1="{_fmt(self.x(1))}" y1="{_fmt(base_y)}" '
            f'x2="{_fmt(x_last)}" y2="{_fmt(base_y)}" stroke="black" stroke-width="1"/>'
        )
        for left, right in d.arcs:
            r = (right - left) * SPACING / 2
            self.elements.append(
                f'<path d="M {_fmt(self.x(left))} {_fmt(base_y)} '
                f'A {_fmt(r)} {_fmt(r)} 0 0 1 {_fmt(self.x(right))} {_fmt(base_y)}" '
                f'fill="none" stroke="black" stroke-width="1.5"/>'
            )
        for p in range(1, d.point_count + 1):
            self.elements.append(
                f'<circle cx="{_fmt(self.x(p))}" cy="{_fmt(base_y)}" r="3" fill="black"/>'
            )
        bottom = base_y + 16
        for p in range(1, d.point_count + 1):
            self.text(self.x(p), bottom, str(p), anchor="middle")
        return bottom

    def document(self, width: float, height: float) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
        )
        return "\n".join([head, *self.elements, "</svg>"]) + "\n"


def render_svg(d: ArcDiagram) -> str:
    """Standalone SVG for one diagram."""
    svg = _Svg()
    bottom = svg.diagram(d, MARGIN)
    width = 2 * MARGIN + (d.point_count - 1) * SPACING
    return svg.document(width, bottom + MARGIN)


def render_trace(t: ConstructionTrace) -> str:
    """One SVG stacking each distinct stage of a construction trace."""
    panels: list[tuple[str, ArcDiagram]] = [("start", t.start)]
    for step in t.steps:
        if step.diagram != panels[-1][1]:
            panels.append((f"step {step.index}", step.diagram))
    svg = _Svg()
    y = MARGIN
    for caption, d in panels:
        svg.text(MARGIN, y + 12, caption)
        y = svg.diagram(d, y + 20) + MARGIN
    points = max(d.point_count for _, d in panels)
    width = 2 * MARGIN + (points - 1) * SPACING
    return svg.document(width, y)
