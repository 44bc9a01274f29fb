"""The bijection between special partitions and Catalan sequences.

Forward: under each element i of a special partition of [2n+1], write
the distance d_i to the next element of its block (0 when i closes the
block).  Exactly n of the d_i are nonzero and all of those are even;
listing them in position order, reversing, and halving gives a member
of S_n.

Inverse: start from the chain diagram with arcs (1,3),(3,5),..,
(2n-1,2n+1) and consume s from the right.  Step i stretches the i-th
arc in left-endpoint order from (p, p+2) to (p, p+2v), where
v = s_{n-i+1}, sliding the v-1 span-2 arcs chained after it one point
to the left.  After n steps the arcs spell out the partition whose
forward image is s.

inverse runs the n stretches in place on one pair of left/right
endpoint lists and reads the blocks off by chasing each arc to the
next, so it costs O(n + s_1 + .. + s_n) and builds no intermediate
diagram.  stretch_step and inverse_trace run the same step, _slide, on
only the v arcs that a step touches, and share every other arc with the
diagram before the step.

Where the checks run:

* forward needs a special partition, and checks that through the
  partition's cached special verdict.  Its image lies in S_n by the
  paper's theorem, so it is wrapped as a CatSeq unchecked; the tests
  check the theorem over every special partition up to n = 9 and on
  samples up to n = 300.
* inverse needs a member of S_n, which CatSeq has checked, and runs its
  steps with no further check: membership implies each step's shape.
  By (i), s_{n-i+1} <= n-i+1, so v - 1 arcs follow arc i; by (ii), the
  arcs a step reaches lie inside the chain of span-2 arcs that every
  earlier step left from arc i on (a step fails exactly when v exceeds
  the governing bound; see stretch_step).
* inverse_trace takes a member of S_n too, and runs the same unchecked
  steps as inverse; its diagrams are wrapped as built.
* stretch_step takes any diagram and width, so it checks the step's
  preconditions.  A valid diagram that meets them stays valid, so its
  result is not validated again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ncpseq.errors import StretchError, ValidationError
from ncpseq.partitions import (
    Arc,
    ArcDiagram,
    Partition,
    _arc_chains,
    _successors,
    format_partition,
    from_arcs,
    special_violation,
)
from ncpseq.sequences import CatSeq


def difference_sequence(p: Partition) -> tuple[int, ...]:
    """Distance from each element to the next member of its block, 0 at its last."""
    reason = special_violation(p)
    if reason is not None:
        raise ValidationError(f"difference sequence needs a special partition ({reason})")
    return tuple([y - x if y else 0 for x, y in enumerate(_successors(p))][1:])


def forward(p: Partition) -> CatSeq:
    """Map a special partition of [2n+1] to its sequence in S_n."""
    return CatSeq._trusted(tuple([d // 2 for d in reversed(difference_sequence(p)) if d]))


def initial_diagram(n: int) -> ArcDiagram:
    """Chain diagram on 2n+1 points: arcs (1,3),(3,5),..,(2n-1,2n+1)."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    # Chained span-2 arcs on distinct points never cross, and come sorted.
    arcs = tuple((2 * i - 1, 2 * i + 1) for i in range(1, n + 1))
    return ArcDiagram._trusted(2 * n + 1, arcs)


def _slide(left: list[int], right: list[int], at: int, v: int) -> None:
    # The unchecked stretch of the arc at index at, for v > 1.
    p = left[at]
    right[at] = p + 2 * v
    left[at + 1 : at + v] = range(p + 1, p + 2 * v - 2, 2)
    right[at + 1 : at + v] = range(p + 3, p + 2 * v, 2)


def stretch_step(d: ArcDiagram, i: int, v: int) -> ArcDiagram:
    """Stretch the i-th arc (left-endpoint order) across v - 1 chained arcs.

    The i-th arc must look like (p, p+2) and be followed, in that same
    order, by (p+2, p+4), .., (p+2(v-1), p+2v).  It becomes (p, p+2v)
    and each covered arc slides one point left, which preserves the
    block count.  v = 1 changes nothing.

    Raises StretchError when the required shape is absent; during the
    inverse construction that happens exactly when v exceeds the
    governing bound for the step.
    """
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise StretchError(f"stretch width {v!r} is not a positive integer")
    arcs = d.arcs
    if not 1 <= i <= len(arcs):
        raise StretchError(f"no arc {i} in a diagram with {len(arcs)} arcs")
    if v == 1:
        return d
    at = i - 1
    p, r = arcs[at]
    if r != p + 2:
        raise StretchError(f"arc {i} spans {(p, r)}, expected ({p},{p + 2})")
    if at + v > len(arcs):
        raise StretchError(f"only {len(arcs) - i} arcs follow arc {i}, need {v - 1}")
    for k in range(1, v):
        q = p + 2 * k
        if arcs[at + k] != (q, q + 2):
            raise StretchError(f"arc {i + k} is {arcs[at + k]}, expected {(q, q + 2)}")
    # The points the stretch touches belong to no other arc, so the
    # result is again a valid diagram, sorted by left end.
    return ArcDiagram._trusted(d.point_count, _stretched(arcs, at, v))


def _stretched(arcs: tuple[Arc, ...], at: int, v: int) -> tuple[Arc, ...]:
    """arcs after _slide of the arc at index at, v > 1, sharing the arcs it leaves alone."""
    left = [l for l, _ in arcs[at : at + v]]
    right = [r for _, r in arcs[at : at + v]]
    _slide(left, right, 0, v)
    return arcs[:at] + tuple(zip(left, right)) + arcs[at + v :]


@dataclass(frozen=True)
class TraceStep:
    """One stretch: which arc grew, what slid underneath, the result."""

    index: int
    arc_before: Arc
    arc_after: Arc
    shifted: tuple[tuple[Arc, Arc], ...]
    diagram: ArcDiagram


@dataclass(frozen=True)
class ConstructionTrace:
    """The inverse construction, one diagram per step plus the start."""

    start: ArcDiagram
    steps: tuple[TraceStep, ...]

    def diagrams(self) -> tuple[ArcDiagram, ...]:
        """D_1 .. D_{n+1}: the start diagram, then one result per step."""
        return (self.start,) + tuple(step.diagram for step in self.steps)

    def distinct_diagrams(self) -> tuple[ArcDiagram, ...]:
        """The start, then the diagram of each step that shifts an arc (v > 1).

        Such a step lengthens its arc, and v = 1 changes nothing, so these are the stages.
        """
        return (self.start,) + tuple(st.diagram for st in self.steps if st.shifted)

    def final_partition(self) -> Partition:
        return from_arcs(self.steps[-1].diagram if self.steps else self.start)

    def to_text(self) -> str:
        """One line per step: index, stretched arc, slid arcs, resulting partition."""
        lines = []
        for st in self.steps:
            moved = ", ".join(f"({a[0]},{a[1]})->({b[0]},{b[1]})" for a, b in st.shifted)
            lines.append(
                f"step {st.index}: ({st.arc_before[0]},{st.arc_before[1]})"
                f"->({st.arc_after[0]},{st.arc_after[1]}); shifted {moved or '-'}; "
                f"{format_partition(from_arcs(st.diagram))}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The same step records as a JSON array."""
        records = [
            {
                "step": st.index,
                "before": list(st.arc_before),
                "after": list(st.arc_after),
                "shifted": [[list(a), list(b)] for a, b in st.shifted],
                "partition": format_partition(from_arcs(st.diagram)),
            }
            for st in self.steps
        ]
        return json.dumps(records)


def inverse_trace(s: CatSeq) -> ConstructionTrace:
    """Run the arc-stretching construction for s, recording every step."""
    n = len(s.entries)
    start = initial_diagram(n)
    diagram = start
    steps = []
    for i in range(1, n + 1):
        v = s.entries[n - i]
        before = diagram.arcs
        if v > 1:
            diagram = ArcDiagram._trusted(start.point_count, _stretched(before, i - 1, v))
        after = diagram.arcs
        shifted = tuple(zip(before[i : i + v - 1], after[i : i + v - 1]))
        steps.append(TraceStep(i, before[i - 1], after[i - 1], shifted, diagram))
    return ConstructionTrace(start, tuple(steps))


def inverse(s: CatSeq) -> Partition:
    """The special partition whose forward image is s."""
    n = len(s.entries)
    left = list(range(1, 2 * n, 2))
    right = list(range(3, 2 * n + 2, 2))
    for at, v in enumerate(reversed(s.entries)):
        if v > 1:
            _slide(left, right, at, v)
    return Partition._trusted(2 * n + 1, _arc_chains(2 * n + 1, zip(left, right)))
