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

stretch_step and inverse_trace run the paper's step, _stretched, which
builds the v arcs that a step touches from p and v and shares every
other arc with the diagram before the step.  The steps come from one
stream, _trace_steps, that holds only the latest diagram: inverse_trace
collects it, and invert --trace writes each step as it comes, as a
line of _step_text or a record of _trace_json.  inverse builds the same
partition in O(n) from the nesting of s, with no arc stretched, by the
region fact:

  Call a run (j - k, j] of indices closed when every i in it has
  (i - s_i, i] inside it.  Read s from the right with a stack of
  regions (a, k), each a closed run of k entries, the next k to be
  read, together with the 2k + 1 points a..a + 2k and the block that
  point a belongs to; start from (1, n) with the block [1].  Pop
  (a, k) with k > 0 and read its next entry t = s_j: point a's next
  element is a + 2t, the points a + 1..a + 2t - 1 are the region
  (a + 1, t - 1) with a new block [a + 1], and a + 2t..a + 2k is the
  region (a + 2t, k - t), where a + 2t continues a's block.  Push the
  second, then the first, so the inner one is read next.

Proof.  (0, n] is closed by (i).  In a closed run (j - k, j],
(j - s_j, j] lies inside the run, so t = s_j <= k and the arc
(a, a + 2t) stays inside the region.  The inner run (j - t, j - 1] is
closed: for i in it, (i - s_i, i] meets (j - t, j] at i, so by (ii)
one holds the other, and as i < j it lies inside (j - t, j].  The
outer run (j - k, j - t] is closed, since each of its intervals lies
in (j - k, j] and ends by j - t.  The inner run is read before the
outer one, so the entries are read from s_n down to s_1, once each;
the regions are popped in increasing order of a, so the arcs come in
left-end order, the one read at s_j of length 2 s_j, and the
partition's forward image is s.  Each region places each point it
spans once, regions only nest or follow one another, so no arcs
cross, and every arc spans at least 2 points; n arcs on 2n + 1 points
leave n + 1 blocks, so the partition is special.  forward is injective
on special partitions (the paper's theorem), so this is the partition
the stretches build.  Each block opens after every block that starts
further left, so the blocks come out in canonical order.

Where the checks run:

* forward needs a special partition, and checks that through the
  partition's cached special verdict.  Its image lies in S_n by the
  paper's theorem, so it is wrapped as a CatSeq unchecked; the tests
  check the theorem over every special partition up to n = 9 and on
  samples up to n = 300.
* inverse needs a member of S_n, which CatSeq has checked, and builds
  its regions with no further check: membership is what keeps each
  arc inside its region (the region fact above).
* inverse_trace takes a member of S_n too, and runs the paper's steps
  with no further check: membership implies each step's shape.  By
  (i), s_{n-i+1} <= n-i+1, so v - 1 arcs follow arc i; by (ii), the
  arcs a step reaches lie inside the chain of span-2 arcs that every
  earlier step left from arc i on (a step fails exactly when v exceeds
  the governing bound; see stretch_step).  Its diagrams are wrapped as
  built.
* stretch_step takes any diagram and width, so it checks the step's
  preconditions.  A valid diagram that meets them stays valid, so its
  result is not validated again.
"""

from __future__ import annotations

from ncpseq._frozen import Frozen
from ncpseq.errors import StretchError, ValidationError, _check_size, _is_int
from ncpseq.partitions import (
    Arc,
    ArcDiagram,
    Partition,
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
    _check_size(n, 0, "n must be >= 0")
    # Chained span-2 arcs on distinct points never cross, and come sorted.
    arcs = tuple((2 * i - 1, 2 * i + 1) for i in range(1, n + 1))
    return ArcDiagram._trusted(2 * n + 1, arcs)


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
    if not _is_int(v) or v < 1:
        raise StretchError(f"stretch width {v!r} is not a positive integer")
    if not _is_int(i):
        raise StretchError(f"arc index {i!r} is not an integer")
    arcs = d.arcs
    if not 1 <= i <= len(arcs):
        raise StretchError(f"no arc {i} in a diagram with {len(arcs)} arcs")
    if v == 1:
        return d
    at = i - 1
    p, r = arcs[at]
    if r != p + 2:
        raise StretchError(f"arc {i} spans {(p, r)}, expected {(p, p + 2)}")
    if at + v > len(arcs):
        follow = len(arcs) - i
        verb = "arc follows" if follow == 1 else "arcs follow"
        raise StretchError(f"only {follow} {verb} arc {i}, need {v - 1}")
    for k in range(1, v):
        q = p + 2 * k
        if arcs[at + k] != (q, q + 2):
            raise StretchError(f"arc {i + k} is {arcs[at + k]}, expected {(q, q + 2)}")
    # The points the stretch touches belong to no other arc, so the
    # result is again a valid diagram, sorted by left end.
    return ArcDiagram._trusted(d.point_count, _stretched(arcs, at, v))


def _stretched(arcs: tuple[Arc, ...], at: int, v: int) -> tuple[Arc, ...]:
    """arcs after the unchecked stretch of the arc at index at by v > 1 (see stretch_step)."""
    # (p, p+2) becomes (p, p+2v) and each (q, q+2) chained after it (q-1, q+1).
    p = arcs[at][0]
    slid = tuple(zip(range(p + 1, p + 2 * v - 2, 2), range(p + 3, p + 2 * v, 2)))
    return arcs[:at] + ((p, p + 2 * v),) + slid + arcs[at + v :]


class TraceStep(Frozen):
    """One stretch: which arc grew, what slid underneath, the result."""

    __slots__ = _fields = ("index", "arc_before", "arc_after", "shifted", "diagram")
    index: int
    arc_before: Arc
    arc_after: Arc
    shifted: tuple[tuple[Arc, Arc], ...]
    diagram: ArcDiagram


class ConstructionTrace(Frozen):
    """The inverse construction, one diagram per step plus the start."""

    __slots__ = _fields = ("start", "steps")
    start: ArcDiagram
    steps: tuple[TraceStep, ...]


def _step_text(st: TraceStep) -> str:
    """One line of invert --trace: index, stretched arc, slid arcs, resulting partition."""
    moved = ", ".join(f"({a[0]},{a[1]})->({b[0]},{b[1]})" for a, b in st.shifted)
    return (
        f"step {st.index}: ({st.arc_before[0]},{st.arc_before[1]})"
        f"->({st.arc_after[0]},{st.arc_after[1]}); shifted {moved or '-'}; "
        f"{format_partition(from_arcs(st.diagram))}"
    )


def _trace_json(steps):
    """The steps' records as the JSON array json.dumps writes, in pieces of one record each."""
    import json

    yield "["
    sep = ""
    for st in steps:
        yield sep + json.dumps(
            {"step": st.index, "before": list(st.arc_before), "after": list(st.arc_after),
             "shifted": [[list(a), list(b)] for a, b in st.shifted],
             "partition": format_partition(from_arcs(st.diagram))}
        )
        sep = ", "
    yield "]"


def _trace_steps(start: ArcDiagram, s: CatSeq):
    """Each step of the construction for s from start, initial_diagram(n), as it is made."""
    diagram = start
    for i, v in enumerate(reversed(s.entries), 1):
        before = diagram.arcs
        if v > 1:
            diagram = ArcDiagram._trusted(start.point_count, _stretched(before, i - 1, v))
        after = diagram.arcs
        shifted = tuple(zip(before[i : i + v - 1], after[i : i + v - 1]))
        yield TraceStep(i, before[i - 1], after[i - 1], shifted, diagram)


def inverse_trace(s: CatSeq) -> ConstructionTrace:
    """Run the arc-stretching construction for s, recording every step."""
    start = initial_diagram(len(s.entries))
    return ConstructionTrace(start, tuple(_trace_steps(start, s)))


def inverse(s: CatSeq) -> Partition:
    """The special partition whose forward image is s, in O(n).

    Built region by region from the nesting of s, by the region fact
    in the module docstring; regions with no entry left are not pushed.
    """
    n = len(s.entries)
    entries = reversed(s.entries)
    first = [1]
    blocks = [first]
    regions = [(1, n, first)] if n else []
    while regions:
        a, k, block = regions.pop()
        t = next(entries)
        end = a + 2 * t
        block.append(end)
        if k > t:
            regions.append((end, k - t, block))
        inner = [a + 1]
        blocks.append(inner)
        if t > 1:
            regions.append((a + 1, t - 1, inner))
    return Partition._trusted(2 * n + 1, tuple(map(tuple, blocks)))
