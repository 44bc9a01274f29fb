"""Set partitions of {1..m}, their arc diagrams, and piece structure.

A partition is stored as blocks sorted by minimum element, each block
ascending; the canonical text joins elements with "," and blocks with
"|", as in "1,5|2,4|3".  A partition is non-crossing when there are no
positions a < b < c < d with a, c in one block and b, d in another.

Two restricted families recur throughout the package:

* semi-special: non-crossing, and no block contains two consecutive
  integers;
* special: semi-special on an odd ground set 2n+1 with exactly n+1
  blocks.  Special partitions of [2n+1] are counted by the Catalan
  number C_n.

The arc diagram of a non-crossing partition joins each pair of
consecutive elements of a block by an arc over the number line.  In a
valid diagram left endpoints are pairwise distinct, right endpoints are
pairwise distinct, and no two arcs cross (sharing an endpoint is fine);
blocks are exactly the maximal chains of arcs linked by shared
endpoints.

Where each check runs:

* The Partition constructor sorts and checks any blocks it is given.
  Code that has just proved its blocks a canonical partition wraps them
  with Partition._trusted (see ncpseq._frozen) instead, unchecked.
* parse_partition reads the text in one step, sorts the blocks, and
  wraps them unchecked when their elements are exactly 1..m: then they
  cover 1..m once each and, sorted, are canonical.  Text it cannot read
  that way, or blocks that fail that test, are read again token by
  token and go through the checked constructor, which names the first
  fault.  Nothing is sized by the largest element before that test.
* The special verdict is computed once per object: special_violation
  stores its answer in a slot of the instance that is not a field and
  that no constructor sets, so equality, hashing and repr do not see
  it, and the frozen __setattr__ keeps it from being set from outside;
  until then the unset slot reads as _UNCHECKED.  Only when
  is_semi_special fails do the checks run one by one, to name the
  first that breaks.
* A Partition holds its fields and that verdict in __slots__, with no
  instance __dict__, and the walk behind enumerate_special gives equal
  blocks of different partitions as one tuple (see
  ncpseq._kernels_py), so a whole listing holds little more than its
  distinct blocks.
* Every reader of the arcs works on one successor array: succ[x] is the
  next element of x's block, or 0 after its last, so succ[x] - x is the
  paper's difference sequence wherever succ[x] is nonzero.  _nests is
  the one crossing scan, over that array; is_noncrossing,
  is_semi_special, to_arcs and the ArcDiagram constructor all run it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import itemgetter

from ncpseq._frozen import Frozen
from ncpseq.errors import ParseError, ValidationError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable

Block = tuple[int, ...]
Arc = tuple[int, int]

BLOCK_SEP = "|"
ELEMENT_SEP = ","

# What a Partition's verdict slot reads as until special_violation first
# stores it: no constructor sets it.
_UNCHECKED = object()


class Partition(Frozen):
    """A set partition of {1..ground_size} in canonical block order."""

    __slots__ = ("ground_size", "blocks", "_special_verdict")
    _fields = ("ground_size", "blocks")
    ground_size: int
    blocks: tuple[Block, ...]

    def __init__(self, ground_size: int, blocks: tuple[Block, ...]) -> None:
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        _check_partition(ground_size, blocks)
        super().__init__(ground_size, blocks)

    def __str__(self) -> str:
        return format_partition(self)

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def _check_partition(m: int, blocks: tuple[Block, ...]) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValidationError("ground size must be a positive integer")
    if not blocks:
        raise ValidationError("a partition needs at least one block")
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise ValidationError("empty block")
        for x in block:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValidationError(f"element {x!r} is not an integer")
            if not 1 <= x <= m:
                raise ValidationError(f"element {x} outside 1..{m}")
            if x in seen:
                raise ValidationError(f"duplicate element {x}")
            seen.add(x)
    if len(seen) != m:
        missing = next(x for x in range(1, m + 1) if x not in seen)
        raise ValidationError(f"element {missing} missing from the partition")


# What the one-step reader takes: ASCII digits, the two separators and
# blanks.  int() reads a token of these exactly when _read_blocks does,
# to the same value.
_PARTITION_CHARS = frozenset("0123456789" + BLOCK_SEP + ELEMENT_SEP + " \t")


def parse_partition(text: str) -> Partition:
    """Parse canonical block text like "1,5|2,4|3"; spaces are tolerated.

    Elements are runs of ASCII digits.  Raises ParseError when the text
    breaks the grammar and ValidationError when the parsed blocks are
    not a partition of {1..max element}.
    """
    if _PARTITION_CHARS.issuperset(text):
        chunks = text.split(BLOCK_SEP)
        try:
            blocks = sorted([tuple(sorted(map(int, c.split(ELEMENT_SEP)))) for c in chunks])
        except ValueError:  # an empty, spaced or overlong token
            pass
        else:
            # When the elements are 1..m, the sorted blocks are canonical.
            elements = sorted(chain.from_iterable(blocks))
            if elements == list(range(1, len(elements) + 1)):
                return Partition._trusted(len(elements), tuple(blocks))
    blocks = _read_blocks(text)
    return Partition(max(map(max, blocks)), tuple(blocks))


def _read_blocks(text: str) -> list[Block]:
    # Token by token, to name the first bad one.
    blocks = []
    for chunk in text.split(BLOCK_SEP):
        elems = []
        for token in chunk.split(ELEMENT_SEP):
            token = token.strip()
            if not (token.isascii() and token.isdigit()):
                raise ParseError(f"expected a positive integer, got {token!r}")
            try:
                value = int(token)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"integer of {len(token)} digits is too long") from None
            if value == 0:
                raise ParseError("elements are 1-based, got 0")
            elems.append(value)
        blocks.append(tuple(elems))
    return blocks


def format_partition(p: Partition) -> str:
    """Canonical text: blocks joined by "|", elements by ",", no spaces."""
    return _join_block_texts([map(str, b) for b in p.blocks])


def _join_block_texts(blocks: Iterable[Iterable[str]]) -> str:
    """Canonical text of blocks whose elements are already text.

    A listing passes this to the special walk, which stores each
    element's text, so each leaf is frozen straight to its text.
    """
    return BLOCK_SEP.join(map(ELEMENT_SEP.join, blocks))


def _successors(p: Partition) -> list[int]:
    """succ[x] is the next element of x's block, or 0 after its last; succ[0] = 0."""
    succ = [0] * (p.ground_size + 1)
    for block in p.blocks:
        x = block[0]
        for y in block[1:]:
            succ[x] = y
            x = y
    return succ


def _nests(succ: list[int]) -> bool:
    """True iff the arcs (x, succ[x]), for each nonzero succ[x] > x, do not cross.

    Each point is the left end of one arc at most, by the form of
    succ, and must be the right end of one arc at most.  Arcs do not
    cross exactly when each arc is on top of the stack of open arcs when
    its right end arrives: an arc left below stays on the stack to the
    end.
    """
    open_ends = [-1]  # under the open arcs: an end that never arrives
    for x, y in enumerate(succ):
        if open_ends[-1] == x:
            open_ends.pop()
        if y:
            open_ends.append(y)
    return len(open_ends) == 1


def is_noncrossing(p: Partition) -> bool:
    """True iff no a < b < c < d puts a, c in one block and b, d in another.

    That is, the arcs joining each element to its successor in its
    block do not cross; _nests decides it in one scan.
    """
    return _nests(_successors(p))


def _adjacent_pair(p: Partition) -> tuple[int, int] | None:
    for block in p.blocks:
        for x, y in zip(block, block[1:]):
            if y == x + 1:
                return x, y
    return None


def is_semi_special(p: Partition) -> bool:
    """Non-crossing with no block containing both i and i+1.

    Builds the successor array as is_noncrossing does, but stops at the
    first successor that is x + 1; then _nests decides non-crossing.
    """
    succ = [0] * (p.ground_size + 1)
    for block in p.blocks:
        x = block[0]
        for y in block[1:]:
            if y == x + 1:
                return False
            succ[x] = y
            x = y
    return _nests(succ)


def special_violation(p: Partition) -> str | None:
    """Name the first special-partition condition p breaks, or None.

    Checks in definition order: odd ground size 2n+1, exactly n+1
    blocks, non-crossing, no two consecutive integers in a block.  The
    checks run on the first call for p; later calls return that answer.
    """
    # Not a field: the answer goes in its own slot, past the frozen
    # __setattr__, and the slot stays unset until then.
    verdict = getattr(p, "_special_verdict", _UNCHECKED)
    if verdict is _UNCHECKED:
        verdict = _special_checks(p)
        object.__setattr__(p, "_special_verdict", verdict)
    return verdict


def _special_checks(p: Partition) -> str | None:
    if p.ground_size % 2 == 0:
        return f"even ground size {p.ground_size}"
    want = (p.ground_size + 1) // 2
    if len(p.blocks) != want:
        return f"{len(p.blocks)} blocks where {want} are required"
    if is_semi_special(p):
        return None
    # The scan does not say which condition failed; name the first.
    if not is_noncrossing(p):
        return "crossing blocks"
    x, y = _adjacent_pair(p)
    return f"consecutive integers {x},{y} in one block"


def is_special(p: Partition) -> bool:
    """Non-crossing partition of [2n+1] into n+1 blocks, no consecutive pair."""
    return special_violation(p) is None


def decompose_pieces(p: Partition) -> tuple[tuple[Block, ...], ...]:
    """Split p into pieces: minimal block runs covering contiguous intervals.

    Scanning blocks by minimum element, a piece opens at the first
    uncovered element and absorbs every block starting under the span
    of its opening block; non-crossing guarantees those blocks also end
    inside that span, so each piece covers an interval with no holes.

    Raises ValidationError for crossing partitions, where the notion is
    not defined.
    """
    if not is_noncrossing(p):
        raise ValidationError("pieces are only defined for non-crossing partitions")
    blocks = p.blocks
    pieces = []
    i = 0
    while i < len(blocks):
        end = blocks[i][-1]
        j = i + 1
        while j < len(blocks) and blocks[j][0] < end:
            j += 1
        pieces.append(blocks[i:j])
        i = j
    return tuple(pieces)


def subpartition(p: Partition, block_index: int, gap_index: int) -> Partition:
    """Partition trapped between consecutive elements of one block, relabeled.

    block_index picks a block of p (1-based, canonical order) and
    gap_index the gap between its gap_index-th and following element.
    The elements strictly between them form complete blocks of p; they
    are shifted down to start at 1.

    Raises ValidationError unless p is special and both indices address
    a real gap.
    """
    reason = special_violation(p)
    if reason is not None:
        raise ValidationError(f"subpartitions need a special partition ({reason})")
    if not 1 <= block_index <= len(p.blocks):
        raise ValidationError(f"block index {block_index} out of range")
    block = p.blocks[block_index - 1]
    if len(block) < 2:
        raise ValidationError("the chosen block has no gap")
    if not 1 <= gap_index < len(block):
        raise ValidationError(f"gap index {gap_index} out of range")
    lo, hi = block[gap_index - 1], block[gap_index]
    return Partition._trusted(hi - lo - 1, _gap_blocks(p.blocks, lo, hi))


def _gap_range(blocks: tuple[Block, ...], lo: int, hi: int) -> tuple[int, int]:
    """Indices first, stop of the run of blocks strictly between lo and hi.

    blocks must be those of a non-crossing partition, such as a special
    one, and lo, hi consecutive elements of one of them.  Non-crossing
    makes the elements between them whole blocks, the run whose least
    elements lie in (lo, hi).  Blocks are ordered by least element, so the run is found
    by bisection.
    """
    first = bisect_left(blocks, lo + 1, key=itemgetter(0))
    return first, bisect_left(blocks, hi, lo=first, key=itemgetter(0))


def _gap_blocks(blocks: tuple[Block, ...], lo: int, hi: int) -> tuple[Block, ...]:
    """The blocks strictly between lo and hi, shifted down to start at 1.

    Unchecked core of subpartition, on the run that _gap_range finds:
    the result is a canonical partition of {1..hi-lo-1} without any
    further check.
    """
    first, stop = _gap_range(blocks, lo, hi)
    return tuple([tuple([x - lo for x in b]) for b in blocks[first:stop]])


class ArcDiagram(Frozen):
    """Arcs (left, right) over points 1..point_count, sorted by left end."""

    __slots__ = _fields = ("point_count", "arcs")
    point_count: int
    arcs: tuple[Arc, ...]

    def __init__(self, point_count: int, arcs: tuple[Arc, ...]) -> None:
        arcs = tuple(sorted(tuple(a) for a in arcs))
        _check_arcs(point_count, arcs)
        super().__init__(point_count, arcs)


def _check_arcs(m: int, arcs: tuple[Arc, ...]) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValidationError("point count must be a positive integer")
    succ: dict[int, int] = {}
    ended: set[int] = set()
    for arc in arcs:
        if len(arc) != 2:
            raise ValidationError(f"arc {arc!r} is not a pair")
        l, r = arc
        if not (type(l) is int and type(r) is int and 1 <= l < r <= m):
            raise ValidationError(f"arc ({l},{r}) outside 1 <= left < right <= {m}")
        if l in succ:
            raise ValidationError(f"two arcs share left endpoint {l}")
        if r in ended:
            raise ValidationError(f"two arcs share right endpoint {r}")
        succ[l] = r
        ended.add(r)
    # Crossing depends only on the order of the end points, so _nests
    # runs on their ranks, and nothing is sized by m.
    rank = {x: k for k, x in enumerate(sorted(succ.keys() | ended), 1)}
    ranked = [0] * (len(rank) + 1)
    for l, r in succ.items():
        ranked[rank[l]] = rank[r]
    if not _nests(ranked):
        raise ValidationError("crossing arcs")


def to_arcs(p: Partition) -> ArcDiagram:
    """Join consecutive elements of every block; arc count = m - blocks.

    Raises ValidationError for crossing partitions, whose arcs would
    cross.
    """
    succ = _successors(p)
    if not _nests(succ):
        raise ValidationError("cannot draw arcs for a crossing partition")
    # Each element has at most one successor and one predecessor in its
    # block, and the arcs nest; read in element order, they come sorted.
    arcs = tuple([(x, y) for x, y in enumerate(succ) if y])
    return ArcDiagram._trusted(p.ground_size, arcs)


def from_arcs(d: ArcDiagram) -> Partition:
    """Blocks are the maximal chains of points linked by arcs."""
    return Partition._trusted(d.point_count, _arc_chains(d.point_count, d.arcs))


def _arc_chains(m: int, arcs: Iterable[Arc]) -> tuple[Block, ...]:
    """Maximal chains of the (left, right) arcs of a valid diagram on 1..m.

    Chains come out ascending and ordered by their first point, which is
    canonical block order.
    """
    succ = [0] * (m + 1)
    is_start = [True] * (m + 1)
    for l, r in arcs:
        succ[l] = r
        is_start[r] = False
    blocks = []
    for start in range(1, m + 1):
        if not is_start[start]:
            continue
        chain = [start]
        nxt = succ[start]
        while nxt:
            chain.append(nxt)
            nxt = succ[nxt]
        blocks.append(tuple(chain))
    return tuple(blocks)


def arc_nesting_depths(d: ArcDiagram) -> dict[Arc, int]:
    """Number of arcs strictly containing each arc.

    (c,d) lies inside (a,b) exactly when a < c and d < b, so arcs that
    share an endpoint never nest.  Arcs do not cross, so in left-end
    order the arcs containing an arc are those still open where it
    starts; a stack holds their right ends, innermost on top, and an arc
    closes once a left end at or after its right end is reached.  O(A)
    for A arcs.
    """
    depths: dict[Arc, int] = {}
    open_rights: list[int] = []
    for arc in d.arcs:
        left, right = arc
        while open_rights and open_rights[-1] <= left:
            open_rights.pop()
        depths[arc] = len(open_rights)
        open_rights.append(right)
    return depths
