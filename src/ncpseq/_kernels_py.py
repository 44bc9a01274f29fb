"""Enumeration kernels: the walks behind every listing, and the counts.

The walks and counts are self-contained on purpose.  They never touch
the bijection, so their output can referee it.  The walks are
generators that keep their own state per element or entry in flat
arrays, so how deep they go is not bounded by the recursion limit.

Partition walk: scan elements 1..m with a stack of open blocks.
Element e either opens a new block or joins an open block strictly
below the top of the stack, which closes every block above the join
for good.  Joining the top is never legal, because the top block
always ends at e-1 and no block may contain consecutive integers;
joining above a still-open block would cross it.  Every semi-special
partition is reached by exactly one choice run.  A walk with a block
target prunes every branch that can no longer reach it; the pruning
only removes branches that emit nothing, so the emission order is that
of the unpruned walk.

The walk keeps its state in flat per-element arrays, as set-partition
generators do (Knuth, TAOCP Vol. 4A, 7.2.1.5), so no step copies the
stack.  One array holds the block open at each depth; a join only
lowers the depth and leaves the blocks above it in place.  Per element
e it keeps the depth before e, the choice taken at e, and the block
that opening a block at e covered at that depth, which backtracking
restores in O(1).

The walk builds each partition as it goes: it keeps one list per
block, appends e's label to the block e opens or joins and pops it
again on backtrack, so a leaf only freezes the lists.  By default the
label is e and a leaf freezes to a tuple of block tuples, each looked
up in a dict that lives for one walk call, so equal blocks of different
leaves are one tuple (hash-consing: Filliatre & Conchon, "Type-safe
modular hash-consing", ML Workshop 2006); the 4,862 special partitions
of [19] hold 48,620 blocks but only 1,022 distinct ones.  A listing of
texts passes each element's text and a freeze that joins the lists
straight into canonical text, so nothing is formatted twice and this
module knows no text format.  The blocks are a canonical partition
of [m] by construction: every element 1..m is
appended exactly once, to exactly one block; elements arrive in
increasing order, so each block is ascending and is opened by its
least element; and blocks are listed in the order they were opened,
which is the order of their least elements.

Sequence walk: s is in S_n iff the intervals (i - s_i, i] nest
(sequences.sequence_violation), which a left-to-right scan checks with
a stack of end points: entry i closes onto one of them, pops those
above it and pushes i.  The walk makes each such choice in turn, so
every sequence it lists passes that scan, and distinct choice runs
give distinct sequences.  Closing onto end point p gives s_i = i - p,
so trying the end points from the top down tries s_i in increasing
order, and S_n comes out in lexicographic order.

It keeps one end-point stack in a flat array, and per entry i the
stack height before i, the depth of the end point i closes onto, and
the end point that pushing i overwrote, which backtracking restores in
O(1); no step copies the stack.  A per-depth fold builds each member
as it goes: prefix[i + 1] = prefix[i] + labels[s_i], so each node of
the walk costs one concatenation.  By default the labels are 1-tuples
and a member is its tuple of entries; a listing of texts passes each
value's text, so this module knows no text format.

Counts are dynamic programs that never walk, and never recurse:

* Partitions.  What the walk can still do at element e depends only
  on the stack depth k and the number c of blocks created so far, so
  the number of leaves is the number of choice runs from (k, c) =
  (0, 0) at e = 1 to a state the walk emits at e = m + 1.  From
  (k, c), opening leads to (k + 1, c + 1) and joining leads to
  (k', c) for each 1 <= k' <= k - 1, so the runs into (k', c) by a
  join are a suffix sum over the depths above k'.  The table drops
  every state the walk's bound prunes, which only removes runs that
  emit nothing.  Without a target the block count does not matter,
  and every run keeps c = 0.
* Sequences.  Over the sequence walk's end-point stack: from k end
  points above 0, entry i can close onto any of the k + 1 boundaries,
  leaving 1..k + 1 end points above 0, and distinct choices give
  distinct sequences; the count of S_n is the number of such runs of
  length n from k = 0.

The smallest block count of a semi-special partition of [m] is the
least block target whose partition count is nonzero.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterator, Sequence, TypeVar

PartitionBlocks = tuple[tuple[int, ...], ...]
T = TypeVar("T")  # what the partition walk stores for each element
L = TypeVar("L")  # what it freezes each leaf into
S = TypeVar("S", tuple, str)  # what the sequence walk folds each member into


def _freeze_blocks() -> Callable[[list[list[int]]], PartitionBlocks]:
    """A fresh default freeze: each leaf's lists become a tuple of block tuples.

    Equal blocks come back as the first tuple built for them, from a
    dict that lives as long as the freeze, which is one walk call.
    """
    shared = {}
    keep = shared.setdefault
    return lambda members: tuple([keep(b, b) for b in map(tuple, members)])


def ssp_partitions(m: int) -> list[PartitionBlocks]:
    """All semi-special partitions of [m], in construction order.

    Each is a tuple of block tuples, and equal blocks are one tuple.
    """
    return list(_partition_walk(m, None))


def count_ssp_partitions(m: int) -> int:
    """Number of semi-special partitions of [m]: the leaves of their walk."""
    return _count_partition_leaves(m, None)


def special_partitions(
    n: int,
    labels: Sequence[T] | None = None,
    freeze: Callable[[list[list[T]]], L] | None = None,
) -> list[L]:
    """All special partitions of [2n+1]: semi-special with n+1 blocks.

    In construction order, each frozen from the walk's lists of blocks
    by freeze, with element e stored as labels[e]: by default e itself,
    frozen to a tuple of block tuples that shares equal blocks.
    """
    return list(_partition_walk(2 * n + 1, n + 1, labels, freeze))


def count_special_partitions(n: int) -> int:
    """Number of special partitions of [2n+1]: the leaves of their walk."""
    return _count_partition_leaves(2 * n + 1, n + 1)


def _can_finish(need: int, left: int, depth: int) -> bool:
    """The walk's pruning bound: can `left` more elements, starting from
    `depth` open blocks, open exactly `need` more blocks?

    Each element left either opens a block or joins one strictly below
    the top, popping at least one open block, and the stack never
    empties: so at least ceil((left - depth + 1) / 2) of them must open
    a block.  A False answer only ever cuts branches that emit nothing.
    """
    return 0 <= need <= left and 2 * need >= left - depth + 1


def _partition_walk(
    m: int,
    target: int | None,
    labels: Sequence[T] | None = None,
    freeze: Callable[[list[list[T]]], L] | None = None,
) -> Iterator[L]:
    if m < 1:
        raise ValueError("ground size must be at least 1")
    if labels is None:
        labels = range(m + 1)
    if freeze is None:
        freeze = _freeze_blocks()
    members: list[list] = []
    # open_at[d]: the block open at depth d (0 = bottom), while d is
    # below the current depth; joins leave the blocks above in place.
    open_at: list = [None] * (m + 1)
    # Per element e: the depth before e, the choice taken at e (-1 none
    # yet, 0 opened a block at depth[e], j >= 1 joined the block j below
    # the top), and the block that opening at e covered at depth[e].
    depth = [0] * (m + 1)
    choice = [-1] * (m + 1)
    saved: list = [None] * (m + 1)
    e = 1
    while e:
        k = depth[e]
        j = choice[e]
        # Undo the choice taken at e, then take the next one the bound allows.
        if j == 0:
            members.pop()
            open_at[k] = saved[e]
        elif j > 0:
            open_at[k - 1 - j].pop()
        j += 1
        if j == 0:
            if target is None or _can_finish(target - len(members) - 1, m - e, k + 1):
                block = [labels[e]]
                members.append(block)
                saved[e] = open_at[k]
                open_at[k] = block
                below = k + 1
            else:
                j = 1
        if j > 0:
            # As j grows the join reaches further below the top and
            # leaves fewer blocks open, so the bound only tightens: its
            # first cut, or running out of blocks, ends the choices at e.
            below = k - j
            if below < 1 or (
                target is not None and not _can_finish(target - len(members), m - e, below)
            ):
                e -= 1
                continue
            open_at[below - 1].append(labels[e])
        choice[e] = j
        if e == m:
            yield freeze(members)
        else:
            e += 1
            depth[e] = below
            choice[e] = -1


def _count_partition_leaves(m: int, target: int | None) -> int:
    if m < 1:
        raise ValueError("ground size must be at least 1")
    opens = 0 if target is None else 1  # what opening a block adds to c

    def pruned(runs: dict[tuple[int, int], int], e: int) -> dict[tuple[int, int], int]:
        if target is None:
            return runs
        return {
            (k, c): v for (k, c), v in runs.items() if _can_finish(target - c, m - e + 1, k)
        }

    runs = {(0, 0): 1}  # (depth k, created c) -> choice runs that reach element e
    for e in range(1, m + 1):
        nxt: dict[tuple[int, int], int] = {}
        rows: dict[int, dict[int, int]] = {}
        for (k, c), v in pruned(runs, e).items():
            nxt[k + 1, c + opens] = nxt.get((k + 1, c + opens), 0) + v
            rows.setdefault(c, {})[k] = v
        for c, row in rows.items():
            above = 0
            for k in range(max(row) - 1, 0, -1):
                if target is not None and not _can_finish(target - c, m - e, k):
                    break  # the bound cuts this join at e + 1, and every join to a smaller k
                above += row.get(k + 1, 0)
                nxt[k, c] = nxt.get((k, c), 0) + above
        runs = nxt
    return sum(pruned(runs, m + 1).values())


def ssp_min_blocks(m: int) -> int:
    """Smallest block count over all semi-special partitions of [m].

    The least block target whose walk has a leaf, by the leaf count;
    all singletons is always semi-special, so the target m has one.
    """
    if m < 1:
        raise ValueError("ground size must be at least 1")
    return next(c for c in range(1, m + 1) if _count_partition_leaves(m, c))


def catalan_sequences(n: int, labels: Sequence[S] | None = None) -> list[S]:
    """All of S_n in lexicographic order, each member as a fold of labels.

    Member s_1..s_n comes out as labels[0] + labels[s_1] + ... +
    labels[s_n]: labels[0] starts every member (it is the empty one)
    and labels[v], 1 <= v <= n, stands for an entry v.  By default
    labels[0] is () and labels[v] is (v,), so each member is its tuple
    of entries.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(_sequence_walk(n, labels))


def count_catalan_sequences(n: int) -> int:
    """|S_n|, by the end-point stack count: O(n^2) additions, no walk."""
    if n < 0:
        raise ValueError("n must be >= 0")
    runs = [1]  # runs[k]: prefixes that leave k end points above 0
    for _ in range(n):
        # Closing onto end point e_j (e_0 = 0, j <= k) leaves j + 1 end
        # points above 0, so the runs into j + 1 are the suffix sum of
        # runs over k >= j.
        suffix = list(accumulate(reversed(runs)))
        suffix.reverse()
        runs = [0, *suffix]
    return sum(runs)


def _sequence_walk(n: int, labels: Sequence[S] | None = None) -> Iterator[S]:
    if labels is None:
        labels = [()] + [(v,) for v in range(1, n + 1)]
    if n == 0:
        yield labels[0]
        return
    # ends[d]: the end point at depth d of the stack (ends[0] = 0),
    # below the height of the entry being chosen.
    ends = [0] * (n + 1)
    # Per entry i: the stack height before i, the depth of the end
    # point that i closes onto (height[i] while none is taken yet), the
    # end point that pushing i overwrote, and the fold of the labels of
    # entries 1..i-1.
    height = [1] * (n + 1)
    close = [1] * (n + 1)
    saved = [0] * (n + 1)
    prefix = [labels[0]] * (n + 1)
    i = 1
    while i:
        if i == n:
            # Nothing reads the stack after the last entry, so its
            # choices are emitted at once, with nothing to undo.
            fold = prefix[n]
            yield from [fold + labels[n - end] for end in reversed(ends[: height[n]])]
            i -= 1
            continue
        c = close[i]
        if c < height[i]:
            ends[c + 1] = saved[i]
        c -= 1
        if c < 0:
            i -= 1
            continue
        close[i] = c
        prefix[i + 1] = prefix[i] + labels[i - ends[c]]
        saved[i] = ends[c + 1]
        ends[c + 1] = i
        i += 1
        height[i] = close[i] = c + 2
