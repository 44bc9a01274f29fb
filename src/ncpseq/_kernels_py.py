"""Enumeration kernels: the walks behind every listing, and the counts.

The recursions are self-contained on purpose.  They never touch the
bijection, so their output can referee it.

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

The walk builds each partition as it goes: it keeps one list per
block, appends e to the block it opens or joins and pops it again on
backtrack, so a leaf only freezes the lists.  Those blocks are a
canonical partition of [m] by construction: every element 1..m is
appended exactly once, to exactly one block; elements arrive in
increasing order, so each block is ascending and is opened by its
least element; and blocks are listed in the order they were opened,
which is the order of their least elements.

Sequence walk: fill positions n..1 with values 1..bound, smaller
values first.  Setting s_q = m puts the interval (q - m, q] over the
positions q - m + 1..q (see ncpseq.sequences: in a member these
intervals nest), and the bound at q is q minus the start of the
innermost interval already set over q, or q when there is none.  That
is the governing bound min(old, m - (q - p)) of the sequences module,
kept as a stack of interval starts instead of a bound per position.

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
* Sequences.  s is in S_n iff the intervals (i - s_i, i] nest
  (sequences.sequence_violation), which a left-to-right scan checks
  with a stack of end points: entry i closes onto one of them, pops
  those above it and pushes i.  From k end points above 0, entry i
  can close onto any of the k + 1 boundaries, leaving 1..k + 1 end
  points above 0, and distinct choices give distinct sequences; the
  count of S_n is the number of such runs of length n from k = 0.
"""

from __future__ import annotations

from itertools import accumulate

PartitionBlocks = tuple[tuple[int, ...], ...]


def ssp_partitions(m: int) -> list[PartitionBlocks]:
    """All semi-special partitions of [m], in construction order."""
    out: list[PartitionBlocks] = []
    _partition_walk(m, None, out)
    return out


def count_ssp_partitions(m: int) -> int:
    """Number of semi-special partitions of [m]: the leaves of their walk."""
    return _count_partition_leaves(m, None)


def special_partitions(n: int) -> list[PartitionBlocks]:
    """All special partitions of [2n+1]: semi-special with n+1 blocks."""
    out: list[PartitionBlocks] = []
    _partition_walk(2 * n + 1, n + 1, out)
    return out


def count_special_partitions(n: int) -> int:
    """Number of special partitions of [2n+1]: the leaves of their walk."""
    return _count_partition_leaves(2 * n + 1, n + 1)


def _partition_walk(m: int, target: int | None, out: list[PartitionBlocks]) -> None:
    if m < 1:
        raise ValueError("ground size must be at least 1")
    members: list[list[int]] = []

    def rec(e: int, stack: tuple[list[int], ...]) -> None:
        if target is not None:
            # Each of the r elements left either opens a block or joins
            # one strictly below the top, popping at least one of the k
            # open blocks, and the stack never empties: so at least
            # ceil((r - k + 1) / 2) of them must open a block.
            need = target - len(members)
            r = m - e + 1
            if not 0 <= need <= r or 2 * need < r - len(stack) + 1:
                return
        if e > m:
            out.append(tuple(map(tuple, members)))
            return
        block = [e]
        members.append(block)
        rec(e + 1, stack + (block,))
        members.pop()
        for t in range(len(stack) - 2, -1, -1):
            block = stack[t]
            block.append(e)
            rec(e + 1, stack[: t + 1])
            block.pop()

    rec(1, ())


def _count_partition_leaves(m: int, target: int | None) -> int:
    if m < 1:
        raise ValueError("ground size must be at least 1")
    opens = 0 if target is None else 1  # what opening a block adds to c

    def pruned(runs: dict[tuple[int, int], int], e: int) -> dict[tuple[int, int], int]:
        if target is None:
            return runs
        r = m - e + 1  # the walk's bound, as in _partition_walk
        return {
            (k, c): v
            for (k, c), v in runs.items()
            if 0 <= target - c <= r and 2 * (target - c) >= r - k + 1
        }

    runs = {(0, 0): 1}  # (depth k, created c) -> choice runs that reach element e
    for e in range(1, m + 1):
        nxt: dict[tuple[int, int], int] = {}
        rows: dict[int, dict[int, int]] = {}
        for (k, c), v in pruned(runs, e).items():
            nxt[k + 1, c + opens] = nxt.get((k + 1, c + opens), 0) + v
            rows.setdefault(c, {})[k] = v
        for c, row in rows.items():
            # Join targets the bound cuts at e + 1 are not stored at all.
            lo = 1 if target is None else max(1, m - e + 1 - 2 * (target - c))
            above = 0
            for k in range(max(row) - 1, lo - 1, -1):
                above += row.get(k + 1, 0)
                nxt[k, c] = nxt.get((k, c), 0) + above
        runs = nxt
    return sum(pruned(runs, m + 1).values())


def ssp_min_blocks(m: int) -> int:
    """Smallest block count over all semi-special partitions of [m].

    Branch-and-bound over the same walk: block count only grows, so a
    branch dies as soon as it matches the best completed count.  Joins
    are tried before opening a block to reach small counts early.
    """
    if m < 1:
        raise ValueError("ground size must be at least 1")
    best = m  # all singletons is always semi-special

    def rec(e: int, open_count: int, created: int) -> None:
        nonlocal best
        if created >= best:
            return
        if e > m:
            best = created
            return
        for keep in range(open_count - 1, 0, -1):
            rec(e + 1, keep, created)
        rec(e + 1, open_count + 1, created + 1)

    rec(1, 0, 0)
    return best


def catalan_sequences(n: int) -> list[tuple[int, ...]]:
    """All of S_n as tuples, depth-first, smaller choices first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[tuple[int, ...]] = []
    _sequence_walk(n, out)
    return out


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


def _sequence_walk(n: int, out: list[tuple[int, ...]]) -> None:
    values = [0] * n

    def rec(q: int, starts: tuple[int, ...]) -> None:
        # starts: 0, then the starts of the set intervals covering q,
        # innermost last.
        if q == 0:
            out.append(tuple(values))
            return
        bound = q - starts[-1]
        while len(starts) > 1 and starts[-1] == q - 1:
            starts = starts[:-1]  # intervals that start at q - 1 stop covering it
        values[q - 1] = 1  # (q - 1, q] covers no earlier position
        rec(q - 1, starts)
        for m in range(2, bound + 1):
            values[q - 1] = m
            rec(q - 1, starts + (q - m,))

    rec(n, (0,))
