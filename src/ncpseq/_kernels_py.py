"""Enumeration kernels: the walks behind every listing and count.

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

Sequence walk: fill positions n..1 with values 1..bound; fixing
position q to m lowers the bound at each earlier position p to
min(old, m - (q - p)).
"""

from __future__ import annotations

PartitionBlocks = tuple[tuple[int, ...], ...]


def ssp_partitions(m: int) -> list[PartitionBlocks]:
    """All semi-special partitions of [m], in construction order."""
    out: list[PartitionBlocks] = []
    _partition_walk(m, None, out)
    return out


def count_ssp_partitions(m: int) -> int:
    """Number of semi-special partitions of [m], by the same walk."""
    return _partition_walk(m, None, None)


def special_partitions(n: int) -> list[PartitionBlocks]:
    """All special partitions of [2n+1]: semi-special with n+1 blocks."""
    out: list[PartitionBlocks] = []
    _partition_walk(2 * n + 1, n + 1, out)
    return out


def count_special_partitions(n: int) -> int:
    """Number of special partitions of [2n+1], by the same walk."""
    return _partition_walk(2 * n + 1, n + 1, None)


def _partition_walk(
    m: int, target: int | None, out: list[PartitionBlocks] | None
) -> int:
    if m < 1:
        raise ValueError("ground size must be at least 1")
    owner = [0] * (m + 1)
    count = 0

    def emit(created: int) -> None:
        members: list[list[int]] = [[] for _ in range(created)]
        for e in range(1, m + 1):
            members[owner[e]].append(e)
        out.append(tuple(tuple(b) for b in members))

    def rec(e: int, stack: tuple[int, ...], created: int) -> None:
        nonlocal count
        if target is not None:
            # Each of the r elements left either opens a block or joins
            # one strictly below the top, popping at least one of the k
            # open blocks, and the stack never empties: so at least
            # ceil((r - k + 1) / 2) of them must open a block.
            need = target - created
            r = m - e + 1
            if not 0 <= need <= r or 2 * need < r - len(stack) + 1:
                return
        if e > m:
            count += 1
            if out is not None:
                emit(created)
            return
        owner[e] = created
        rec(e + 1, stack + (created,), created + 1)
        for t in range(len(stack) - 2, -1, -1):
            owner[e] = stack[t]
            rec(e + 1, stack[: t + 1], created)

    rec(1, (), 0)
    return count


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
    """|S_n|, counted by the same walk as catalan_sequences."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _sequence_walk(n, None)


def _sequence_walk(n: int, out: list[tuple[int, ...]] | None) -> int:
    values = [0] * (n + 1)
    bounds = list(range(n + 1))
    count = 0

    def rec(q: int) -> None:
        nonlocal count
        if q == 0:
            count += 1
            if out is not None:
                out.append(tuple(values[1:]))
            return
        for m in range(1, bounds[q] + 1):
            values[q] = m
            undo = []
            for p in range(max(1, q - m + 1), q):
                cap = m - (q - p)
                if cap < bounds[p]:
                    undo.append((p, bounds[p]))
                    bounds[p] = cap
            rec(q - 1)
            for p, old in undo:
                bounds[p] = old

    rec(n)
    return count
