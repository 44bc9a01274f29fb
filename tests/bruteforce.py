"""Slow reference implementations the tests trust over the package.

Everything here works straight off the definitions: partitions come
from recursive placement, crossings from the four-index condition,
sequences from filtering the full product, arc depths and display rows
from pairwise comparison.  Seeded members of S_n are drawn within the
governing bounds.  Nothing is shared with the package internals.
"""

from functools import lru_cache
from itertools import combinations, product


def all_set_partitions(m):
    """Every set partition of {1..m} as a tuple of sorted tuples."""
    blocks = []

    def place(e):
        if e > m:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(e)
            yield from place(e + 1)
            b.pop()
        blocks.append([e])
        yield from place(e + 1)
        blocks.pop()

    yield from place(1)


def crossing_exists(blocks):
    owner = {}
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    for a, b, c, d in combinations(sorted(owner), 4):
        if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
            return True
    return False


def has_adjacent(blocks):
    return any(y == x + 1 for b in blocks for x, y in zip(b, b[1:]))


def ssp_by_filter(m):
    """Semi-special partitions of [m] found by filtering everything."""
    return [
        blocks
        for blocks in all_set_partitions(m)
        if not has_adjacent(blocks) and not crossing_exists(blocks)
    ]


def special_by_filter(n):
    return [blocks for blocks in ssp_by_filter(2 * n + 1) if len(blocks) == n + 1]


@lru_cache(maxsize=None)
def catalan_reference(n):
    """C_n by Segner's recurrence, no binomials involved."""
    if n == 0:
        return 1
    return sum(
        catalan_reference(i) * catalan_reference(n - 1 - i) for i in range(n)
    )


def sequences_by_filter(n):
    """All of S_n by filtering the product of the per-index ranges."""
    found = []
    for cand in product(*(range(1, i + 1) for i in range(1, n + 1))):
        ok = all(
            cand[i - r - 1] <= cand[i - 1] - r
            for i in range(1, n + 1)
            for r in range(1, cand[i - 1])
        )
        if ok:
            found.append(cand)
    return found


def motzkin_reference(n):
    """M_0..M_n by the recurrence M_k = M_{k-1} + sum_j M_j M_{k-2-j}, no table."""
    m = [1, 1]
    for k in range(2, n + 1):
        m.append(m[k - 1] + sum(m[j] * m[k - 2 - j] for j in range(k - 1)))
    return m[: n + 1]


def random_member(rng, n):
    """A member of S_n, filling positions n..1 within the governing bounds.

    Fixing position q to m caps every earlier position p at m - (q - p),
    and any choice within the current bound keeps the run completable.
    """
    values = [0] * (n + 1)
    bounds = list(range(n + 1))
    for q in range(n, 0, -1):
        m = rng.randint(1, bounds[q])
        values[q] = m
        for p in range(max(1, q - m + 1), q):
            bounds[p] = min(bounds[p], m - (q - p))
    return values[1:]


def half_stretched_member(rng, n):
    """A member of S_n with exactly n // 2 entries above 1."""
    while True:
        seq = random_member(rng, n)
        if sum(1 for v in seq if v > 1) == n // 2:
            return seq


def nesting_depths_pairwise(arcs):
    """Each arc's count of arcs (a, b) with a < left and right < b."""
    return {
        (l1, r1): sum(1 for l2, r2 in arcs if l2 < l1 and r1 < r2)
        for l1, r1 in arcs
    }


def rows_first_fit(arcs):
    """Display rows of arcs: by depth, longer arcs first, each arc in the
    first row of its depth whose every arc it leaves disjoint."""
    depths = nesting_depths_pairwise(arcs)
    rows = []
    for depth in sorted(set(depths.values())):
        level = sorted(
            (a for a in arcs if depths[a] == depth), key=lambda a: (a[0] - a[1], a[0])
        )
        sub = []
        for arc in level:
            for row in sub:
                if all(arc[1] < o[0] or o[1] < arc[0] for o in row):
                    row.append(arc)
                    break
            else:
                sub.append([arc])
        rows.extend(sub)
    return rows
