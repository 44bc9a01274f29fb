"""Slow reference implementations the tests trust over the package.

Everything here works straight off the definitions: partitions come
from recursive placement, crossings from the four-index condition,
sequences from filtering the full product, the first broken condition
of S_n from scanning it as stated, the governing bounds of a partial
sequence from their formula, arc depths and display rows from pairwise
comparison.  Seeded members of S_n are drawn within the governing
bounds.  Nothing is shared with the package internals.
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


def scan_violation(entries):
    # Conditions (i) then (ii) as stated, index by index: O(sum of s_i).
    for i, v in enumerate(entries, start=1):
        if not isinstance(v, int) or isinstance(v, bool):
            return f"entry {i} is not an integer"
        if not 1 <= v <= i:
            return f"s_{i} = {v} outside 1..{i}"
    for i, v in enumerate(entries, start=1):
        for r in range(1, v):
            if entries[i - r - 1] > v - r:
                return (
                    f"s_{i} = {v} forces s_{i - r} <= {v - r}, "
                    f"found {entries[i - r - 1]}"
                )
    return None


def bounds_from_scratch(values, cursor):
    """The governing bounds recomputed from their definition, ignoring any running state.

    At an unset position q <= cursor, g_q = min(q, min over p > cursor
    of s_p - (p - q)), where terms below 1 impose nothing; at a set
    position, the value.  The reference for set_value's incremental
    updates.  Raises ValueError unless every value is an int and cursor
    is an int in 0..len(values).
    """
    n = len(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"value {v!r} is not an integer")
    if not isinstance(cursor, int) or isinstance(cursor, bool):
        raise ValueError(f"cursor {cursor!r} is not an integer")
    if not 0 <= cursor <= n:
        raise ValueError(f"cursor {cursor} is outside 0..{n}")
    out = []
    for q in range(1, n + 1):
        if q > cursor:
            out.append(values[q - 1])
            continue
        g = q
        for p in range(cursor + 1, n + 1):
            cap = values[p - 1] - (p - q)
            if 1 <= cap < g:
                g = cap
        out.append(g)
    return tuple(out)


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
