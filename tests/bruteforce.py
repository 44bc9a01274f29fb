"""Slow reference implementations the tests trust over the package.

Everything here works straight off the definitions: partitions come
from recursive placement, crossings from the four-index condition,
sequences from filtering the full product.  Nothing is shared with the
package internals.
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
