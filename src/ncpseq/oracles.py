"""Independent enumerators and executable checks for the structural claims.

The enumerators build partitions element by element and the counters
count the same walks by dynamic programming; neither consults the
bijection, so they can referee it.  The checks re-derive each
structural fact by direct search over a full enumeration range and
report the first counterexample in canonical text, smallest first.

The public listings come in canonical text order.  A sweep that only
needs every special partition once takes them in the walk's order from
_special_walk instead, one at a time as the walk builds them, with no
text formatted to sort them; its caller sweeps a failing size again in
canonical order, which is the order that picks the counterexample to
report (see ncpseq.verify).

One sweep, _structure_sweep, decides the structure facts:
check_special_structure runs it over one size's listing, and verify's
special-structure suite over each size in walk order.
"""

from __future__ import annotations

import math
import time
from itertools import product
from typing import Iterable, Iterator

from ncpseq._backend import kernels
from ncpseq._frozen import Frozen
from ncpseq.errors import ValidationError, _as_tuple, _check_size, _is_int
from ncpseq.partitions import (
    Partition,
    _join_block_texts,
    _opened_counts,
    format_partition,
    special_violation,
)


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1), exact."""
    _check_size(n, 0, "n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def enumerate_special(n: int, *, as_text: bool = False) -> Iterator[Partition] | Iterator[str]:
    """Every special partition of [2n+1], by canonical text order.

    The kernel builds each one as a canonical partition of [2n+1] (see
    ncpseq._kernels_py), so its blocks are wrapped without a second
    check; the special conditions are left to special_violation.  With
    as_text, the canonical texts come instead: the walk stores each
    element's text and freezes each leaf straight to its canonical
    text, and the texts are sorted, with no Partition or block tuple
    built.  The sort is the one step that holds the whole size: the
    walk itself keeps nothing it has yielded.
    """
    _check_size(n, 0, "n must be >= 0")
    if as_text:
        m = 2 * n + 1
        labels = [str(x) for x in range(m + 1)]
        return iter(sorted(kernels.special_partitions(n, labels, _join_block_texts)))
    return iter(sorted(_special_walk(n), key=format_partition))


def _special_walk(n: int) -> Iterator[Partition]:
    """The special partitions of [2n+1] in the walk's order, wrapped unchecked.

    Unsorted and streamed, one at a time, for the sweeps that check
    every one and sort only a size that fails (see enumerate_special).
    """
    m = 2 * n + 1
    return (Partition._trusted(m, blocks) for blocks in kernels.special_partitions(n))


def count_special(n: int) -> int:
    """Number of special partitions of [2n+1], counted without a walk."""
    _check_size(n, 0, "n must be >= 0")
    return kernels.count_special_partitions(n)


def enumerate_ssp(m: int) -> Iterator[Partition]:
    """Every semi-special partition of [m], by canonical text order.

    Wrapped as built, as in enumerate_special.
    """
    _check_size(m, 1, "m must be >= 1")
    parts = (Partition._trusted(m, blocks) for blocks in kernels.ssp_partitions(m))
    return iter(sorted(parts, key=format_partition))


def count_ssp(m: int) -> int:
    """Number of semi-special partitions of [m], counted without a walk."""
    _check_size(m, 1, "m must be >= 1")
    return kernels.count_ssp_partitions(m)


def min_ssp_blocks(m: int) -> int:
    """Minimum block count over all semi-special partitions of [m].

    Found as the least block target that the walk's leaf count reaches;
    the answer is floor(m/2) + 1, and the checks compare against exactly
    that.
    """
    _check_size(m, 1, "m must be >= 1")
    return kernels.ssp_min_blocks(m)


class Composition(Frozen):
    """An ordered list of positive parts; n is their sum."""

    __slots__ = _fields = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]) -> None:
        parts = _as_tuple(parts, "parts")
        if not parts:
            raise ValidationError("a composition needs at least one part")
        for x in parts:
            if not _is_int(x) or x < 1:
                raise ValidationError(f"part {x!r} is not a positive integer")
        super().__init__(parts)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)

    @property
    def total(self) -> int:
        return sum(self.parts)


def compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, in lexicographic order of the parts.

    Each is a choice, after each of the positions 1..n-1, to cut there
    or not; cutting first gives the smaller part first.
    """
    _check_size(n, 1, "compositions need n >= 1")

    def parts(cuts: tuple[bool, ...]) -> tuple[int, ...]:
        out = [1]
        for cut in cuts:
            if cut:
                out.append(1)
            else:
                out[-1] += 1
        return tuple(out)

    # Every part is a positive int by construction, so none is checked.
    return (Composition._trusted(parts(cuts)) for cuts in product((True, False), repeat=n - 1))


def check_floor_sum(c: Composition) -> bool:
    """True iff sum of floor(x_j / 2) plus the part count reaches floor(n/2) + 1."""
    n = c.total
    return sum(x // 2 for x in c.parts) + len(c.parts) >= n // 2 + 1


class CheckReport(Frozen):
    """Outcome of one exhaustive claim check."""

    __slots__ = _fields = (
        "claim", "range_checked", "passed", "count_checked", "elapsed_ms", "counterexample"
    )
    claim: str
    range_checked: str
    passed: bool
    count_checked: int
    elapsed_ms: float
    counterexample: str | None

    def __init__(
        self,
        claim: str,
        range_checked: str,
        passed: bool,
        count_checked: int,
        elapsed_ms: float,
        counterexample: str | None = None,
    ) -> None:
        if not passed and counterexample is None:
            raise ValidationError("failing reports must carry a counterexample")
        super().__init__(claim, range_checked, passed, count_checked, elapsed_ms, counterexample)

    def to_dict(self) -> dict:
        """JSON layout: claim, range, status, counterexample?, count_checked, elapsed_ms."""
        out: dict = {
            "claim": self.claim,
            "range": self.range_checked,
            "status": "pass" if self.passed else "fail",
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        out["count_checked"] = self.count_checked
        out["elapsed_ms"] = self.elapsed_ms
        return out


def _report(
    claim: str, range_checked: str, outcomes: Iterable[tuple[int, str | None]]
) -> CheckReport:
    """Time the outcomes, each (objects checked, failure or None), into one report.

    The counts add up and the first failure is kept.  Every outcome is
    drawn, so a check that stops at its first failure ends its outcomes
    there itself.
    """
    started = time.perf_counter()
    checked = 0
    failure = None
    for count, reason in outcomes:
        checked += count
        if failure is None:
            failure = reason
    elapsed = round((time.perf_counter() - started) * 1000.0, 3)
    return CheckReport._trusted(claim, range_checked, failure is None, checked, elapsed, failure)


def _structure_violation(p: Partition, top: int) -> str | None:
    blocks = p.blocks
    if blocks[0][-1] != top:
        return f"1 and {top} in different blocks"
    # Each subpartition is judged by its block count, with none built.
    # The blocks strictly between consecutive elements lo < hi of a
    # block are whole blocks of p, since p is non-crossing.  Relabelled,
    # they stay non-crossing with no consecutive pair in a block, on the
    # ground set [hi-lo-1], odd by the gap check.  So they form a
    # special partition exactly when they are (hi - lo) / 2 blocks.
    # They are the blocks whose least element lies in (lo, hi), and hi
    # is the least element of none, so one prefix count of the least
    # elements gives every gap's count by a subtraction.
    opened = _opened_counts(blocks, p.ground_size)
    short = None
    for bi, b in enumerate(blocks, start=1):
        lo = b[0]
        for hi in b[1:]:
            if (hi - lo) % 2:
                return f"odd gap between {lo} and {hi}"
            if short is None and opened[hi] - opened[lo] != (hi - lo) // 2:
                # Gap gi is the one between b[gi - 1] and b[gi].
                short = f"subpartition at block {bi}, gap {b.index(hi)} is not special"
            lo = hi
    # The gap count rests on p being special, so the first short gap is
    # reported only after the special check.
    reason = special_violation(p)
    if reason is not None:
        return f"not special ({reason})"
    # The piece decomposition is a single piece, with nothing to check:
    # the first block holds 1 and 2n+1, so every other block starts
    # under its span and joins the piece it opens.
    return short


def _structure_sweep(parts: Iterable[Partition], n: int) -> tuple[int, str | None]:
    """(partitions checked, first failure or None) of the structure check over parts.

    parts are partitions of [2n+1], checked in their order up to the
    first that fails.
    """
    top = 2 * n + 1
    checked = 0
    for p in parts:
        checked += 1
        reason = _structure_violation(p, top)
        if reason is not None:
            return checked, f"{format_partition(p)}: {reason}"
    return checked, None


def check_special_structure(n: int) -> CheckReport:
    """Re-check the structural facts over every special partition of [2n+1].

    For each one: 1 and 2n+1 share a block; consecutive elements of a
    block differ by an even amount; every subpartition is special.  The
    piece decomposition is then a single piece, which needs no check
    (see _structure_violation).  The counterexample is the first failure
    in canonical text order.

    A subpartition is judged by counting its blocks in the parent, with
    no partition built: the parent passed the special check first, so
    the count is all that is left to decide.  One prefix count of the
    parent's least elements gives every gap's count by a subtraction
    (see _structure_violation).
    """

    def outcomes() -> Iterator[tuple[int, str | None]]:
        yield _structure_sweep(enumerate_special(n), n)

    return _report("special-structure", f"n={n}", outcomes())


def check_max_ground(b: int) -> bool:
    """Largest ground set carrying an SSP with at most b+1 blocks is [2b+1].

    Confirms that [2b+1] reaches block count b+1 exactly and that
    neither [2b+2] nor [2b+3] admits any SSP with b+1 blocks or fewer.
    """
    _check_size(b, 0, "b must be >= 0")
    if min_ssp_blocks(2 * b + 1) != b + 1:
        return False
    return all(min_ssp_blocks(2 * b + 1 + extra) > b + 1 for extra in (1, 2))
