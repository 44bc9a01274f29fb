"""Batch verification suites and the aggregate report.

Each suite sweeps one claim across a size range and returns a
CheckReport: it yields how many objects each size or object checked and
the failure found there, if any, and oracles._report times them into
the report.  run_verify bundles the five standard suites into a single
JSON-ready dictionary, and CLAIM_SUITES maps each claim name to its
suite, for running one claim alone.

The cardinality, round-trip and special-structure suites sweep the same
objects: every special partition of [2n+1] and every member of S_n for
n = 0..n_max.  Each takes n_max and a source per kind of object, a
function from n to an iterable of the objects of size n, and reads each
size from it inside its own timing.  run_verify hands all three suites
one shared source per kind, which walks a size the first time a suite
reads it and keeps it for the others: each size is walked once, and
the walks land in the first suite's time, the cardinality suite's.  A
CLAIM_SUITES entry hands its one suite the walks themselves, which keep
nothing, so a claim checked alone holds one object at a time, but for
the round-trip suite, which keeps one size's sequences because it reads
them twice.  Every object is validated once, when it is walked.

The partitions come in the walk's order, with no text formatted to sort
them.  A failure reports the smallest counterexample in canonical text
order, so a size where the round-trip or special-structure sweep fails
is read again from its source (walked again, if the source keeps
nothing) and swept again in that order, and the suite reports what the
second sweep finds (_first_in_canonical_order); a passing size is swept
once.
The sequences need no second sweep: the walk lists S_n in lexicographic
order, their canonical order.

Each fact is then computed once per object.  A partition's special
verdict is stored on it, so the cardinality count, forward and the
structure check share one computation; the structure suite hands each
size to oracles._structure_sweep, with no report per size, and it
judges each gap by counting the parent's blocks in it, with no
partition built; and the round-trip suite runs forward once per
partition and inverse once per distinct sequence.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

from ncpseq import bijection
from ncpseq.errors import ValidationError, _check_size
from ncpseq.oracles import (
    CheckReport,
    _report,
    _special_walk,
    _structure_sweep,
    catalan,
    check_floor_sum,
    check_max_ground,
    compositions,
    format_partition,
    min_ssp_blocks,
)
from ncpseq.partitions import Partition, special_violation
from ncpseq.sequences import CatSeq, format_sequence, generate_all

DEFAULT_N_CEILING = 9
FLOOR_SUM_N_MAX = 12
MIN_BLOCKS_M_CAP = 13
MAX_GROUND_B_CAP = 6

# What a sweeping suite reads its objects from: n -> the objects of size n.
Source = Callable[[int], Iterable]


def _first_in_canonical_order(
    sweep: Callable[..., tuple[int, str | None]], partitions: Source, n: int, *rest: object
) -> tuple[int, str | None]:
    """sweep(partitions(n), *rest) over one size, as if it came in canonical text order.

    sweep gives (objects checked, first failure or None) in the order
    the source gives them.  A passing sweep passes in any order, with
    every object checked; a failing one reads the size from its source
    again and is run again with it sorted, so the failure and the count
    checked up to it are those of the smallest counterexample.
    """
    outcome = sweep(partitions(n), *rest)
    if outcome[1] is None:
        return outcome
    return sweep(sorted(partitions(n), key=format_partition), *rest)


def cardinality_suite(n_max: int, partitions: Source, sequences: Source) -> CheckReport:
    """Special partitions, valid sequences, and Catalan agree at each size n.

    A partition counts only if it is special, so an enumerator that
    emits anything else fails the claim.
    """

    def one(n: int) -> tuple[int, str | None]:
        parts = sum(1 for p in partitions(n) if special_violation(p) is None)
        seqs = sum(1 for _ in sequences(n))
        want = catalan(n)
        if parts == seqs == want:
            return parts + seqs, None
        return parts + seqs, f"n={n}: {parts} partitions, {seqs} sequences, catalan {want}"

    return _report("cardinality", f"n=0..{n_max}", map(one, range(n_max + 1)))


def round_trip_suite(n_max: int, partitions: Source, sequences: Source) -> CheckReport:
    """Both compositions of the maps are the identity at each size n.

    forward runs once per partition and inverse once per distinct
    sequence: a sequence already reached as forward(p) with
    inverse(forward(p)) == p passes without being mapped again.  Each
    size stops at its first failure, in canonical order.
    """

    def sweep(parts: Iterable[Partition], seqs: tuple[CatSeq, ...]) -> tuple[int, str | None]:
        # Looked up through the module so a deliberately broken forward
        # map planted by a test is actually exercised.
        fwd = bijection.forward
        inv = bijection.inverse
        # Members of S_n not reached as forward(p) of a partition that
        # round-tripped; the maps are functions of their argument's
        # value, so the reached ones need no second evaluation.
        pending = {s.entries for s in seqs}
        checked = 0
        for p in parts:
            checked += 1
            try:
                image = fwd(p)
                back = inv(image)
            except ValidationError as exc:
                return checked, f"inverse(forward({format_partition(p)})) raised: {exc}"
            if back != p:
                return checked, (
                    f"inverse(forward({format_partition(p)})) = {format_partition(back)}"
                )
            pending.discard(image.entries)
        for s in seqs:
            checked += 1
            if s.entries not in pending:
                continue
            try:
                again = fwd(inv(s))
            except ValidationError as exc:
                return checked, f"forward(inverse({format_sequence(s)})) raised: {exc}"
            if again != s:
                return checked, (
                    f"forward(inverse({format_sequence(s)})) = {format_sequence(again)}"
                )
        return checked, None

    # The sweep reads a size's sequences twice, so they are kept for it.
    outcomes = (
        _first_in_canonical_order(sweep, partitions, n, tuple(sequences(n)))
        for n in range(n_max + 1)
    )
    return _report("round-trip", f"n=0..{n_max}", outcomes)


def special_structure_suite(n_max: int, partitions: Source) -> CheckReport:
    """Structural facts about the special partitions at each size n."""
    outcomes = (
        _first_in_canonical_order(_structure_sweep, partitions, n, n) for n in range(n_max + 1)
    )
    return _report("special-structure", f"n=0..{n_max}", outcomes)


def floor_sum_suite() -> CheckReport:
    """The floor inequality over every composition of n = 1..12."""
    outcomes = (
        (1, None if check_floor_sum(c) else str(c))
        for n in range(1, FLOOR_SUM_N_MAX + 1)
        for c in compositions(n)
    )
    return _report("floor-sum", f"n=1..{FLOOR_SUM_N_MAX}", outcomes)


def min_blocks_suite(n_max: int) -> CheckReport:
    """Minimum SSP block count equals floor(m/2) + 1 for each ground size."""
    m_max = max(min(2 * n_max + 1, MIN_BLOCKS_M_CAP), 1)

    def one(m: int) -> tuple[int, str | None]:
        got, want = min_ssp_blocks(m), m // 2 + 1
        return 1, None if got == want else f"m={m}: minimum {got}, expected {want}"

    return _report("min-blocks", f"m=1..{m_max}", map(one, range(1, m_max + 1)))


def max_ground_suite(n_max: int) -> CheckReport:
    """check_max_ground holds for b = 0..min(n_max, 6)."""
    b_max = min(n_max, MAX_GROUND_B_CAP)
    outcomes = ((1, None if check_max_ground(b) else f"b={b}") for b in range(b_max + 1))
    return _report("max-ground", f"b=0..{b_max}", outcomes)


# The claims whose suites sweep every object for n = 0..n_max, so that
# their work grows with n_max; the other suites cap their range.
SWEEPING_CLAIMS = frozenset({"cardinality", "round-trip", "special-structure"})

# Each claim `check` can run, by name, with its suite.  A sweeping suite
# reads the walks themselves, which keep nothing, and looks each one up
# when it reads a size; an entry looks its suite up when it is called.
# So a suite or walk replaced on its module by name (as tracers and
# tests do) is the one that runs.
CLAIM_SUITES: dict[str, Callable[[int], CheckReport]] = {
    "cardinality": lambda n_max: cardinality_suite(n_max, _special_walk, generate_all),
    "round-trip": lambda n_max: round_trip_suite(n_max, _special_walk, generate_all),
    "special-structure": lambda n_max: special_structure_suite(n_max, _special_walk),
    "floor-sum": lambda n_max: floor_sum_suite(),
    "min-blocks": lambda n_max: min_blocks_suite(n_max),
    "max-ground": lambda n_max: max_ground_suite(n_max),
}


def run_verify(n_max: int = DEFAULT_N_CEILING) -> dict:
    """Run the five standard suites and assemble the report dictionary.

    The special partitions and S_n are walked once per size, the first
    time the cardinality suite reads that size, and kept for the
    round-trip and special-structure suites, the partitions in the
    walk's order.  So the walks are timed with the cardinality suite.
    """
    _check_size(n_max, 0, "n_max must be >= 0")
    # Each walks a size the first time a suite reads it, and keeps it.
    partitions = cache(lambda n: tuple(_special_walk(n)))
    sequences = cache(lambda n: tuple(generate_all(n)))
    reports = [
        cardinality_suite(n_max, partitions, sequences),
        round_trip_suite(n_max, partitions, sequences),
        special_structure_suite(n_max, partitions),
        floor_sum_suite(),
        min_blocks_suite(n_max),
    ]
    return {
        "schema": 1,
        "n_max": n_max,
        "status": "pass" if all(r.passed for r in reports) else "fail",
        "counts": [catalan(n) for n in range(n_max + 1)],
        "checks": [r.to_dict() for r in reports],
    }
