"""Batch verification suites and the aggregate report.

Each suite sweeps one claim across a size range and returns a
CheckReport: it yields how many objects each size or object checked and
the failure found there, if any, and oracles._report times them into
the report.  run_verify bundles the five standard suites into a single
JSON-ready dictionary, and CLAIM_SUITES maps each claim name to its
suite, for running one claim alone.

The cardinality, round-trip and special-structure suites sweep the same
objects: every special partition of [2n+1] and every member of S_n for
n = 0..n_max.  Each takes them as lists indexed by n, one entry per
size, and reads its range from their length.  run_verify walks each
size once and hands the same lists to all three; a CLAIM_SUITES entry
walks only what its one suite reads, outside the suite's timing.  Every
object is validated once, when it is walked.

The partitions come in the walk's order, with no text formatted to sort
them.  A failure reports the smallest counterexample in canonical text
order, so a size where the round-trip or special-structure sweep fails
is swept again in that order, and the suite reports what the second
sweep finds (_first_in_canonical_order); a passing size is swept once.
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

from typing import Callable, Iterable, Sequence

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


def _each_size(listing: Callable[[int], Iterable], n_max: int) -> list[tuple]:
    """listing(n) for each n = 0..n_max, walked once: what the sweeping suites take."""
    return [tuple(listing(n)) for n in range(n_max + 1)]


def _first_in_canonical_order(
    sweep: Callable[..., tuple[int, str | None]], parts: Sequence[Partition], *rest: object
) -> tuple[int, str | None]:
    """sweep(parts, *rest) over one size, as if parts came in canonical text order.

    sweep gives (objects checked, first failure or None) in the order of
    parts.  A passing sweep passes in any order, with every object
    checked; a failing one is run again with parts sorted, so the
    failure and the count checked up to it are those of the smallest
    counterexample.
    """
    outcome = sweep(parts, *rest)
    if outcome[1] is None:
        return outcome
    return sweep(sorted(parts, key=format_partition), *rest)


def cardinality_suite(
    partitions: Sequence[Sequence[Partition]], sequences: Sequence[Sequence[CatSeq]]
) -> CheckReport:
    """Special partitions, valid sequences, and Catalan agree at each size n.

    A partition counts only if it is special, so an enumerator that
    emits anything else fails the claim.
    """

    def one(n: int) -> tuple[int, str | None]:
        parts = sum(1 for p in partitions[n] if special_violation(p) is None)
        seqs = len(sequences[n])
        want = catalan(n)
        if parts == seqs == want:
            return parts + seqs, None
        return parts + seqs, f"n={n}: {parts} partitions, {seqs} sequences, catalan {want}"

    return _report("cardinality", f"n=0..{len(partitions) - 1}", map(one, range(len(partitions))))


def round_trip_suite(
    partitions: Sequence[Sequence[Partition]], sequences: Sequence[Sequence[CatSeq]]
) -> CheckReport:
    """Both compositions of the maps are the identity at each size n.

    forward runs once per partition and inverse once per distinct
    sequence: a sequence already reached as forward(p) with
    inverse(forward(p)) == p passes without being mapped again.  Each
    size stops at its first failure, in canonical order.
    """

    def sweep(parts: Sequence[Partition], seqs: Sequence[CatSeq]) -> tuple[int, str | None]:
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

    outcomes = (
        _first_in_canonical_order(sweep, partitions[n], sequences[n])
        for n in range(len(partitions))
    )
    return _report("round-trip", f"n=0..{len(partitions) - 1}", outcomes)


def special_structure_suite(partitions: Sequence[Sequence[Partition]]) -> CheckReport:
    """Structural facts about the special partitions at each size n."""
    outcomes = (
        _first_in_canonical_order(_structure_sweep, ps, n) for n, ps in enumerate(partitions)
    )
    return _report("special-structure", f"n=0..{len(partitions) - 1}", outcomes)


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

# Each claim `check` can run, by name, with its suite.  An entry walks
# only what its suite reads, and looks the suite up when it is called,
# so a suite replaced on this module by name (as tracers and tests do)
# is the one that runs.
CLAIM_SUITES: dict[str, Callable[[int], CheckReport]] = {
    "cardinality": lambda n_max: cardinality_suite(
        _each_size(_special_walk, n_max), _each_size(generate_all, n_max)
    ),
    "round-trip": lambda n_max: round_trip_suite(
        _each_size(_special_walk, n_max), _each_size(generate_all, n_max)
    ),
    "special-structure": lambda n_max: special_structure_suite(
        _each_size(_special_walk, n_max)
    ),
    "floor-sum": lambda n_max: floor_sum_suite(),
    "min-blocks": lambda n_max: min_blocks_suite(n_max),
    "max-ground": lambda n_max: max_ground_suite(n_max),
}


def run_verify(n_max: int = DEFAULT_N_CEILING) -> dict:
    """Run the five standard suites and assemble the report dictionary.

    The special partitions and S_n are walked once per size and shared
    by the three suites that sweep them, the partitions in the walk's
    order.
    """
    _check_size(n_max, 0, "n_max must be >= 0")
    partitions = _each_size(_special_walk, n_max)
    sequences = _each_size(generate_all, n_max)
    reports = [
        cardinality_suite(partitions, sequences),
        round_trip_suite(partitions, sequences),
        special_structure_suite(partitions),
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
