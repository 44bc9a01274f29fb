"""Batch verification suites and the aggregate report.

Each suite sweeps one claim across a size range and returns a
CheckReport; run_verify bundles the five standard suites into a single
JSON-ready dictionary.
"""

from __future__ import annotations

import time

from ncpseq import bijection
from ncpseq.errors import ValidationError
from ncpseq.oracles import (
    CheckReport,
    catalan,
    check_floor_sum,
    check_special_structure,
    compositions,
    enumerate_special,
    format_partition,
    min_ssp_blocks,
)
from ncpseq.sequences import format_sequence, generate_all

DEFAULT_N_CEILING = 9
FLOOR_SUM_N_MAX = 12
MIN_BLOCKS_M_CAP = 13
MAX_GROUND_B_CAP = 6


def cardinality_suite(n_max: int) -> CheckReport:
    """Special partitions, valid sequences, and Catalan agree for n = 0..n_max."""
    started = time.perf_counter()
    checked = 0
    failure = None
    for n in range(n_max + 1):
        parts = sum(1 for _ in enumerate_special(n))
        seqs = sum(1 for _ in generate_all(n))
        want = catalan(n)
        checked += parts + seqs
        if failure is None and not parts == seqs == want:
            failure = f"n={n}: {parts} partitions, {seqs} sequences, catalan {want}"
    elapsed = round((time.perf_counter() - started) * 1000.0, 3)
    return CheckReport(
        "cardinality", f"n=0..{n_max}", failure is None, checked, elapsed, failure
    )


def round_trip_suite(n_max: int) -> CheckReport:
    """Both compositions of the maps are the identity for n = 0..n_max."""
    started = time.perf_counter()

    def one(n: int) -> tuple[int, str | None]:
        # Looked up through the module so a deliberately broken forward
        # map planted by a test is actually exercised.
        fwd = bijection.forward
        inv = bijection.inverse
        checked = 0
        for p in enumerate_special(n):
            checked += 1
            text = format_partition(p)
            try:
                back = inv(fwd(p))
            except ValidationError as exc:
                return checked, f"inverse(forward({text})) raised: {exc}"
            if back != p:
                return checked, f"inverse(forward({text})) = {format_partition(back)}"
        for s in generate_all(n):
            checked += 1
            text = format_sequence(s)
            try:
                again = fwd(inv(s))
            except ValidationError as exc:
                return checked, f"forward(inverse({text})) raised: {exc}"
            if again != s:
                return checked, f"forward(inverse({text})) = {format_sequence(again)}"
        return checked, None

    checked = 0
    failure = None
    for count, reason in map(one, range(n_max + 1)):
        checked += count
        if failure is None and reason is not None:
            failure = reason
    elapsed = round((time.perf_counter() - started) * 1000.0, 3)
    return CheckReport(
        "round-trip", f"n=0..{n_max}", failure is None, checked, elapsed, failure
    )


def special_structure_suite(n_max: int) -> CheckReport:
    """Structural facts about special partitions for n = 0..n_max."""
    started = time.perf_counter()
    checked = 0
    failure = None
    for report in map(check_special_structure, range(n_max + 1)):
        checked += report.count_checked
        if failure is None and not report.passed:
            failure = report.counterexample
    elapsed = round((time.perf_counter() - started) * 1000.0, 3)
    return CheckReport(
        "special-structure", f"n=0..{n_max}", failure is None, checked, elapsed, failure
    )


def floor_sum_suite() -> CheckReport:
    """The floor inequality over every composition of n = 1..12."""
    started = time.perf_counter()
    checked = 0
    failure = None
    for n in range(1, FLOOR_SUM_N_MAX + 1):
        for c in compositions(n):
            checked += 1
            if failure is None and not check_floor_sum(c):
                failure = str(c)
    elapsed = round((time.perf_counter() - started) * 1000.0, 3)
    return CheckReport(
        "floor-sum",
        f"n=1..{FLOOR_SUM_N_MAX}",
        failure is None,
        checked,
        elapsed,
        failure,
    )


def min_blocks_suite(n_max: int) -> CheckReport:
    """Minimum SSP block count equals floor(m/2) + 1 for each ground size."""
    started = time.perf_counter()
    m_max = min(2 * n_max + 1, MIN_BLOCKS_M_CAP)
    m_max = max(m_max, 1)
    checked = 0
    failure = None
    for m in range(1, m_max + 1):
        checked += 1
        got = min_ssp_blocks(m)
        if failure is None and got != m // 2 + 1:
            failure = f"m={m}: minimum {got}, expected {m // 2 + 1}"
    elapsed = round((time.perf_counter() - started) * 1000.0, 3)
    return CheckReport(
        "min-blocks", f"m=1..{m_max}", failure is None, checked, elapsed, failure
    )


def max_ground_suite(n_max: int) -> CheckReport:
    """check_max_ground holds for b = 0..min(n_max, 6)."""
    from ncpseq.oracles import check_max_ground

    started = time.perf_counter()
    b_max = min(n_max, MAX_GROUND_B_CAP)
    checked = 0
    failure = None
    for b in range(b_max + 1):
        checked += 1
        if failure is None and not check_max_ground(b):
            failure = f"b={b}"
    elapsed = round((time.perf_counter() - started) * 1000.0, 3)
    return CheckReport(
        "max-ground", f"b=0..{b_max}", failure is None, checked, elapsed, failure
    )


def run_verify(n_max: int = DEFAULT_N_CEILING) -> dict:
    """Run the five standard suites and assemble the report dictionary."""
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    reports = [
        cardinality_suite(n_max),
        round_trip_suite(n_max),
        special_structure_suite(n_max),
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
