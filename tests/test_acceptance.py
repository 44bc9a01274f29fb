"""Top-level acceptance runs, one test per criterion.

Each test prints a single ACCEPTANCE line so a log scan shows the
verdicts without digging through pytest output.  Criteria with a time
budget assert the measured wall clock against it.
"""

import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

from ncpseq import (
    GoverningState,
    catalan,
    check_max_ground,
    check_floor_sum,
    compositions,
    enumerate_special,
    format_partition,
    forward,
    from_arcs,
    generate_all,
    inverse,
    inverse_trace,
    min_ssp_blocks,
    parse_partition,
    parse_sequence,
    render_svg,
    set_value,
    to_arcs,
)
from ncpseq.verify import CLAIM_SUITES

PART_13 = "1,13|2,4,6,12|3|5|7,11|8,10|9"


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_worked_example_round_trip():
    with criterion(1, "hand-checked 13-element example maps both ways, byte-exact"):
        started = time.perf_counter()
        part = parse_partition(PART_13)
        seq = forward(part)
        assert seq.entries == (1, 2, 3, 1, 1, 6)
        back = inverse(seq)
        assert format_partition(back) == PART_13
        assert time.perf_counter() - started < 1.0


def test_criterion_2_choice_replay():
    with criterion(2, "choice run (4,1,2,1,4) at n=8 reproduces every T and g row"):
        started = time.perf_counter()
        state = GoverningState.initial(8)
        expected = [
            ((1, 1, 1, 1, 1, 1, 1, 4), (1, 2, 3, 4, 1, 2, 3, 4)),
            ((1, 1, 1, 1, 1, 1, 1, 4), (1, 2, 3, 4, 1, 2, 1, 4)),
            ((1, 1, 1, 1, 1, 2, 1, 4), (1, 2, 3, 4, 1, 2, 1, 4)),
            ((1, 1, 1, 1, 1, 2, 1, 4), (1, 2, 3, 4, 1, 2, 1, 4)),
            ((1, 1, 1, 4, 1, 2, 1, 4), (1, 2, 3, 4, 1, 2, 1, 4)),
        ]
        for m, want in zip((4, 1, 2, 1, 4), expected):
            state = set_value(state, m)
            assert (state.values, state.bounds) == want
        assert time.perf_counter() - started < 1.0


def test_criterion_3_cardinality_sweep():
    with criterion(3, "partition, sequence, and closed-form counts agree for n <= 9"):
        started = time.perf_counter()
        for n in range(10):
            parts = sum(1 for _ in enumerate_special(n))
            seqs = sum(1 for _ in generate_all(n))
            assert parts == seqs == catalan(n)
        assert catalan(9) == 4862
        assert time.perf_counter() - started < 60.0


def test_criterion_4_exhaustive_round_trips():
    with criterion(4, "both map compositions are the identity for every n <= 9"):
        report = CLAIM_SUITES["round-trip"](9)
        assert report.passed, report.counterexample
        assert report.count_checked == 2 * sum(catalan(n) for n in range(10))


def test_criterion_5_minimum_block_counts():
    with criterion(5, "minimum SSP blocks hit floor(m/2)+1 and the ground-size cap"):
        started = time.perf_counter()
        for m in range(1, 14):
            assert min_ssp_blocks(m) == m // 2 + 1
        for b in range(7):
            assert check_max_ground(b)
        assert time.perf_counter() - started < 120.0


def test_criterion_6_structural_facts():
    with criterion(6, "block structure, subpartitions, single piece for n <= 9"):
        report = CLAIM_SUITES["special-structure"](9)
        assert report.passed, report.counterexample
        assert report.counterexample is None
        assert report.count_checked == sum(catalan(n) for n in range(10))


def test_criterion_7_floor_inequality():
    with criterion(7, "floor inequality over every composition of every n <= 12"):
        started = time.perf_counter()
        for n in range(1, 13):
            checked = 0
            for c in compositions(n):
                assert check_floor_sum(c), c
                checked += 1
            assert checked == 2 ** (n - 1)
        assert time.perf_counter() - started < 5.0


def test_criterion_8_long_trace():
    with criterion(8, "the 8-step trace stalls on its tail and closes the loop"):
        seq = parse_sequence("1 1 1 4 1 2 1 4")
        trace = inverse_trace(seq)
        diagrams = (trace.start, *(step.diagram for step in trace.steps))
        assert sum(1 for a, b in zip(diagrams, diagrams[1:]) if a != b) == 3
        assert diagrams[5] == diagrams[6] == diagrams[7] == diagrams[8]
        final = from_arcs(diagrams[-1])
        assert format_partition(final) == "1,9,17|2,4,8|3|5,7|6|10,12,14,16|11|13|15"
        assert forward(final) == seq


def test_criterion_9_render_determinism():
    with criterion(9, "SVG output is byte-stable, well-formed, one path per arc"):
        diagram = to_arcs(parse_partition(PART_13))
        first = render_svg(diagram)
        second = render_svg(diagram)
        assert first == second
        root = ET.fromstring(first)
        paths = [el for el in root.iter() if el.tag.endswith("path")]
        assert len(paths) == 6
