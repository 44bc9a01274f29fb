"""The forward map, the arc-stretching inverse, and their traces."""

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpseq import (
    ArcDiagram,
    CatSeq,
    GoverningState,
    Partition,
    StretchError,
    ValidationError,
    decompose_pieces,
    difference_sequence,
    enumerate_special,
    format_partition,
    forward,
    from_arcs,
    generate_all,
    initial_diagram,
    inverse,
    inverse_trace,
    is_special,
    parse_partition,
    parse_sequence,
    sequence_violation,
    set_value,
    special_violation,
    stretch_step,
    to_arcs,
)

PART_13 = "1,13|2,4,6,12|3|5|7,11|8,10|9"
LONG_SEQ = "1 1 1 4 1 2 1 4"
LONG_PART = "1,9,17|2,4,8|3|5,7|6|10,12,14,16|11|13|15"


@st.composite
def members(draw, n_max=14):
    """A uniform-ish member of S_n drawn through the governing machinery."""
    n = draw(st.integers(0, n_max))
    state = GoverningState.initial(n)
    while not state.is_complete:
        limit = state.bounds[state.cursor - 1]
        state = set_value(state, draw(st.integers(1, limit)))
    return state.sequence()


def test_difference_sequence_examples():
    assert difference_sequence(parse_partition(PART_13)) == (
        12, 2, 0, 2, 0, 6, 4, 2, 0, 0, 0, 0, 0,
    )
    assert difference_sequence(parse_partition("1")) == (0,)
    assert difference_sequence(parse_partition("1,3,5|2|4")) == (2, 0, 2, 0, 0)


def test_difference_sequence_needs_special():
    with pytest.raises(ValidationError, match="crossing"):
        difference_sequence(parse_partition("1,3|2,4|5"))


def test_difference_sequence_equals_the_per_block_definition():
    for n in range(9):
        for p in enumerate_special(n):
            want = [0] * p.ground_size
            for block in p.blocks:
                for x, y in zip(block, block[1:]):
                    want[x - 1] = y - x
            assert difference_sequence(p) == tuple(want)


@pytest.mark.parametrize("n", range(8))
def test_diffseq_structure_over_all_special(n):
    for p in enumerate_special(n):
        d = difference_sequence(p)
        assert len(d) == 2 * n + 1
        assert sum(1 for x in d if x == 0) == n + 1
        assert all(x % 2 == 0 for x in d)


def test_forward_examples():
    assert forward(parse_partition(PART_13)).entries == (1, 2, 3, 1, 1, 6)
    assert forward(parse_partition("1,5|2,4|3")).entries == (1, 2)
    assert forward(parse_partition("1,3,5,7|2|4|6")).entries == (1, 1, 1)
    assert forward(parse_partition("1")).entries == ()


# forward wraps its image unchecked, on the paper's theorem that it lies
# in S_n; these check the theorem with the membership check itself.
@pytest.mark.parametrize("n", range(10))
def test_forward_lands_in_s_n(n):
    for p in enumerate_special(n):
        assert sequence_violation(forward(p).entries) is None


@given(members(n_max=300))
@settings(max_examples=40, deadline=None)
def test_forward_lands_in_s_n_on_long_special_partitions(s):
    p = inverse(s)
    assert special_violation(p) is None
    image = forward(p)
    assert sequence_violation(image.entries) is None
    assert image == s


def test_initial_diagram():
    assert initial_diagram(0) == ArcDiagram(1, ())
    assert initial_diagram(2).arcs == ((1, 3), (3, 5))
    d6 = initial_diagram(6)
    assert d6.point_count == 13 and len(d6.arcs) == 6
    assert is_special(from_arcs(d6))
    assert forward(from_arcs(d6)).entries == (1,) * 6


def test_stretch_replacement_list():
    d = stretch_step(initial_diagram(8), 1, 4)
    assert (1, 9) in d.arcs
    for gone in ((1, 3), (3, 5), (5, 7), (7, 9)):
        assert gone not in d.arcs
    for moved in ((2, 4), (4, 6), (6, 8)):
        assert moved in d.arcs


def test_stretch_identity_and_small_case():
    d = initial_diagram(3)
    assert stretch_step(d, 2, 1) == d
    assert stretch_step(initial_diagram(2), 1, 2).arcs == ((1, 5), (2, 4))
    assert format_partition(from_arcs(stretch_step(initial_diagram(2), 1, 2))) == (
        "1,5|2,4|3"
    )


def test_stretch_rejects_structural_misuse():
    d = initial_diagram(3)
    with pytest.raises(StretchError):
        stretch_step(d, 0, 1)
    with pytest.raises(StretchError):
        stretch_step(d, 4, 1)
    with pytest.raises(StretchError):
        stretch_step(d, 2, 0)
    with pytest.raises(StretchError):
        stretch_step(d, 2, 3)  # only one arc follows
    wide = stretch_step(d, 1, 2)
    with pytest.raises(StretchError):
        stretch_step(wide, 1, 2)  # first arc no longer has span two
    assert issubclass(StretchError, ValidationError)


# (diagram, i, v) and the exact text of the StretchError each raises.
# WIDE is initial_diagram(3) after stretching its first arc by 2.
WIDE = ArcDiagram(7, ((1, 5), (2, 4), (5, 7)))
STRETCH_FAULTS = [
    (initial_diagram(3), 2, 0, "stretch width 0 is not a positive integer"),
    (initial_diagram(3), 2, True, "stretch width True is not a positive integer"),
    (initial_diagram(3), 2, 2.0, "stretch width 2.0 is not a positive integer"),
    (initial_diagram(3), 0, 1, "no arc 0 in a diagram with 3 arcs"),
    (initial_diagram(3), 4, 1, "no arc 4 in a diagram with 3 arcs"),
    (WIDE, 1, 2, "arc 1 spans (1, 5), expected (1, 3)"),
    (initial_diagram(3), 2, 3, "only 1 arc follows arc 2, need 2"),
    (WIDE, 2, 2, "arc 3 is (5, 7), expected (4, 6)"),
    # Checked like the width: no bool, float or text index stands in for arc 1.
    *(
        (initial_diagram(2), i, v, f"arc index {i!r} is not an integer")
        for i in (1.0, True, "1")
        for v in (1, 2)
    ),
]


@pytest.mark.parametrize("d, i, v, message", STRETCH_FAULTS)
def test_stretch_faults_name_their_cause(d, i, v, message):
    with pytest.raises(StretchError) as excinfo:
        stretch_step(d, i, v)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("n", range(1, 6))
def test_stretch_legality_equals_governing_bound(n):
    """A stretch succeeds exactly when the governing bound allows the choice.

    Replays every member of S_n step by step, keeping the diagram and
    the bounds state in lockstep, and probes every candidate value at
    every step on both sides.
    """
    for s in generate_all(n):
        diagram = initial_diagram(n)
        state = GoverningState.initial(n)
        for i in range(1, n + 1):
            bound = state.bounds[state.cursor - 1]
            for probe in range(1, n + 3):
                try:
                    stretch_step(diagram, i, probe)
                    allowed = True
                except StretchError:
                    allowed = False
                assert allowed == (probe <= bound)
            v = s.entries[n - i]
            diagram = stretch_step(diagram, i, v)
            state = set_value(state, v)


def _replay(s):
    """The inverse construction one public, checked stretch_step at a time.

    Returns the final partition and every stage, the start included.
    """
    n = len(s.entries)
    diagram = ArcDiagram(2 * n + 1, [(2 * i - 1, 2 * i + 1) for i in range(1, n + 1)])
    assert initial_diagram(n) == diagram
    stages = [diagram]
    for i in range(1, n + 1):
        diagram = stretch_step(diagram, i, s.entries[n - i])
        assert ArcDiagram(diagram.point_count, diagram.arcs) == diagram
        stages.append(diagram)
    return from_arcs(diagram), tuple(stages)


# inverse and inverse_trace run their steps unchecked; the checked
# replay referees both.
@pytest.mark.parametrize("n", range(9))
def test_inverse_equals_stretch_step_replay(n):
    for s in generate_all(n):
        p = inverse(s)
        final, stages = _replay(s)
        assert p == final
        assert Partition(p.ground_size, p.blocks) == p
        assert inverse_trace(s).diagrams() == stages


@given(members(n_max=300))
@settings(max_examples=40, deadline=None)
def test_inverse_equals_replay_on_long_members(s):
    p = inverse(s)
    final, stages = _replay(s)
    assert p == final
    assert Partition(p.ground_size, p.blocks) == p
    assert inverse_trace(s).diagrams() == stages


def _random_member(n, seed):
    rng = random.Random(seed)
    state = GoverningState.initial(n)
    while not state.is_complete:
        limit = state.bounds[state.cursor - 1]
        state = set_value(state, rng.randint(1, limit))
    return state.sequence()


def test_inverse_builds_no_diagram(monkeypatch):
    made = []

    def count_init(self, *args, **kwargs):
        made.append("init")
        original_init(self, *args, **kwargs)

    def count_trusted(cls, *args):
        made.append("trusted")
        return original_trusted(*args)

    original_init = ArcDiagram.__init__
    original_trusted = ArcDiagram._trusted
    s = _random_member(2000, seed=2000)
    monkeypatch.setattr(ArcDiagram, "__init__", count_init)
    monkeypatch.setattr(ArcDiagram, "_trusted", classmethod(count_trusted))
    p = inverse(s)
    assert made == []
    assert forward(p) == s
    assert stretch_step(initial_diagram(2), 1, 2).arcs == ((1, 5), (2, 4))
    assert made == ["trusted", "trusted"]


# inverse reads the nesting of s and stretches no arc; the last stage
# of the paper's construction referees it.
def _last_stage(s):
    return from_arcs(inverse_trace(s).distinct_diagrams()[-1])


@pytest.mark.parametrize("n", range(10))
def test_inverse_equals_the_last_stage_of_the_trace(n):
    for s in generate_all(n):
        p = inverse(s)
        assert p == _last_stage(s)
        assert type(p.blocks) is tuple and all(type(b) is tuple for b in p.blocks)


@given(members(n_max=300))
@settings(max_examples=60, deadline=None)
def test_inverse_equals_the_last_stage_on_long_members(s):
    assert inverse(s) == _last_stage(s)


def test_inverse_is_linear_on_the_staircase():
    # The stretches cost s_1 + ... + s_n, about 2 * 10^8 steps here,
    # which took 10 s; the regions take 20,000.
    s = CatSeq(tuple(range(1, 20001)))
    started = time.perf_counter()
    p = inverse(s)
    assert time.perf_counter() - started < 1.0
    assert p.blocks[:2] == ((1, 40001), (2, 40000)) and len(p.blocks) == 20001
    assert forward(p) == s


def test_inverse_examples():
    assert format_partition(inverse(parse_sequence("1 2 3 1 1 6"))) == PART_13
    assert format_partition(inverse(CatSeq(()))) == "1"
    assert format_partition(inverse(parse_sequence(LONG_SEQ))) == LONG_PART


def test_seventeen_trace():
    trace = inverse_trace(parse_sequence(LONG_SEQ))
    diagrams = trace.diagrams()
    assert len(diagrams) == 9
    assert diagrams[5] == diagrams[6] == diagrams[7] == diagrams[8]
    assert len(trace.distinct_diagrams()) == 4
    assert format_partition(trace.final_partition()) == LONG_PART
    assert forward(trace.final_partition()).entries == (1, 1, 1, 4, 1, 2, 1, 4)


def test_trace_of_all_ones_never_moves():
    trace = inverse_trace(CatSeq((1, 1, 1, 1)))
    assert len(trace.distinct_diagrams()) == 1
    assert all(d == trace.start for d in trace.diagrams())


def test_trace_two_step_example():
    trace = inverse_trace(CatSeq((1, 2)))
    assert len(trace.steps) == 2
    assert trace.steps[0].arc_before != trace.steps[0].arc_after
    assert trace.steps[1].arc_before == trace.steps[1].arc_after
    assert len(trace.distinct_diagrams()) == 2


@pytest.mark.parametrize("n", range(7))
def test_step_is_noop_exactly_on_ones(n):
    for s in generate_all(n):
        trace = inverse_trace(s)
        previous = trace.start
        for i, step in enumerate(trace.steps, start=1):
            assert (step.diagram == previous) == (s.entries[n - i] == 1)
            previous = step.diagram


@pytest.mark.parametrize("n", range(7))
def test_intermediate_diagrams_stay_special_one_piece(n):
    for s in generate_all(n):
        for d in inverse_trace(s).diagrams():
            p = from_arcs(d)
            assert p.block_count == n + 1
            assert is_special(p)
            assert len(decompose_pieces(p)) == 1


@pytest.mark.parametrize("n", range(8))
def test_stages_are_the_diagram_changes(n):
    """distinct_diagrams, by the v > 1 rule, against comparing each diagram with the last."""
    for s in generate_all(n):
        trace = inverse_trace(s)
        reference = [trace.start]
        for step in trace.steps:
            if step.diagram != reference[-1]:
                reference.append(step.diagram)
        assert trace.distinct_diagrams() == tuple(reference)


def test_trace_shares_the_arcs_a_step_leaves_alone():
    """A trace holds n + (sum of the entries above 1) arc objects, not one per stage."""
    s = parse_sequence(LONG_SEQ)
    trace = inverse_trace(s)
    arcs = {id(a) for d in trace.diagrams() for a in d.arcs}
    assert len(arcs) == len(s.entries) + sum(v for v in s.entries if v > 1)


def test_trace_text_serialization():
    trace = inverse_trace(parse_sequence(LONG_SEQ))
    lines = trace.to_text().splitlines()
    assert len(lines) == 8
    assert lines[0] == (
        "step 1: (1,3)->(1,9); shifted (3,5)->(2,4), (5,7)->(4,6), (7,9)->(6,8); "
        "1,9,11,13,15,17|2,4,6,8|3|5|7|10|12|14|16"
    )
    assert lines[1].endswith("; shifted -; 1,9,11,13,15,17|2,4,6,8|3|5|7|10|12|14|16")


def test_trace_json_serialization():
    trace = inverse_trace(CatSeq((1, 2)))
    records = json.loads(trace.to_json())
    assert [r["step"] for r in records] == [1, 2]
    assert records[0]["before"] == [1, 3]
    assert records[0]["after"] == [1, 5]
    assert records[0]["shifted"] == [[[3, 5], [2, 4]]]
    assert records[-1]["partition"] == format_partition(inverse(CatSeq((1, 2))))


@pytest.mark.parametrize("n", range(8))
def test_round_trip_partition_side(n):
    for p in enumerate_special(n):
        assert inverse(forward(p)) == p


@pytest.mark.parametrize("n", range(8))
def test_round_trip_sequence_side(n):
    for s in generate_all(n):
        assert forward(inverse(s)) == s


def test_inverse_image_equals_enumeration():
    """The inverse of S_n and the independent enumerator agree as sets."""
    for n in range(7):
        via_inverse = {format_partition(inverse(s)) for s in generate_all(n)}
        direct = {format_partition(p) for p in enumerate_special(n)}
        assert via_inverse == direct


@given(members())
@settings(max_examples=150, deadline=None)
def test_round_trip_beyond_exhaustive_range(s):
    assert forward(inverse(s)) == s
