"""Partition parsing, validation, crossing detection, pieces, arcs."""

import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncpseq.partitions
from ncpseq import (
    ArcDiagram,
    ParseError,
    Partition,
    ValidationError,
    arc_nesting_depths,
    decompose_pieces,
    enumerate_special,
    format_partition,
    from_arcs,
    is_noncrossing,
    is_semi_special,
    is_special,
    parse_partition,
    special_violation,
    subpartition,
    to_arcs,
)

from bruteforce import all_set_partitions, crossing_exists, has_adjacent

PART_13 = "1,13|2,4,6,12|3|5|7,11|8,10|9"


def partitions_up_to(m_max):
    for m in range(1, m_max + 1):
        for blocks in all_set_partitions(m):
            yield Partition(m, blocks)


@st.composite
def random_partitions(draw, m_max=10):
    """Arbitrary set partitions, crossing or not."""
    m = draw(st.integers(1, m_max))
    blocks = [[1]]
    for e in range(2, m + 1):
        where = draw(st.integers(0, len(blocks)))
        if where == len(blocks):
            blocks.append([e])
        else:
            blocks[where].append(e)
    return Partition(m, tuple(tuple(b) for b in blocks))


def test_parse_canonical_round_trip():
    for text in ("1,5|2,4|3", "1", PART_13, "1,3|2", "1,3,5|2|4"):
        assert format_partition(parse_partition(text)) == text


def test_parse_tolerates_spaces():
    assert format_partition(parse_partition(" 1 , 5 | 2 ,4 |3 ")) == "1,5|2,4|3"


def test_parse_normalizes_block_order():
    assert format_partition(parse_partition("3|2,4|1,5")) == "1,5|2,4|3"
    assert format_partition(parse_partition("1,13|9|8,10|7,11|5|3|2,4,6,12")) == PART_13


@pytest.mark.parametrize(
    "text",
    ["", "1,,3|2", "1|x", "0|1", "1 2", "-1|2", "1.5", "1,3|\u00b2", "\u0661,\u0662", "1|\uff13"],
)
def test_parse_rejects_bad_grammar(text):
    with pytest.raises(ParseError):
        parse_partition(text)


def test_parse_rejects_overlong_integers():
    # int() refuses more than 4300 digits on current Pythons; where it
    # does not, the number parses and the membership check rejects it.
    with pytest.raises((ParseError, ValidationError)):
        parse_partition("1|" + "9" * 5000)


@given(st.text())
@settings(max_examples=300)
def test_parse_arbitrary_text_raises_only_library_errors(text):
    try:
        parse_partition(text)
    except (ParseError, ValidationError):
        pass


def test_parse_rejects_non_partitions():
    with pytest.raises(ValidationError, match="duplicate element 2"):
        parse_partition("1,3|2,2")
    # Of several faults, the first in canonical order is named.
    with pytest.raises(ValidationError, match="duplicate element 1"):
        parse_partition("2,2|1,1")
    with pytest.raises(ValidationError, match="element 2 missing"):
        parse_partition("1,3")
    # The report must not build the set of all of 1..max element.
    with pytest.raises(ValidationError, match="element 2 missing"):
        parse_partition("1|999999999999")


def _parse_per_token(text):
    """parse_partition one token at a time, through the checked constructor.

    The reference for the one-step reader: the same value, or the same
    error class and message.
    """
    blocks = []
    for chunk in text.split("|"):
        elems = []
        for token in chunk.split(","):
            token = token.strip()
            if not (token.isascii() and token.isdigit()):
                raise ParseError(f"expected a positive integer, got {token!r}")
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"integer of {len(token)} digits is too long") from None
            if value == 0:
                raise ParseError("elements are 1-based, got 0")
            elems.append(value)
        blocks.append(tuple(elems))
    return Partition(max(max(b) for b in blocks), tuple(blocks))


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


# Characters the one-step reader takes, look-alikes it must refuse (a
# sign, an underscore, a superscript, Arabic-Indic and fullwidth
# digits), and digit runs longer than int() converts.
_TEXT_PIECES = st.one_of(
    st.sampled_from("0123456789,| \t+_\u00b2\u0662\uff10"),
    st.integers(4301, 4400).map(lambda k: "7" * k),
)


# Ways to write an element: as is, or in a form int() reads and the
# grammar does not (a sign, an underscore, non-ASCII digits), or with a
# leading zero, which both read.
_SPELLINGS = (
    str, str, str, str,
    lambda x: "+" + str(x),
    lambda x: f"0_{x}",
    lambda x: str(x).replace("1", "\u0661").replace("0", "\uff10"),
    lambda x: "0" + str(x),
)


@st.composite
def partition_texts(draw):
    """A set partition in any order with blanks, maybe one element off or misspelled."""
    p = draw(random_partitions(m_max=12))
    blocks = [draw(st.permutations(b)) for b in draw(st.permutations(p.blocks))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(blocks) - 1))
        j = draw(st.integers(0, len(blocks[i]) - 1))
        blocks[i][j] = draw(st.integers(0, p.ground_size + 2))
    blank = st.sampled_from(("", "", " ", "\t", " \t"))
    spell = st.sampled_from(_SPELLINGS)
    return "|".join(
        ",".join(draw(blank) + draw(spell)(x) + draw(blank) for x in b) for b in blocks
    )


@given(st.one_of(st.lists(_TEXT_PIECES, max_size=30).map("".join), partition_texts()))
@example("+1")
@example("1,0_3|2")
@example("1,3|2,2")
@example("0|1")
@settings(max_examples=300)
def test_parse_equals_the_per_token_reference(text):
    got, want = _outcome(parse_partition, text), _outcome(_parse_per_token, text)
    assert got == want
    if isinstance(got, Partition):
        assert type(got.blocks) is tuple
        assert all(type(b) is tuple and all(type(x) is int for x in b) for b in got.blocks)


@pytest.mark.parametrize("text", ["1,5|2,4|3", "3 | 4,2|5,1", PART_13, "1"])
def test_parse_reads_partition_text_in_one_step(text, monkeypatch):
    def refuse(*args):
        raise AssertionError("read token by token, or checked again")

    want = _parse_per_token(text)
    monkeypatch.setattr(ncpseq.partitions, "_read_blocks", refuse)
    monkeypatch.setattr(Partition, "__init__", refuse)
    assert parse_partition(text) == want


@pytest.mark.parametrize(
    "text, missing", [("999999999999", 1), ("1,999999999999", 2), ("1|999999999999", 2)]
)
def test_parse_sizes_nothing_by_the_largest_element(text, missing):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"element {missing} missing"):
            parse_partition(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_partition_constructor_validates():
    with pytest.raises(ValidationError):
        Partition(3, ((1, 2),))
    with pytest.raises(ValidationError):
        Partition(2, ((1, 2, 3),))
    with pytest.raises(ValidationError):
        Partition(0, ())


def test_partition_keeps_canonical_blocks_and_checks_them():
    blocks = ((1, 5), (2, 4), (3,))
    assert Partition(5, blocks).blocks == blocks
    assert Partition(5, [(5, 1), (3,), (4, 2)]).blocks == blocks
    assert Partition(5, ((2, 4), (1, 5), (3,))).blocks == blocks
    with pytest.raises(ValidationError, match="element 3 missing"):
        Partition(5, ((1, 5), (2, 4)))
    with pytest.raises(ValidationError, match="outside"):
        Partition(4, ((1, 5), (2, 4), (3,)))
    with pytest.raises(ValidationError, match="duplicate"):
        Partition(3, ((1, 3), (2, 3)))
    with pytest.raises(ValidationError, match="not an integer"):
        Partition(1, (("1",),))
    with pytest.raises(ValidationError, match="not an integer"):
        Partition(2, ((1,), (2.0,)))


@pytest.mark.parametrize(
    "m, blocks, message",
    [
        (1, (), "a partition needs at least one block"),
        (3, ((1, 2, 3), ()), "empty block"),
        # Named before the blocks are sorted, which could not order them.
        (3, ((1, "a"), (2,), (3,)), "element 'a' is not an integer"),
    ],
    ids=repr,
)
def test_partition_constructor_names_its_fault(m, blocks, message):
    with pytest.raises(ValidationError) as raised:
        Partition(m, blocks)
    assert str(raised.value) == message


def test_str_matches_format():
    p = parse_partition("1,5|2,4|3")
    assert str(p) == "1,5|2,4|3"
    assert p.block_count == 3
    assert p.ground_size == 5


def test_noncrossing_examples():
    assert is_noncrossing(parse_partition("1,5|2,4|3"))
    assert not is_noncrossing(parse_partition("1,3|2,4|5"))
    assert is_noncrossing(parse_partition("1|2|3|4"))


def test_noncrossing_matches_bruteforce_exhaustively():
    for p in partitions_up_to(7):
        assert is_noncrossing(p) == (not crossing_exists(p.blocks))


@given(random_partitions())
@settings(max_examples=300)
def test_noncrossing_matches_bruteforce_random(p):
    assert is_noncrossing(p) == (not crossing_exists(p.blocks))


def test_semi_special_examples():
    assert is_semi_special(parse_partition("1|2"))
    assert not is_semi_special(parse_partition("1,2"))
    assert not is_semi_special(parse_partition("1,3|2,4|5"))


@given(random_partitions())
@settings(max_examples=300)
def test_semi_special_matches_definition(p):
    want = not crossing_exists(p.blocks) and not has_adjacent(p.blocks)
    assert is_semi_special(p) == want


def _special_reference(p):
    """The special conditions checked one by one, in definition order."""
    if p.ground_size % 2 == 0:
        return f"even ground size {p.ground_size}"
    want = (p.ground_size + 1) // 2
    if len(p.blocks) != want:
        return f"{len(p.blocks)} blocks where {want} are required"
    if crossing_exists(p.blocks):
        return "crossing blocks"
    for b in p.blocks:
        for x, y in zip(b, b[1:]):
            if y == x + 1:
                return f"consecutive integers {x},{y} in one block"
    return None


def test_one_scan_equals_the_definitions_exhaustively():
    for p in partitions_up_to(8):
        want = not crossing_exists(p.blocks) and not has_adjacent(p.blocks)
        assert is_semi_special(p) == want
        assert special_violation(p) == _special_reference(p)


def test_special_examples():
    assert is_special(parse_partition(PART_13))
    assert is_special(parse_partition("1"))
    assert not is_special(parse_partition("1,3,5|2,4"))


def test_special_violation_messages():
    assert special_violation(parse_partition(PART_13)) is None
    assert "even ground size" in special_violation(parse_partition("1,3|2,4"))
    assert "2 blocks where 3" in special_violation(parse_partition("1,3,5|2,4"))
    assert "crossing" in special_violation(parse_partition("1,3|2,4|5"))
    assert special_violation(parse_partition("1,4,5|2|3")) == (
        "consecutive integers 4,5 in one block"
    )


@pytest.mark.parametrize(
    "text", [PART_13, "1", "1,3|2,4", "1,3,5|2,4", "1,3|2,4|5", "1,4,5|2|3"]
)
def test_special_violation_is_computed_once_per_object(text, monkeypatch):
    scans = []
    real = ncpseq.partitions._semi_special_violation
    monkeypatch.setattr(
        ncpseq.partitions, "_semi_special_violation", lambda p: scans.append(p) or real(p)
    )
    p = parse_partition(text)
    first = special_violation(p)
    reached = len(scans)
    assert reached <= 1
    assert special_violation(p) == first
    assert is_special(p) == (first is None)
    assert len(scans) == reached
    # The stored verdict is not a field: a fresh, unchecked object is
    # equal, hashes alike, prints alike, and reaches the same verdict.
    fresh = parse_partition(text)
    assert (fresh, hash(fresh), repr(fresh)) == (p, hash(p), repr(p))
    assert special_violation(fresh) == first


@pytest.mark.parametrize("text", ["1,5|2,4|3", "1,3|2,4"])
def test_the_verdict_lives_in_a_slot_and_is_computed_once(text, monkeypatch):
    checks = []
    real = ncpseq.partitions._special_checks
    monkeypatch.setattr(
        ncpseq.partitions, "_special_checks", lambda p: checks.append(p) or real(p)
    )
    p = parse_partition(text)
    before = (hash(p), repr(p))
    verdict = special_violation(p)
    assert [special_violation(p) for _ in range(3)] == [verdict] * 3
    assert checks == [p]
    assert not hasattr(p, "__dict__")
    assert (hash(p), repr(p)) == before
    with pytest.raises(AttributeError, match="cannot assign to field '_special_verdict'"):
        p._special_verdict = "forged"
    with pytest.raises(AttributeError, match="cannot delete field '_special_verdict'"):
        del p._special_verdict
    assert special_violation(p) == verdict and checks == [p]


def test_the_first_check_raises_no_exception():
    raised = []

    def trace(frame, event, arg):
        if event == "exception":
            raised.append((frame.f_code.co_name, arg[0]))
        return trace

    p = parse_partition("1,5|2,4|3")
    sys.settrace(trace)
    try:
        special_violation(p)
    finally:
        sys.settrace(None)
    assert raised == []


def test_pieces_examples():
    pieces = decompose_pieces(parse_partition("1,3|2|4|5"))
    assert [list(piece) for piece in pieces] == [[(1, 3), (2,)], [(4,)], [(5,)]]
    supports = [(piece[0][0], max(b[-1] for b in piece)) for piece in pieces]
    assert supports == [(1, 3), (4, 4), (5, 5)]
    assert len(decompose_pieces(parse_partition(PART_13))) == 1
    assert len(decompose_pieces(parse_partition("1"))) == 1


def test_pieces_reject_crossing():
    with pytest.raises(ValidationError):
        decompose_pieces(parse_partition("1,3|2,4|5"))


def test_piece_supports_tile_the_ground():
    """Successive piece supports are contiguous intervals covering [m]."""
    for p in partitions_up_to(8):
        if not is_noncrossing(p):
            continue
        pieces = decompose_pieces(p)
        expected_next = 1
        covered = []
        for piece in pieces:
            elems = sorted(x for b in piece for x in b)
            assert elems[0] == expected_next
            assert elems == list(range(elems[0], elems[-1] + 1))
            covered.extend(elems)
            expected_next = elems[-1] + 1
        assert covered == list(range(1, p.ground_size + 1))


def test_subpartition_examples():
    part13 = parse_partition(PART_13)
    inner = subpartition(part13, 2, 3)
    assert format_partition(inner) == "1,5|2,4|3"
    assert format_partition(subpartition(part13, 2, 1)) == "1"
    assert format_partition(subpartition(part13, 5, 1)) == "1,3|2"


def test_subpartitions_pass_the_validating_constructor():
    for n in range(6):
        for p in enumerate_special(n):
            for bi, block in enumerate(p.blocks, start=1):
                for gi in range(1, len(block)):
                    inner = subpartition(p, bi, gi)
                    assert Partition(inner.ground_size, inner.blocks) == inner


def test_subpartition_rejects_bad_indices():
    part13 = parse_partition(PART_13)
    with pytest.raises(ValidationError):
        subpartition(part13, 3, 1)
    with pytest.raises(ValidationError):
        subpartition(part13, 2, 4)
    with pytest.raises(ValidationError):
        subpartition(parse_partition("1,3|2,4|5"), 1, 1)


@pytest.mark.parametrize(
    "block_index, gap_index, message",
    [
        (0, 1, "block index 0 out of range"),
        (4, 1, "block index 4 out of range"),
        (True, 1, "block index True is not an integer"),
        ("1", 1, "block index '1' is not an integer"),
        (1, 1.5, "gap index 1.5 is not an integer"),
        (1, True, "gap index True is not an integer"),
    ],
    ids=repr,
)
def test_subpartition_names_a_bad_index(block_index, gap_index, message):
    with pytest.raises(ValidationError) as raised:
        subpartition(parse_partition("1,5|2,4|3"), block_index, gap_index)
    assert str(raised.value) == message


def test_to_arcs_examples():
    part13 = parse_partition(PART_13)
    assert set(to_arcs(part13).arcs) == {(1, 13), (2, 4), (4, 6), (6, 12), (7, 11), (8, 10)}
    assert to_arcs(parse_partition("1|2|3")).arcs == ()
    assert to_arcs(parse_partition("1,3,5|2|4")).arcs == ((1, 3), (3, 5))


def test_to_arcs_joins_the_consecutive_pairs_of_each_block():
    for p in partitions_up_to(7):
        if is_noncrossing(p):
            pairs = [(x, y) for b in p.blocks for x, y in zip(b, b[1:])]
            assert to_arcs(p).arcs == tuple(sorted(pairs))


def test_to_arcs_rejects_crossing():
    with pytest.raises(ValidationError, match="crossing"):
        to_arcs(parse_partition("1,3|2,4|5"))


def test_from_arcs_examples():
    assert format_partition(from_arcs(ArcDiagram(5, ((1, 5), (2, 4))))) == "1,5|2,4|3"
    assert format_partition(from_arcs(ArcDiagram(3, ()))) == "1|2|3"
    seventeen = ArcDiagram(
        17, ((1, 9), (2, 4), (4, 8), (5, 7), (9, 17), (10, 12), (12, 14), (14, 16))
    )
    assert (
        format_partition(from_arcs(seventeen))
        == "1,9,17|2,4,8|3|5,7|6|10,12,14,16|11|13|15"
    )


# Each fault with the exact text the checked constructor gives it.
ARC_FAULTS = [
    (0, (), "point count must be a positive integer"),
    (True, (), "point count must be a positive integer"),
    (3, ((1, 2, 3),), "arc (1, 2, 3) is not a pair"),
    (3, ((2, 4),), "arc (2,4) outside 1 <= left < right <= 3"),
    (3, ((2, 2),), "arc (2,2) outside 1 <= left < right <= 3"),
    (3, ((True, 3),), "arc (True,3) outside 1 <= left < right <= 3"),
    (3, ((1, True),), "arc (1,True) outside 1 <= left < right <= 3"),
    # Named before the arcs are sorted, which could not order them.
    (3, ((2, 1), ("a", 3)), "arc (2,1) outside 1 <= left < right <= 3"),
    (5, ((1, 3), (1, 5)), "two arcs share left endpoint 1"),
    (5, ((1, 4), (3, 4)), "two arcs share right endpoint 4"),
    (4, ((1, 3), (2, 4)), "crossing arcs"),
    (6, ((1, 4), (2, 3), (3, 6)), "crossing arcs"),
]


def test_arc_diagram_invariants():
    for m, arcs, message in ARC_FAULTS:
        with pytest.raises(ValidationError) as excinfo:
            ArcDiagram(m, arcs)
        assert str(excinfo.value) == message

    class Point(int):
        pass

    # Arc ends follow the int rule of partition elements.
    assert ArcDiagram(3, ((Point(1), 3),)).arcs == ((1, 3),)


def test_arc_check_sizes_nothing_by_the_point_count():
    tracemalloc.start()
    try:
        d = ArcDiagram(10**7, ((1, 3),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.arcs == ((1, 3),)
    assert peak < 1_000_000


@st.composite
def arc_lists(draw):
    """Point count and arcs (l, r) with l <= r, some ends off 1..m."""
    m = draw(st.integers(1, 10))
    point = st.integers(0, m + 1)
    return m, draw(st.lists(st.tuples(point, point).map(sorted).map(tuple), max_size=5))


@given(arc_lists())
@example((4, [(1, 3), (2, 4)]))
@example((6, [(1, 4), (2, 3), (3, 6)]))
@example((6, [(1, 3), (3, 5), (2, 6)]))
def test_crossing_arcs_equal_the_brute_force(case):
    m, arcs = case
    lefts = [l for l, _ in arcs]
    rights = [r for _, r in arcs]
    checked = (
        all(1 <= l < r <= m for l, r in arcs)
        and len(set(lefts)) == len(lefts)
        and len(set(rights)) == len(rights)
    )
    crosses = checked and any(
        l1 < l2 < r1 < r2 for l1, r1 in arcs for l2, r2 in arcs
    )
    try:
        ArcDiagram(m, arcs)
    except ValidationError as exc:
        assert (str(exc) == "crossing arcs") == crosses
    else:
        assert checked and not crosses


def test_arcs_round_trip_over_noncrossing_partitions():
    count = 0
    for p in partitions_up_to(7):
        if is_noncrossing(p):
            assert from_arcs(to_arcs(p)) == p
            count += 1
    assert count > 100


def test_arcs_pass_the_validating_constructors():
    for p in partitions_up_to(7):
        if is_noncrossing(p):
            d = to_arcs(p)
            assert ArcDiagram(d.point_count, d.arcs) == d
            q = from_arcs(d)
            assert Partition(q.ground_size, q.blocks) == q


def test_arc_count_is_ground_minus_blocks():
    for p in partitions_up_to(7):
        if is_noncrossing(p):
            d = to_arcs(p)
            assert len(d.arcs) == p.ground_size - p.block_count


def test_nesting_depths_on_deep_example():
    depths = arc_nesting_depths(to_arcs(parse_partition(PART_13)))
    assert depths[(1, 13)] == 0
    assert depths[(6, 12)] == 1
    assert depths[(7, 11)] == 2
    assert depths[(8, 10)] == 3
    # chained arcs share their containers, so they sit at the same depth
    assert depths[(2, 4)] == depths[(4, 6)] == 1
    assert max(depths.values()) + 1 == 4
