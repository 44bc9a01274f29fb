"""Sequence membership, the governing-bounds machinery, generation."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpseq import (
    CatSeq,
    GoverningState,
    ParseError,
    ValidationError,
    catalan,
    count_all,
    format_sequence,
    generate_all,
    parse_sequence,
    sequence_violation,
    set_value,
    validate_sequence,
)
from bruteforce import (
    bounds_from_scratch,
    catalan_reference,
    scan_violation,
    sequences_by_filter,
)


def test_validate_examples():
    assert validate_sequence((1, 2, 3, 1, 1, 6))
    assert not validate_sequence((2,))
    assert not validate_sequence((1, 2, 2))


def test_violation_messages():
    assert sequence_violation((1, 2, 3, 1, 1, 6)) is None
    assert sequence_violation((2,)) == "s_1 = 2 outside 1..1"
    assert sequence_violation((1, 2, 2)) == "s_3 = 2 forces s_2 <= 1, found 2"
    assert sequence_violation(()) is None
    assert sequence_violation((1, True)) == "entry 2 is not an integer"
    assert sequence_violation((1, 2, 1, 2, 2)) == "s_5 = 2 forces s_4 <= 1, found 2"
    # Bad values are reported before broken nesting, wherever they are.
    assert sequence_violation((1, 2, 2, 0)) == "s_4 = 0 outside 1..4"

    class Index(int):
        pass

    assert sequence_violation((Index(1), Index(2))) is None


def test_catseq_rejects_invalid():
    with pytest.raises(ValidationError):
        CatSeq((1, 3))
    CatSeq(())
    assert len(CatSeq((1, 1, 3))) == 3


def test_parse_and_format():
    assert parse_sequence("1 2 3 1 1 6").entries == (1, 2, 3, 1, 1, 6)
    assert parse_sequence("").entries == ()
    assert parse_sequence("  1   1  ").entries == (1, 1)
    assert format_sequence(CatSeq((1, 2))) == "1 2"
    assert format_sequence(CatSeq(())) == ""
    assert str(CatSeq((1, 2))) == "1 2"


@pytest.mark.parametrize(
    "text", ["a", "1 x", "-1", "1.5 2", "1 \u00b2", "1 2 \uff13", "\u0661"]
)
def test_parse_rejects_bad_tokens(text):
    with pytest.raises(ParseError):
        parse_sequence(text)


def test_parse_rejects_overlong_integers():
    # int() refuses more than 4300 digits on current Pythons; where it
    # does not, the number parses and the membership check rejects it.
    with pytest.raises((ParseError, ValidationError)):
        parse_sequence("1 " + "2" * 5000)


@given(st.text())
@settings(max_examples=300)
def test_parse_arbitrary_text_raises_only_library_errors(text):
    try:
        parse_sequence(text)
    except (ParseError, ValidationError):
        pass


def _parse_per_token(text):
    """parse_sequence one token at a time: the one-step reader's reference."""
    entries = []
    for token in text.split():
        if not (token.isascii() and token.isdigit()):
            raise ParseError(f"expected a positive integer, got {token!r}")
        try:
            entries.append(int(token))
        except ValueError:
            raise ParseError(f"integer of {len(token)} digits is too long") from None
    return CatSeq(tuple(entries))


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


# Characters the one-step reader takes, look-alikes it must refuse, the
# separators of partition text, and digit runs longer than int() converts.
_TEXT_PIECES = st.one_of(
    st.sampled_from("0123456789,| \t+_\u00b2\u0662\uff10"),
    st.integers(4301, 4400).map(lambda k: "3" * k),
)


# Ways to write an entry: as is, or in a form int() reads and the
# grammar does not (a sign, an underscore, non-ASCII digits), or with a
# leading zero, which both read.
_SPELLINGS = (
    str, str, str, str,
    lambda v: "+" + str(v),
    lambda v: f"0_{v}",
    lambda v: str(v).replace("1", "\u0661").replace("0", "\uff10"),
    lambda v: "0" + str(v),
)


@st.composite
def sequence_texts(draw):
    """A member of S_n written with blanks, maybe one entry off or misspelled."""
    n = draw(st.integers(0, 12))
    state = GoverningState.initial(n)
    while not state.is_complete:
        state = set_value(state, draw(st.integers(1, state.bounds[state.cursor - 1])))
    entries = list(state.values)
    if entries and draw(st.booleans()):
        entries[draw(st.integers(0, n - 1))] = draw(st.integers(0, n + 1))
    blank = st.sampled_from((" ", "  ", "\t", " \t"))
    spell = st.sampled_from(_SPELLINGS)
    return draw(st.sampled_from(("", " "))) + "".join(
        draw(spell)(v) + draw(blank) for v in entries
    )


@given(st.one_of(st.lists(_TEXT_PIECES, max_size=30).map("".join), sequence_texts()))
@example("+1")
@example("1 0_2")
@example("1 \t2 " + "3" * 4301)
@settings(max_examples=300)
def test_parse_equals_the_per_token_reference(text):
    got = _outcome(parse_sequence, text)
    assert got == _outcome(_parse_per_token, text)
    if isinstance(got, CatSeq):
        assert type(got.entries) is tuple and all(type(v) is int for v in got.entries)


def test_parse_surfaces_condition_failures():
    with pytest.raises(ValidationError):
        parse_sequence("2 1")


@given(st.lists(st.integers(1, 8), max_size=6))
@settings(max_examples=300)
def test_validate_matches_bruteforce(entries):
    members = set(sequences_by_filter(len(entries)))
    assert validate_sequence(entries) == (tuple(entries) in members)


@pytest.mark.parametrize("n", range(8))
def test_violation_equals_the_full_scan_on_every_small_tuple(n):
    # Up to n = 5 every value 0..n+1 everywhere; at n = 6, 7 the values
    # 0..i+1 at position i, so each entry is in range or just outside.
    if n <= 5:
        tuples = product(range(n + 2), repeat=n)
    else:
        tuples = product(*(range(i + 2) for i in range(1, n + 1)))
    for t in tuples:
        assert sequence_violation(t) == scan_violation(t)


@given(
    st.lists(
        st.one_of(st.integers(-3, 14), st.booleans(), st.sampled_from([1.0, "1"])),
        max_size=12,
    )
)
@settings(max_examples=500)
def test_violation_equals_the_full_scan_on_arbitrary_lists(entries):
    assert sequence_violation(entries) == scan_violation(entries)


def test_violation_of_a_long_member_and_a_late_near_miss():
    # A member of S_800 chosen right to left within the governing
    # bounds, after s_800 = 800 and s_799 = 2.
    rng = random.Random(5)
    state = set_value(set_value(GoverningState.initial(800), 800), 2)
    while not state.is_complete:
        state = set_value(state, rng.randint(1, state.bounds[state.cursor - 1]))
    member = state.values
    assert sequence_violation(member) is None
    assert scan_violation(member) is None
    # s_799 = 2 covers 798..799, so s_800 = 2 starts inside it: (ii)
    # breaks at the last entry and nowhere before.
    near_miss = member[:799] + (2,)
    assert sequence_violation(near_miss[:799]) is None
    expected = "s_800 = 2 forces s_799 <= 1, found 2"
    assert sequence_violation(near_miss) == scan_violation(near_miss) == expected


class CountingList(list):
    """A list that counts the entries read from it, by index or by iteration."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for v in super().__iter__():
            self.reads += 1
            yield v


def test_violation_reads_a_near_miss_in_linear_time():
    # (ii) breaks only at the last entry, which the pass reaches after
    # reading every entry once; scanning s_i - 1 earlier entries for
    # each i would read about n^2 / 2.
    n = 2000
    near_miss = CountingList([*range(1, n), 2])
    assert sequence_violation(near_miss) == f"s_{n} = 2 forces s_{n - 1} <= 1, found {n - 1}"
    assert near_miss.reads <= 2 * n


def test_violation_names_a_fault_after_an_int_subclass():
    class Index(int):
        pass

    # Only the type of entry 3 stops the one pass; (ii) still breaks there.
    assert sequence_violation((1, 2, Index(2))) == "s_3 = 2 forces s_2 <= 1, found 2"
    assert sequence_violation((Index(1), 2, 2, Index(0))) == "s_4 = 0 outside 1..4"


@pytest.mark.parametrize("n", range(8))
def test_generate_all_matches_filter(n):
    got = [s.entries for s in generate_all(n)]
    assert len(got) == catalan_reference(n)
    assert got == sorted(sequences_by_filter(n))
    assert count_all(n) == len(got)


def test_count_all_is_catalan_far_past_any_listing():
    for n in [*range(201), 899]:
        assert count_all(n) == catalan(n)


def test_generate_all_small_cases():
    assert [s.entries for s in generate_all(0)] == [()]
    assert sorted(s.entries for s in generate_all(2)) == [(1, 1), (1, 2)]
    sixes = [s.entries for s in generate_all(6)]
    assert len(sixes) == 132
    assert (1, 2, 3, 1, 1, 6) in sixes


def test_generate_all_order_matches_state_machine():
    """The kernel walk lists in lex order the members the state machinery builds."""

    def reference(n):
        out = []

        def rec(state):
            if state.is_complete:
                out.append(state.sequence().entries)
                return
            for m in range(1, state.bounds[state.cursor - 1] + 1):
                rec(set_value(state, m))

        rec(GoverningState.initial(n))
        return out

    for n in range(7):
        assert [s.entries for s in generate_all(n)] == sorted(reference(n))


def test_initial_state_shape():
    st0 = GoverningState.initial(8)
    assert st0.bounds == (1, 2, 3, 4, 5, 6, 7, 8)
    assert st0.values == (1,) * 8
    assert not st0.is_complete
    with pytest.raises(ValidationError):
        st0.sequence()


def test_bounds_after_first_choices():
    st1 = set_value(GoverningState.initial(8), 4)
    assert st1.bounds == (1, 2, 3, 4, 1, 2, 3, 4)
    st2 = set_value(st1, 1)
    assert st2.bounds == (1, 2, 3, 4, 1, 2, 1, 4)


def test_replay_of_worked_choice_run():
    """Choices (4,1,2,1,4) at n=8 reproduce the worked T and g rows."""
    state = GoverningState.initial(8)
    seen = []
    for m in (4, 1, 2, 1, 4):
        state = set_value(state, m)
        seen.append((state.values, state.bounds))
    assert seen[0] == ((1, 1, 1, 1, 1, 1, 1, 4), (1, 2, 3, 4, 1, 2, 3, 4))
    assert seen[1] == ((1, 1, 1, 1, 1, 1, 1, 4), (1, 2, 3, 4, 1, 2, 1, 4))
    assert seen[2] == ((1, 1, 1, 1, 1, 2, 1, 4), (1, 2, 3, 4, 1, 2, 1, 4))
    assert seen[3] == ((1, 1, 1, 1, 1, 2, 1, 4), (1, 2, 3, 4, 1, 2, 1, 4))
    assert seen[4] == ((1, 1, 1, 4, 1, 2, 1, 4), (1, 2, 3, 4, 1, 2, 1, 4))


def test_choice_above_bound_rejected():
    state = set_value(GoverningState.initial(8), 4)
    with pytest.raises(ValidationError, match="outside 1..3 at position 7"):
        set_value(state, 4)
    with pytest.raises(ValidationError):
        set_value(state, 0)


def test_all_ones_run():
    state = GoverningState.initial(5)
    for _ in range(5):
        state = set_value(state, 1)
    assert state.is_complete
    assert state.sequence().entries == (1, 1, 1, 1, 1)


def test_completed_state_refuses_more():
    state = GoverningState.initial(0)
    assert state.is_complete
    with pytest.raises(ValidationError):
        set_value(state, 1)


def test_a_replay_checks_only_its_initial_state(monkeypatch):
    # set_value builds each next state from the bounds it has just
    # derived, so only initial runs the checking constructor.
    checked = []
    init = GoverningState.__init__

    def counted(self, *values):
        checked.append(values)
        init(self, *values)

    monkeypatch.setattr(GoverningState, "__init__", counted)
    state = GoverningState.initial(8)
    for m in (4, 1, 2, 1, 4, 1, 1, 1):
        state = set_value(state, m)
    assert state.sequence().entries == (1, 1, 1, 4, 1, 2, 1, 4)
    assert len(checked) == 1


@pytest.mark.parametrize(
    "values, bounds, cursor, message",
    [
        ((1,), (1, 2), 1, "state lengths and cursor do not agree"),
        ((2,), (1,), 1, "unset positions must hold the placeholder 1"),
    ],
    ids=repr,
)
def test_governing_state_shape_is_checked(values, bounds, cursor, message):
    with pytest.raises(ValidationError) as raised:
        GoverningState(values, bounds, cursor)
    assert str(raised.value) == message


@given(st.integers(0, 10), st.data())
@settings(max_examples=200)
def test_incremental_bounds_match_scratch_formula(n, data):
    state = GoverningState.initial(n)
    assert bounds_from_scratch(state.values, state.cursor) == state.bounds
    while not state.is_complete:
        limit = state.bounds[state.cursor - 1]
        state = set_value(state, data.draw(st.integers(1, limit)))
        assert bounds_from_scratch(state.values, state.cursor) == state.bounds


@pytest.mark.parametrize("cursor", [True, 1.5, "1"], ids=repr)
def test_governing_state_cursor_is_an_int(cursor):
    with pytest.raises(ValidationError) as raised:
        GoverningState((1,), (1,), cursor)
    assert str(raised.value) == f"cursor {cursor!r} is not an integer"


@pytest.mark.parametrize(
    "values, bounds, cursor, message",
    [
        ((1,), ("x",), 1, "bound 'x' is not an integer"),
        ((1,), (False,), 1, "bound False is not an integer"),
        ((1.5,), (2,), 0, "value 1.5 is not an integer"),
        ((True,), (1,), 1, "value True is not an integer"),
        ((1, "1"), (1, 1), 0, "value '1' is not an integer"),
    ],
    ids=repr,
)
def test_governing_state_entries_are_ints(values, bounds, cursor, message):
    with pytest.raises(ValidationError) as raised:
        GoverningState(values, bounds, cursor)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "values, message",
    [((1, "a"), "value 'a' is not an integer"), ((True, 1), "value True is not an integer")],
    ids=repr,
)
def test_bounds_from_scratch_takes_only_int_values(values, message):
    with pytest.raises(ValueError) as raised:
        bounds_from_scratch(values, 0)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "cursor, message",
    [
        (5, "cursor 5 is outside 0..2"),
        (-1, "cursor -1 is outside 0..2"),
        (1.5, "cursor 1.5 is not an integer"),
        (True, "cursor True is not an integer"),
    ],
    ids=repr,
)
def test_bounds_from_scratch_takes_only_a_cursor_of_its_state(cursor, message):
    assert [bounds_from_scratch((1, 1), c) for c in (0, 1, 2)] == [(1, 1), (1, 1), (1, 2)]
    with pytest.raises(ValueError) as raised:
        bounds_from_scratch((1, 1), cursor)
    assert str(raised.value) == message


@given(st.integers(0, 10), st.data())
@settings(max_examples=200)
def test_any_reachable_state_completes_validly(n, data):
    """Greedy maximal choices from any reachable state end in a member of S_n."""
    state = GoverningState.initial(n)
    steps = data.draw(st.integers(0, n))
    for _ in range(steps):
        limit = state.bounds[state.cursor - 1]
        state = set_value(state, data.draw(st.integers(1, limit)))
    while not state.is_complete:
        state = set_value(state, state.bounds[state.cursor - 1])
    assert validate_sequence(state.sequence().entries)


@pytest.mark.parametrize("n", range(11))
def test_equal_neighbors_are_ones(n):
    for s in generate_all(n):
        for a, b in zip(s.entries, s.entries[1:]):
            if a == b:
                assert a == 1
