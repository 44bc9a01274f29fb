"""Independent enumerators, counting identities, claim checks, suites."""

import sys

import pytest

import ncpseq.bijection
import ncpseq.oracles
import ncpseq.partitions
from ncpseq import _kernels_py as kernels
from ncpseq import (
    CheckReport,
    Composition,
    Partition,
    ValidationError,
    catalan,
    check_floor_sum,
    check_max_ground,
    check_special_structure,
    compositions,
    count_all,
    decompose_pieces,
    count_special,
    count_ssp,
    enumerate_special,
    enumerate_ssp,
    format_partition,
    generate_all,
    is_special,
    min_ssp_blocks,
    special_violation,
)
from ncpseq.verify import (
    CLAIM_SUITES,
    floor_sum_suite,
    max_ground_suite,
    min_blocks_suite,
    round_trip_suite,
    run_verify,
    special_structure_suite,
)
from ncpseq.oracles import _opened_counts, _special_walk, _structure_sweep
from ncpseq.partitions import (
    _join_block_texts,
    is_semi_special,
    parse_partition,
)
from ncpseq.sequences import format_sequence

from bruteforce import (
    catalan_reference,
    motzkin_reference,
    special_by_filter,
    ssp_by_filter,
)

MOTZKIN = (1, 1, 2, 4, 9, 21, 51, 127, 323)


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(4) == 14
    assert catalan(10) == 16796
    assert [catalan(n) for n in range(9)] == [catalan_reference(n) for n in range(9)]
    with pytest.raises(ValidationError):
        catalan(-1)


def test_enumerate_special_small():
    assert [format_partition(p) for p in enumerate_special(0)] == ["1"]
    assert [format_partition(p) for p in enumerate_special(2)] == [
        "1,3,5|2|4",
        "1,5|2,4|3",
    ]
    sixes = [format_partition(p) for p in enumerate_special(6)]
    assert len(sixes) == 132
    assert "1,13|2,4,6,12|3|5|7,11|8,10|9" in sixes
    assert sixes == sorted(sixes)


@pytest.mark.parametrize("n", range(5))
def test_enumerate_special_matches_filter(n):
    got = {p.blocks for p in enumerate_special(n)}
    assert got == set(special_by_filter(n))
    assert count_special(n) == len(got) == catalan_reference(n)


def test_enumerate_ssp_small():
    assert [format_partition(p) for p in enumerate_ssp(1)] == ["1"]
    assert [format_partition(p) for p in enumerate_ssp(2)] == ["1|2"]
    assert {format_partition(p) for p in enumerate_ssp(3)} == {"1|2|3", "1,3|2"}


@pytest.mark.parametrize("m", range(1, 9))
def test_enumerate_ssp_matches_filter(m):
    got = {p.blocks for p in enumerate_ssp(m)}
    assert got == set(ssp_by_filter(m))
    assert count_ssp(m) == len(got) == MOTZKIN[m - 1]


@pytest.mark.parametrize("n", range(8))
def test_special_walk_is_the_unpruned_walk_filtered(n):
    """The pruned special walk emits the n+1-block SSPs in the same order."""
    unpruned = [p for p in kernels.ssp_partitions(2 * n + 1) if len(p) == n + 1]
    assert kernels.special_partitions(n) == unpruned


@pytest.mark.parametrize("n", range(11))
def test_special_walk_freezes_each_leaf_to_the_text_of_its_blocks(n):
    """The text leaves enumerate_special sorts are the tuple leaves formatted, in walk order."""
    labels = [str(x) for x in range(2 * n + 2)]
    texts = kernels.special_partitions(n, labels, _join_block_texts)
    leaves = kernels.special_partitions(n)
    assert texts == [format_partition(Partition._trusted(2 * n + 1, b)) for b in leaves]
    assert len(texts) == catalan(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_each_walk_gives_equal_blocks_as_one_tuple(n):
    """Equal blocks of different leaves of one listing are one object."""
    for listing in (kernels.special_partitions(n), kernels.ssp_partitions(2 * n + 1)):
        blocks = [b for leaf in listing for b in leaf]
        assert len({id(b) for b in blocks}) == len(set(blocks))
    shared = {id(b) for p in enumerate_special(n) for b in p.blocks}
    assert len(shared) == len({b for p in enumerate_special(n) for b in p.blocks})


def test_no_shared_block_outlives_its_walk():
    first, again = kernels.special_partitions(3), kernels.special_partitions(3)
    assert first == again
    assert all(a is not b for x, y in zip(first, again) for a, b in zip(x, y))


@pytest.mark.parametrize("n", range(10))
def test_text_listing_is_the_partition_listing_formatted(n):
    texts = list(enumerate_special(n, as_text=True))
    assert texts == [format_partition(p) for p in enumerate_special(n)]


def test_special_count_is_catalan():
    for n in [*range(61), 150]:
        assert kernels.count_special_partitions(n) == catalan(n)


def test_ssp_count_is_motzkin_by_its_recurrence():
    motzkin = motzkin_reference(99)
    for m in range(1, 101):
        assert count_ssp(m) == motzkin[m - 1]


@pytest.mark.parametrize(
    "count, listing, sizes",
    [
        (kernels.count_special_partitions, kernels.special_partitions, range(11)),
        (kernels.count_ssp_partitions, kernels.ssp_partitions, range(1, 15)),
        (kernels.count_catalan_sequences, kernels.catalan_sequences, range(12)),
    ],
)
def test_each_count_is_the_length_of_its_listing(count, listing, sizes):
    for size in sizes:
        assert count(size) == len(listing(size))


def test_counters_do_not_recurse():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        special = count_special(150)
        sequences = count_all(899)
    finally:
        sys.setrecursionlimit(limit)
    assert special == catalan(150)
    assert sequences == catalan(899)


def test_listings_do_not_recurse():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        special = next(kernels._partition_walk(2001, 1001))
        sequence = next(kernels._sequence_walk(1000))
    finally:
        sys.setrecursionlimit(limit)
    assert is_special(Partition(2001, special))
    assert sequence == (1,) * 1000


def test_counters_consult_neither_catalan_nor_the_bijection(monkeypatch):
    def refuse(*args):
        raise AssertionError("a counter must count on its own")

    for module, name in [
        (ncpseq.oracles, "catalan"),
        (ncpseq.bijection, "forward"),
        (ncpseq.bijection, "inverse"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    assert [count_special(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [count_ssp(m) for m in range(1, 7)] == [1, 1, 2, 4, 9, 21]
    assert [count_all(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize(
    "listing, sizes, ground",
    [
        (enumerate_special, range(9), lambda n: 2 * n + 1),
        (enumerate_ssp, range(1, 13), lambda m: m),
    ],
)
def test_kernel_partitions_are_what_the_public_constructor_builds(listing, sizes, ground):
    for size in sizes:
        for p in listing(size):
            blocks = p.blocks
            assert type(blocks) is tuple and all(type(b) is tuple for b in blocks)
            assert blocks == tuple(sorted(tuple(sorted(b)) for b in blocks))
            assert Partition(ground(size), p.blocks) == p


def test_enumerate_special_wraps_kernel_blocks_unchecked(monkeypatch):
    calls = []
    real = ncpseq.partitions._check_partition

    def counting(m, blocks):
        calls.append(m)
        return real(m, blocks)

    monkeypatch.setattr(ncpseq.partitions, "_check_partition", counting)
    assert len(list(enumerate_special(6))) == 132
    assert calls == []
    Partition(3, ((1, 3), (2,)))
    assert calls == [3]


def test_enumerator_input_validation():
    with pytest.raises(ValidationError):
        list(enumerate_special(-1))
    with pytest.raises(ValidationError):
        list(enumerate_ssp(0))
    with pytest.raises(ValidationError):
        min_ssp_blocks(0)


def test_min_ssp_blocks_values():
    assert min_ssp_blocks(1) == 1
    assert min_ssp_blocks(2) == 2
    assert min_ssp_blocks(5) == 3
    for m in range(1, 14):
        assert min_ssp_blocks(m) == m // 2 + 1


@pytest.mark.parametrize("m", range(1, 9))
def test_min_ssp_blocks_matches_filter(m):
    assert min_ssp_blocks(m) == min(len(blocks) for blocks in ssp_by_filter(m))


def test_composition_type():
    c = Composition((2, 3))
    assert c.total == 5 and str(c) == "2,3"
    with pytest.raises(ValidationError):
        Composition(())
    with pytest.raises(ValidationError):
        Composition((1, 0))


def test_compositions_enumeration():
    assert [c.parts for c in compositions(3)] == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for n in range(1, 13):
        parts = [c.parts for c in compositions(n)]
        assert len(parts) == len(set(parts)) == 2 ** (n - 1)
        assert all(sum(p) == n for p in parts)
        assert parts == sorted(parts)
    with pytest.raises(ValidationError):
        list(compositions(0))


def test_floor_sum_suite_checks_no_composition_again(monkeypatch):
    """The cuts make every part a positive int, so the suite builds its
    compositions unchecked; each still equals the checked build."""
    assert all(Composition(c.parts) == c for n in range(1, 8) for c in compositions(n))

    def forbidden(self, parts):
        raise AssertionError("a composition went through the checked constructor")

    monkeypatch.setattr(Composition, "__init__", forbidden)
    report = floor_sum_suite()
    assert (report.passed, report.count_checked) == (True, 2**12 - 1)


def test_floor_sum_examples():
    assert check_floor_sum(Composition((5,)))
    # the one-part case of 5 meets the bound exactly: 2 + 1 = floor(5/2) + 1
    assert sum(x // 2 for x in (5,)) + 1 == 5 // 2 + 1 == 3
    assert check_floor_sum(Composition((2, 3)))
    assert check_floor_sum(Composition((1, 1, 1, 1)))


def test_check_report_shape():
    ok = CheckReport("cardinality", "n=0..3", True, 18, 1.5)
    assert ok.to_dict() == {
        "claim": "cardinality",
        "range": "n=0..3",
        "status": "pass",
        "count_checked": 18,
        "elapsed_ms": 1.5,
    }
    bad = CheckReport("cardinality", "n=0..3", False, 4, 0.1, "n=2: off by one")
    assert bad.to_dict()["status"] == "fail"
    assert bad.to_dict()["counterexample"] == "n=2: off by one"
    with pytest.raises(ValidationError):
        CheckReport("cardinality", "n=0..3", False, 4, 0.1)


@pytest.mark.parametrize("n", [0, 1, 6])
def test_check_special_structure(n):
    report = check_special_structure(n)
    assert report.passed
    assert report.claim == "special-structure"
    assert report.count_checked == catalan_reference(n)


def test_check_special_structure_reports_a_non_special_parent():
    crossing = Partition(7, ((1, 3, 7), (2, 6), (4,), (5,)))
    report = special_structure_suite([(), (), (), (crossing,)])
    assert not report.passed
    assert report.counterexample == "1,3,7|2,6|4|5: not special (crossing blocks)"


@pytest.mark.parametrize(
    "text, reason",
    [
        ("1,3|2|4|5", "1 and 5 in different blocks"),
        ("1,4,5|2|3", "odd gap between 1 and 4"),
        ("1,5|2|3|4", "not special (4 blocks where 3 are required)"),
    ],
)
def test_check_special_structure_names_the_first_fault(text, reason):
    checked, failure = _structure_sweep([parse_partition(text)], 2)
    assert failure is not None
    assert (checked, failure) == (1, f"{text}: {reason}")


def gap_partition(p, lo, hi):
    """The elements strictly between lo and hi, relabelled from 1, through
    the checked constructor: it raises unless they are whole blocks."""
    inside = [[x - lo for x in b] for b in p.blocks if lo < b[0] < hi]
    return Partition(hi - lo - 1, inside)


def structure_reference(n, listing, violation=special_violation, refused=None):
    """check_special_structure with nothing shared or counted: every gap is
    built on its own and judged by is_special, the pieces by
    decompose_pieces.  violation stands in for special_violation on the
    parents, and a gap whose text is refused is judged not special."""
    top = 2 * n + 1
    checked = 0
    for p in listing:
        checked += 1
        gaps = [(x, y) for b in p.blocks for x, y in zip(b, b[1:])]
        odd = [(x, y) for x, y in gaps if (y - x) % 2]
        reason = None
        if p.blocks[0][-1] != top:
            reason = f"1 and {top} in different blocks"
        elif odd:
            reason = f"odd gap between {odd[0][0]} and {odd[0][1]}"
        elif violation(p) is not None:
            reason = f"not special ({violation(p)})"
        else:
            bad = []
            for bi, b in enumerate(p.blocks, start=1):
                for gi in range(1, len(b)):
                    g = gap_partition(p, b[gi - 1], b[gi])
                    if format_partition(g) == refused or not is_special(g):
                        bad.append((bi, gi))
            if bad:
                reason = f"subpartition at block {bad[0][0]}, gap {bad[0][1]} is not special"
            elif len(decompose_pieces(p)) != 1:
                reason = "more than one piece"
        if reason is not None:
            return checked, f"{format_partition(p)}: {reason}"
    return checked, None


def miscounting(shape):
    """_opened_counts, except that a gap holding the partition with text
    shape comes out one block short, so the check refuses it.  The count
    drops at the gap's right end, which only the gap after it in the same
    block reads again, so every gap the check judges before the first
    refused one keeps its count."""

    def opened_counts(blocks, m):
        opened = _opened_counts(blocks, m)
        parent = Partition._trusted(m, blocks)
        for b in blocks:
            for lo, hi in zip(b, b[1:]):
                gap = gap_partition(parent, lo, hi)
                if format_partition(gap) == shape:
                    opened[hi] -= 1
        return opened

    return opened_counts


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("shape", [None, "1", "1,5|2,4|3", "1,7|2,4,6|3|5"])
def test_check_special_structure_matches_a_memo_free_reference(n, shape, monkeypatch):
    want = structure_reference(n, enumerate_special(n), refused=shape)
    if shape is None:
        assert want == (catalan(n), None)
    else:
        monkeypatch.setattr(ncpseq.oracles, "_opened_counts", miscounting(shape))
    report = check_special_structure(n)
    assert (report.count_checked, report.counterexample) == want
    assert report.passed == (want[1] is None)


def test_a_refused_gap_shape_gives_the_first_structure_counterexample(monkeypatch):
    monkeypatch.setattr(ncpseq.oracles, "_opened_counts", miscounting("1,5|2,4|3"))
    report = CLAIM_SUITES["special-structure"](6)
    assert not report.passed
    assert report.count_checked == 24
    assert report.counterexample == (
        "1,7|2,6|3,5|4: subpartition at block 1, gap 1 is not special"
    )


def refusing(parents):
    """_opened_counts, except that each parent whose text is in parents
    comes out one block short in its first gap, so the check refuses it
    at block 1, gap 1."""

    def opened_counts(blocks, m):
        opened = _opened_counts(blocks, m)
        if format_partition(Partition._trusted(m, blocks)) in parents:
            opened[blocks[0][1]] -= 1
        return opened

    return opened_counts


def test_a_failing_size_reports_its_canonically_smallest_counterexample(monkeypatch):
    """The sweeps take the partitions in the walk's order, which meets a
    failing partition before the smallest one in canonical text order;
    the failing size is swept again in that order, so the report is that
    of a canonical sweep."""
    n = 4
    walk = [format_partition(p) for p in _special_walk(n)]
    canonical = sorted(walk)
    assert walk != canonical
    # The five partitions whose first block is {1, 9}.
    bad = {text for text in walk if text.startswith("1,9|")}
    smallest = min(bad)
    assert len(bad) == catalan(n - 1)
    assert min(walk.index(text) for text in bad) < walk.index(smallest)
    before = sum(catalan(k) for k in range(n))

    # Round-trip: forward sends each bad partition to the image of the
    # canonically first one, so inverse gives that one back.
    real_forward = ncpseq.bijection.forward
    partner = parse_partition(canonical[0])
    monkeypatch.setattr(
        ncpseq.bijection,
        "forward",
        lambda p: real_forward(partner if format_partition(p) in bad else p),
    )
    reference = round_trip_suite(
        [tuple(enumerate_special(k)) for k in range(n + 1)],
        [tuple(generate_all(k)) for k in range(n + 1)],
    )
    report = CLAIM_SUITES["round-trip"](n)
    want = (
        2 * before + canonical.index(smallest) + 1,
        f"inverse(forward({smallest})) = {canonical[0]}",
    )
    assert (reference.count_checked, reference.counterexample) == want
    assert (report.count_checked, report.counterexample) == want
    monkeypatch.setattr(ncpseq.bijection, "forward", real_forward)

    # Special-structure: the prefix count refuses each bad parent.
    monkeypatch.setattr(ncpseq.oracles, "_opened_counts", refusing(bad))
    reference = check_special_structure(n)
    report = CLAIM_SUITES["special-structure"](n)
    want = (
        canonical.index(smallest) + 1,
        f"{smallest}: subpartition at block 1, gap 1 is not special",
    )
    assert (reference.count_checked, reference.counterexample) == want
    assert (report.count_checked, report.counterexample) == (before + want[0], want[1])


def accepting(text):
    """special_violation, except that the partition with this text passes."""
    return lambda p: None if format_partition(p) == text else special_violation(p)


def planted_parents():
    """Semi-special partitions of [2n+1] that keep 1 and 2n+1 together and
    every gap even but have too many blocks, so only the gap count can
    refuse them, with the (block, gap) where it first does."""
    found = {}
    for n in range(2, 8):
        top = 2 * n + 1
        # 1,2n+1 over singletons.
        fan = [[1, top]] + [[x] for x in range(2, top)]
        # The comb 1,3,..,2n+1 with its last tooth dropped: the last gap
        # of the first block holds three singletons.
        comb = [list(range(1, top - 3, 2)) + [top]]
        comb += [[x] for x in range(2, top) if x not in comb[0]]
        # Nested arcs i,2n+2-i with the innermost one cut in two.
        nest = [[i, top + 1 - i] for i in range(1, n)] + [[n], [n + 1], [n + 2]]
        for blocks, first_bad in ((fan, (1, 1)), (comb, (1, n - 1)), (nest, (1, 1))):
            text = format_partition(Partition(top, blocks))
            found.setdefault(text, (n, first_bad))
    return [(text, n, bad) for text, (n, bad) in found.items()]


@pytest.mark.parametrize("text, n, first_bad", planted_parents())
def test_a_planted_parent_fails_at_its_first_overfull_gap(text, n, first_bad, monkeypatch):
    planted = parse_partition(text)
    assert is_semi_special(planted) and not is_special(planted)
    listing = sorted([*enumerate_special(n), planted], key=format_partition)
    violation = accepting(text)
    want = structure_reference(n, listing, violation)
    assert want == (
        listing.index(planted) + 1,
        f"{text}: subpartition at block {first_bad[0]}, gap {first_bad[1]} is not special",
    )
    monkeypatch.setattr(ncpseq.oracles, "special_violation", violation)
    checked, failure = _structure_sweep(listing, n)
    assert failure is not None
    assert (checked, failure) == want


def test_structure_check_builds_no_gap_and_scans_each_parent_once(monkeypatch):
    n = 6
    parts = list(enumerate_special(n))

    def forbidden(*args):
        raise AssertionError("a gap partition was built")

    monkeypatch.setattr(ncpseq.partitions, "subpartition", forbidden)
    monkeypatch.setattr(Partition, "_trusted", forbidden)
    scans = []
    real = ncpseq.partitions._semi_special_violation
    monkeypatch.setattr(
        ncpseq.partitions, "_semi_special_violation", lambda p: scans.append(p) or real(p)
    )
    assert _structure_sweep(parts, n) == (catalan(n), None)
    # One scan per parent, in its special check, and none for any gap.
    assert scans == parts
    assert len(scans) == catalan(n)


def test_gap_count_verdict_is_the_special_verdict_of_the_built_gap():
    """The structure check's shortcut, on every even gap of every
    semi-special partition of [m], m <= 13: the gap is special exactly
    when it holds (hi - lo) / 2 blocks, and the prefix count the check
    reads gives the count of the blocks in the gap, which are the run
    of blocks that subpartition slices by it."""
    gaps = refused = 0
    for m in range(1, 14):
        for p in enumerate_ssp(m):
            for b in p.blocks:
                for lo, hi in zip(b, b[1:]):
                    if (hi - lo) % 2:
                        continue
                    count = sum(1 for c in p.blocks if lo < c[0] < hi)
                    opened = _opened_counts(p.blocks, m)
                    assert opened[hi] - opened[lo] == count
                    built = gap_partition(p, lo, hi)
                    shifted = tuple(tuple(x + lo for x in c) for c in built.blocks)
                    assert p.blocks[opened[lo]:opened[hi]] == shifted
                    by_count = count == (hi - lo) // 2
                    assert by_count == is_special(built), (format_partition(p), lo, hi)
                    gaps += 1
                    refused += not by_count
    assert (gaps, refused) == (59488, 16494)


def test_every_special_partition_is_a_single_piece():
    """A fact the structure check leaves unchecked, on a proof (see _structure_violation)."""
    checked = 0
    for n in range(10):
        for p in enumerate_special(n):
            supports = [(piece[0][0], max(b[-1] for b in piece)) for piece in decompose_pieces(p)]
            assert supports == [(1, 2 * n + 1)], format_partition(p)
            checked += 1
    assert checked == sum(catalan(n) for n in range(10))


def test_structure_suite_does_not_call_decompose_pieces(monkeypatch):
    def forbidden(p):
        raise AssertionError("decompose_pieces re-checks a known non-crossing partition")

    monkeypatch.setattr(ncpseq.partitions, "decompose_pieces", forbidden)
    monkeypatch.setattr(ncpseq.oracles, "decompose_pieces", forbidden, raising=False)
    assert CLAIM_SUITES["special-structure"](6).passed


def test_round_trip_runs_each_map_once_per_object(monkeypatch):
    calls = {"forward": 0, "inverse": 0}
    for name in calls:
        real = getattr(ncpseq.bijection, name)

        def counted(x, name=name, real=real):
            calls[name] += 1
            return real(x)

        monkeypatch.setattr(ncpseq.bijection, name, counted)
    report = CLAIM_SUITES["round-trip"](6)
    objects = sum(catalan(n) for n in range(7))
    assert report.passed
    assert report.count_checked == 2 * objects
    assert calls == {"forward": objects, "inverse": objects}


def test_round_trip_checks_the_sequences_no_partition_reached(monkeypatch):
    """A member of S_n missing from the forward images is still inverted."""
    partitions = [tuple(enumerate_special(n)) for n in range(4)]
    sequences = [tuple(generate_all(n)) for n in range(4)]
    dropped, kept = partitions[3][0], partitions[3][1:]
    partitions[3] = kept
    real_forward, real_inverse = ncpseq.bijection.forward, ncpseq.bijection.inverse
    orphan, other = real_forward(dropped), real_forward(kept[0])
    monkeypatch.setattr(
        ncpseq.bijection,
        "inverse",
        lambda s: real_inverse(other if s == orphan else s),
    )
    report = round_trip_suite(partitions, sequences)
    assert report.counterexample == (
        f"forward(inverse({format_sequence(orphan)})) = {format_sequence(other)}"
    )
    assert report.count_checked == 8 + len(kept) + 1 + sequences[3].index(orphan)


def test_check_max_ground():
    assert check_max_ground(0)
    assert check_max_ground(1)
    assert check_max_ground(2)
    with pytest.raises(ValidationError):
        check_max_ground(-1)


def test_suites_pass_at_small_sizes():
    for report in (
        CLAIM_SUITES["cardinality"](4),
        CLAIM_SUITES["round-trip"](4),
        CLAIM_SUITES["special-structure"](4),
        floor_sum_suite(),
        min_blocks_suite(4),
        max_ground_suite(4),
    ):
        assert report.passed, report.to_dict()
        assert report.count_checked > 0


def test_floor_sum_suite_covers_every_composition():
    report = floor_sum_suite()
    assert report.range_checked == "n=1..12"
    assert report.count_checked == sum(2 ** (n - 1) for n in range(1, 13))


def test_suite_ranges_are_capped():
    assert min_blocks_suite(20).range_checked == "m=1..13"
    assert min_blocks_suite(3).range_checked == "m=1..7"
    assert max_ground_suite(20).range_checked == "b=0..6"


def test_run_verify_report_schema():
    report = run_verify(2)
    assert report["schema"] == 1
    assert report["n_max"] == 2
    assert report["status"] == "pass"
    assert report["counts"] == [1, 1, 2]
    assert [c["claim"] for c in report["checks"]] == [
        "cardinality",
        "round-trip",
        "special-structure",
        "floor-sum",
        "min-blocks",
    ]
    for check in report["checks"]:
        assert check["status"] == "pass"
        assert "counterexample" not in check


def test_run_verify_walks_each_size_once(monkeypatch):
    sizes = []
    walk = kernels.special_partitions

    def counting_walk(n):
        sizes.append(n)
        return walk(n)

    monkeypatch.setattr(kernels, "special_partitions", counting_walk)
    assert run_verify(5)["status"] == "pass"
    assert sizes == [0, 1, 2, 3, 4, 5]


def test_each_check_claim_matches_its_verify_entry():
    for n_max in range(5):
        entries = run_verify(n_max)["checks"]
        assert len(entries) == 5
        for entry in entries:
            alone = CLAIM_SUITES[entry["claim"]](n_max).to_dict()
            del alone["elapsed_ms"], entry["elapsed_ms"]
            assert alone == entry


def test_run_verify_input_validation():
    with pytest.raises(ValidationError):
        run_verify(-1)
