"""The sequence walk, pinned in place of a per-member membership check.

generate_all wraps the walk's tuples and yields its texts without
checking any member again, because the walk only ever closes an entry
onto an end point of the nesting stack that sequence_violation scans.
These tests hold it to that: against brute-force filtering, against the
membership check on every member up to n = 11, and byte for byte
against SHA-256 digests taken from the walk that copied its end-point
tuple at every frame and checked each member as it listed it.
"""

import contextlib
import hashlib
import io

import pytest

import ncpseq.sequences
from ncpseq import count_all, generate_all, sequence_violation
from ncpseq import _kernels_py as kernels
from ncpseq.cli import main
from ncpseq.sequences import CatSeq, format_sequence

from bruteforce import sequences_by_filter

# `enumerate --n <n> --kind sequences`, the whole of stdout.
TEXT_DIGESTS = {
    0: "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    1: "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    2: "45e81aedb0e59022bf47117fc45f980574552a0600aa3a09e36daddcf35b0342",
    3: "43e39c3fafdbd2b5b82402c5cc45cbab1102372ae43a2a07716dd5d9af9f0e44",
    4: "bcded927a7c5adbcdc7910f95ef2732066e3fe6182a03f4b072defa88035ff20",
    5: "0d13cfcff05609212bfa7d7509b3fdcd71dec724f1c699fe9c222954eec36961",
    6: "db4b0211551986de425d7efc9383d416a0ba6ed3d34bd6e47e47f8743999bf70",
    7: "6eca52e094576dc0b4dbe86a040840567250008fb1d0b6e0495e4595305ab5a8",
    8: "13e17ed04f5e520e03ebfb4efff382f8b8cf20771502fbdb880aa2b3a69372d6",
    9: "a9530635c723046daf160023e42667b34faa1d1c8af9b53cb7e49345a717f1cf",
    10: "d53a74de1aa9a038f5bde0ed14f1b3cb712504f5831f698a4c733468affcf8e1",
    11: "22c08262a8ec3ba0361a9e13d38a14ba17566677f33cb1eef9f17f1c714cecbf",
}

# kernels.catalan_sequences(n), each tuple's repr followed by a newline.
TUPLE_DIGESTS = {
    0: "71d200d8ffab1b98ab940769da680c27d48873242f3f141a4910e6e10766e84b",
    1: "524930951df1c7fa0dcc92bcb5533de395a41c83ce80ab87d48f352262733127",
    2: "288c2c4dd4f7c46057a4dfa898f903457775d95cfbca053e70037ee04f29eb59",
    3: "8851810d0526b28f8c0ff3bf60faa257308c2d9dcd56851d610a09f9945d8a18",
    4: "da3af067950c92397686fc81cd6d73aef946798384d1d9cb71ea409e98b2306c",
    5: "abeb59fb441b06ef3b150abc0457e3135398095e0b611149618221338421f3b8",
    6: "906d9e94664e4e257cf5466f0a30e8e014af7a85d046d81beeb6b3b4286cdfb4",
    7: "69a3fe00a0c1a25019b678e0fa934b7a53ba487105e2cfc6b8c718f1acc5785f",
    8: "1bb60b185a01c37f98579ec0f9bff582e5f1953bef21308a13d3d790a83d17a7",
    9: "f701880e5f52e7b22c7acbd55dc947e1fd2a405f25951711b621c34d37627be3",
    10: "76a72c21f3eaabc3b742f335348cee544dc5a1e1d55eeb5474913278c60c1ec0",
    11: "a2762817414fc30ec75bab917723b1bff6690fe051958d74362e8d9b0316a45c",
}


@pytest.mark.parametrize("n", range(12))
def test_enumerate_prints_the_pinned_bytes(n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["enumerate", "--n", str(n), "--kind", "sequences"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == TEXT_DIGESTS[n]


@pytest.mark.parametrize("n", range(12))
def test_tuple_listing_is_pinned(n):
    h = hashlib.sha256()
    for entries in kernels.catalan_sequences(n):
        h.update(repr(entries).encode("ascii") + b"\n")
    assert h.hexdigest() == TUPLE_DIGESTS[n]


@pytest.mark.parametrize("n", range(9))
def test_walk_equals_the_filter(n):
    assert kernels.catalan_sequences(n) == sequences_by_filter(n)


@pytest.mark.parametrize("n", range(12))
def test_walk_lists_each_member_once_in_order(n):
    listing = kernels.catalan_sequences(n)
    assert len(listing) == count_all(n)
    assert all(type(s) is tuple and len(s) == n for s in listing)
    assert all(sequence_violation(s) is None for s in listing)
    assert all(a < b for a, b in zip(listing, listing[1:]))
    texts = list(generate_all(n, as_text=True))
    assert texts == [format_sequence(CatSeq._trusted(s)) for s in listing]


@pytest.mark.parametrize("n", range(6))
def test_walk_folds_any_labels(n):
    labels = ["<"] + [f"[{v}]" for v in range(1, n + 1)]
    folded = kernels.catalan_sequences(n, labels)
    assert folded == ["<" + "".join(f"[{v}]" for v in s) for s in kernels.catalan_sequences(n)]


def test_listing_checks_no_member_again(monkeypatch):
    def refuse(entries):
        raise AssertionError("a listed member was checked again")

    monkeypatch.setattr(ncpseq.sequences, "sequence_violation", refuse)
    members = list(generate_all(8))
    assert [s.entries for s in members] == kernels.catalan_sequences(8)
    assert len(list(generate_all(8, as_text=True))) == 1430
