"""Catalan sequences: membership, the listing, and a right-to-left builder.

S_n holds the integer sequences s_1..s_n satisfying

  (i)  1 <= s_i <= i, and
  (ii) s_i = j implies s_{i-r} <= j - r for 1 <= r <= j - 1,

and |S_n| is the n-th Catalan number.  Condition (ii) says that the
intervals (i - s_i, i] nest: each one either holds an earlier one whole
or misses it.  So in a member the maximal intervals among the first
i - 1 tile (0, i - 1], and i - s_i must be one of their end points;
membership, and the first broken condition of a non-member, come from
one left-to-right pass over a stack of those end points.
generate_all lists S_n in lexicographic order by walking the same
stack (see ncpseq._kernels_py): each entry closes onto one of its end
points, so the walk proves each member as it builds it, and nothing is
checked again per member.  Its text listing has the walk fold the text
" v" of each entry v and drops the one leading blank of each member,
so no tuple is built or formatted.

GoverningState builds members the other way, by fixing positions n,
n-1, .., 1 in that order, and serves as an independent reference for
the listing.  Alongside the values, it keeps a bounds sequence g: at a
still-unset position q,

  g_q = min(q, min over set positions p > q of s_p - (p - q)),

where terms that drop below 1 impose nothing; at a set position, g_q
is the chosen value.  Every choice 1 <= m <= g_q at the cursor keeps
the run completable, and distinct choice runs give distinct sequences.

Text form: space-separated ASCII decimal integers; the empty string is the
unique n = 0 sequence.  parse_sequence reads the text in one step, or
token by token when that fails, by the token rule that parse_partition
shares (errors._read_int), to name the first bad token; membership is
then checked once, by CatSeq.  CatSeq._trusted (see ncpseq._frozen)
wraps entries with no check, for code that has proved them a member:
forward's images and the walk's listing.  generate_all and count_all
import the kernels when they run, so code that only parses or formats
sequences never loads them.
"""

from __future__ import annotations

from operator import itemgetter

from ncpseq._frozen import Frozen
from ncpseq.errors import ValidationError, _as_tuple, _check_int, _check_size, _is_int, _read_int

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterator, Sequence


def sequence_violation(entries: Sequence[int]) -> str | None:
    """Name the first broken membership condition, or None if s is in S_n.

    One O(n) pass over the end points of the maximal intervals so far
    decides membership.  Where it stops at entry i, entries 1..i-1 are
    a member, so neither condition breaks before i: the first fault of
    (i) from i on is named first, and else (ii) breaks at i, at the
    least r with s_{i-r} > s_i - r.
    """
    ends = [0]
    for i, v in enumerate(entries, start=1):
        if type(v) is not int or not 1 <= v <= i:
            # With no fault of (i), only an int subclass stopped the pass.
            return _range_violation(entries, i) or sequence_violation(list(map(int, entries)))
        start = i - v
        while ends[-1] > start:
            ends.pop()
        if ends[-1] != start:
            r = next(r for r in range(1, v) if entries[i - r - 1] > v - r)
            return _range_violation(entries, i + 1) or (
                f"s_{i} = {v} forces s_{i - r} <= {v - r}, found {entries[i - r - 1]}"
            )
        ends.append(i)
    return None


def _range_violation(entries: Sequence[int], first: int) -> str | None:
    """Name the first entry from index first on that breaks (i), or None."""
    for i in range(first, len(entries) + 1):
        v = entries[i - 1]
        if not _is_int(v):
            return f"entry {i} is not an integer"
        if not 1 <= v <= i:
            return f"s_{i} = {v} outside 1..{i}"
    return None


def validate_sequence(entries: Sequence[int]) -> bool:
    """True iff conditions (i) and (ii) hold at every index."""
    return sequence_violation(entries) is None


class CatSeq(Frozen):
    """A member of S_n; construction rejects anything else."""

    __slots__ = _fields = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = _as_tuple(entries, "entries")
        reason = sequence_violation(entries)
        if reason is not None:
            raise ValidationError(reason)
        super().__init__(entries)

    def __str__(self) -> str:
        return format_sequence(self)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


# What the one-step reader takes: ASCII digits and blanks.  int() reads
# a token of these exactly when the per-token loop does, to the same
# value.
_SEQUENCE_CHARS = frozenset("0123456789 \t")


def parse_sequence(text: str) -> CatSeq:
    """Parse space-separated entries; the empty string is the n=0 sequence.

    Raises ParseError on non-integer tokens and ValidationError when
    the entries fall outside S_n.
    """
    return CatSeq(_read_entries(text))


def _read_entries(text: str) -> tuple[int, ...]:
    if _SEQUENCE_CHARS.issuperset(text):
        try:
            return tuple(map(int, text.split()))
        except ValueError:  # more digits than int() converts
            pass
    # Token by token, to name the first bad one.
    return tuple(map(_read_int, text.split()))


def format_sequence(s: CatSeq) -> str:
    """Canonical text: entries joined by single spaces."""
    return " ".join(map(str, s.entries))


class GoverningState(Frozen):
    """Partially built sequence plus per-position bounds, cursor counting down.

    values holds 1 at unset positions (everything at or before the
    cursor); bounds holds the largest legal choice at unset positions
    and the chosen value at set ones.
    """

    __slots__ = _fields = ("values", "bounds", "cursor")
    values: tuple[int, ...]
    bounds: tuple[int, ...]
    cursor: int

    def __init__(self, values: tuple[int, ...], bounds: tuple[int, ...], cursor: int) -> None:
        values = _as_tuple(values, "values")
        bounds = _as_tuple(bounds, "bounds")
        for v in values:
            _check_int(v, "value")
        for g in bounds:
            _check_int(g, "bound")
        _check_int(cursor, "cursor")
        if len(bounds) != len(values) or not 0 <= cursor <= len(values):
            raise ValidationError("state lengths and cursor do not agree")
        if any(v != 1 for v in values[:cursor]):
            raise ValidationError("unset positions must hold the placeholder 1")
        super().__init__(values, bounds, cursor)

    @classmethod
    def initial(cls, n: int) -> GoverningState:
        """All-ones values, bounds 1..n, cursor at position n."""
        _check_size(n, 0, "n must be >= 0")
        return cls((1,) * n, tuple(range(1, n + 1)), n)

    @property
    def is_complete(self) -> bool:
        return self.cursor == 0

    def sequence(self) -> CatSeq:
        """The finished sequence; only complete states have one."""
        if not self.is_complete:
            raise ValidationError(f"{self.cursor} positions are still unset")
        return CatSeq(self.values)


def set_value(state: GoverningState, m: int) -> GoverningState:
    """Fix the cursor position to m and tighten the bounds below it.

    After position q takes m, an earlier position p can afford at most
    m - (q - p); bounds that were already smaller stay.  Raises
    ValidationError when the state is complete or m is outside 1..g_q.
    The next state is built unchecked; sequence() checks a finished run.
    """
    if state.is_complete:
        raise ValidationError("every position is already set")
    q = state.cursor
    limit = state.bounds[q - 1]
    if not _is_int(m) or not 1 <= m <= limit:
        raise ValidationError(f"m = {m} outside 1..{limit} at position {q}")
    values = list(state.values)
    bounds = list(state.bounds)
    values[q - 1] = m
    bounds[q - 1] = m
    for p in range(max(1, q - m + 1), q):
        cap = m - (q - p)
        if cap < bounds[p - 1]:
            bounds[p - 1] = cap
    return GoverningState._trusted(tuple(values), tuple(bounds), q - 1)


def generate_all(n: int, *, as_text: bool = False) -> Iterator[CatSeq] | Iterator[str]:
    """Every member of S_n, in lexicographic order of the entries.

    With as_text, the canonical text of each member instead, with no
    CatSeq built.  Nothing is checked per member: the walk closes each
    entry onto an end point of the nesting stack that
    sequence_violation scans, so it lists members only, each once (see
    ncpseq._kernels_py).
    """
    _check_size(n, 0, "n must be >= 0")
    from ncpseq._backend import kernels

    if not as_text:
        return map(CatSeq._trusted, kernels.catalan_sequences(n))
    labels = [""] + [f" {v}" for v in range(1, n + 1)]
    # Each text comes out as " s_1 ... s_n": drop its leading blank.
    return map(itemgetter(slice(1, None)), kernels.catalan_sequences(n, labels))


def count_all(n: int) -> int:
    """|S_n|, counted without a walk (see ncpseq._kernels_py)."""
    _check_size(n, 0, "n must be >= 0")
    from ncpseq._backend import kernels

    return kernels.count_catalan_sequences(n)
