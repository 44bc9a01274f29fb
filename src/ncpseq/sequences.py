"""Catalan sequences: membership, the listing, and a right-to-left builder.

S_n holds the integer sequences s_1..s_n satisfying

  (i)  1 <= s_i <= i, and
  (ii) s_i = j implies s_{i-r} <= j - r for 1 <= r <= j - 1,

and |S_n| is the n-th Catalan number.  Condition (ii) says that the
intervals (i - s_i, i] nest: each one either holds an earlier one whole
or misses it.  So in a member the maximal intervals among the first
i - 1 tile (0, i - 1], and i - s_i must be one of their end points;
membership is one left-to-right pass over a stack of those end points.
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
token by token when that fails, to name the first bad token; membership
is then checked once, by CatSeq.  CatSeq._trusted (see ncpseq._frozen)
wraps entries with no check, for code that has proved them a member:
forward's images and the walk's listing.  generate_all and count_all
import the kernels when they run, so code that only parses or formats
sequences never loads them.
"""

from __future__ import annotations

from operator import itemgetter

from ncpseq._frozen import Frozen
from ncpseq.errors import ParseError, ValidationError, _check_size

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterator, Sequence


def sequence_violation(entries: Sequence[int]) -> str | None:
    """Name the first broken membership condition, or None if s is in S_n.

    Members pass in one O(n) pass over the end points of the maximal
    intervals so far; anything else is handed to the full scan, which
    names the first broken condition.
    """
    ends = [0]
    for i, v in enumerate(entries, start=1):
        if type(v) is not int or not 1 <= v <= i:
            return _scan_violation(entries)
        start = i - v
        while ends[-1] > start:
            ends.pop()
        if ends[-1] != start:
            return _scan_violation(entries)
        ends.append(i)
    return None


def _scan_violation(entries: Sequence[int]) -> str | None:
    # Conditions (i) then (ii) as stated, index by index: O(sum of s_i).
    for i, v in enumerate(entries, start=1):
        if not isinstance(v, int) or isinstance(v, bool):
            return f"entry {i} is not an integer"
        if not 1 <= v <= i:
            return f"s_{i} = {v} outside 1..{i}"
    for i, v in enumerate(entries, start=1):
        for r in range(1, v):
            if entries[i - r - 1] > v - r:
                return (
                    f"s_{i} = {v} forces s_{i - r} <= {v - r}, "
                    f"found {entries[i - r - 1]}"
                )
    return None


def validate_sequence(entries: Sequence[int]) -> bool:
    """True iff conditions (i) and (ii) hold at every index."""
    return sequence_violation(entries) is None


class CatSeq(Frozen):
    """A member of S_n; construction rejects anything else."""

    __slots__ = _fields = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = tuple(entries)
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
    entries = []
    for token in text.split():
        if not (token.isascii() and token.isdigit()):
            raise ParseError(f"expected a positive integer, got {token!r}")
        try:
            entries.append(int(token))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer of {len(token)} digits is too long") from None
    return tuple(entries)


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
        values = tuple(values)
        bounds = tuple(bounds)
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
    """
    if state.is_complete:
        raise ValidationError("every position is already set")
    q = state.cursor
    limit = state.bounds[q - 1]
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= limit:
        raise ValidationError(f"m = {m} outside 1..{limit} at position {q}")
    values = list(state.values)
    bounds = list(state.bounds)
    values[q - 1] = m
    bounds[q - 1] = m
    for p in range(max(1, q - m + 1), q):
        cap = m - (q - p)
        if cap < bounds[p - 1]:
            bounds[p - 1] = cap
    return GoverningState(tuple(values), tuple(bounds), q - 1)


def bounds_from_scratch(values: Sequence[int], cursor: int) -> tuple[int, ...]:
    """Bounds recomputed from their definition, ignoring any running state.

    Reference used to cross-check the incremental updates in set_value.
    """
    n = len(values)
    out = []
    for q in range(1, n + 1):
        if q > cursor:
            out.append(values[q - 1])
            continue
        g = q
        for p in range(cursor + 1, n + 1):
            cap = values[p - 1] - (p - q)
            if 1 <= cap < g:
                g = cap
        out.append(g)
    return tuple(out)


def generate_all(n: int, *, as_text: bool = False) -> Iterator[CatSeq] | Iterator[str]:
    """Yield every member of S_n, in lexicographic order of the entries.

    With as_text, yield the canonical text of each member instead, with
    no CatSeq built.  Nothing is checked per member: the walk closes
    each entry onto an end point of the nesting stack that
    sequence_violation scans, so it lists members only, each once (see
    ncpseq._kernels_py).
    """
    _check_size(n, 0, "n must be >= 0")
    from ncpseq._backend import kernels

    if not as_text:
        for entries in kernels.catalan_sequences(n):
            yield CatSeq._trusted(entries)
        return
    labels = [""] + [f" {v}" for v in range(1, n + 1)]
    # Each text comes out as " s_1 ... s_n": drop its leading blank.
    yield from map(itemgetter(slice(1, None)), kernels.catalan_sequences(n, labels))


def count_all(n: int) -> int:
    """|S_n|, counted without a walk (see ncpseq._kernels_py)."""
    _check_size(n, 0, "n must be >= 0")
    from ncpseq._backend import kernels

    return kernels.count_catalan_sequences(n)
