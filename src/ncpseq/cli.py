"""Command-line front end: enumerate, map, invert, verify, check, render.

Exit codes: 0 on success, 1 when well-formed input fails a membership
condition or a claim check fails, 2 on unparseable input or bad usage,
3 when writing the output fails: the output file or stdout cannot be
written (one "io error:" line on stderr), or the reader of stdout
closes it early (then nothing is printed on stderr).  Running out of
memory is a request too large to serve: exit 2 with one "memory error:"
line on stderr, whatever was written to stdout before it.

map and invert read one object from argv or, when omitted, convert
every line of stdin, so enumerate can pipe straight through them.
Each stdin line is one input, consumed as it arrives, and the stream
stops at the first line that fails, with that line's exit code, after
the results of the lines before it are printed (ahead of its message);
the rest of stdin is left unread.  A blank line is the n = 0 sequence
for invert and a parse error (exit 2) for map.
Stdin streams, traces and drawings all go out through one writer,
_write, one chunk per write, a chunk ending at _CHUNK_LINES texts or at
_WRITE_CHARS characters, whichever comes first.  enumerate writes the
canonical texts the listings give with as_text, so no Partition or
CatSeq is built per line, and joins each batch of _CHUNK_LINES texts
once, one write per batch: its lines are short and no failure can
follow them, so it needs no more of the writer.  The sequence listing
comes from the walk as it goes, so enumerate --kind sequences holds one
batch of texts at a time; the special listing holds every text of its
size, for the canonical sort.  check of a sweeping claim holds one
object at a time, but round-trip one size's sequences; verify holds
every object up to --n-max, walked once for all its suites.
invert --trace, text or --json, writes each step as it is made, holding
one diagram and one chunk of text at a time.  Every warning is one
stderr line, before the work: enumerate's above n = LISTING_N_CEILING
(listing) or COUNT_N_CEILING (counting); verify's, and check's of a
claim whose work grows with --n-max, above its default; invert
--trace's above TRACE_ELEMENT_CEILING printed elements; render's above
ASCII_CHAR_CEILING characters of ascii text (lines x width), or
TRACE_POINT_CEILING points over all the panels of a trace.
render takes a single input and decides what it is: text containing
"," or "|" (or a lone token) is a partition, anything else is treated
as a sequence and inverted first, so blank input is the n = 0 sequence
and draws the single point 1.  From stdin it reads at most
RENDER_STDIN_LIMIT characters; longer input is a usage error (exit 2).
Drawing takes time linear in the output and about two copies of it in
memory: a trace comes back from render_trace as one string, which goes
to the writer in slices so that encoding it adds no third copy.

Imports: at start this module loads only argparse and the package's
errors, so a call pays for no module its subcommand does not run.  Each
handler imports what it uses when it starts, once per call and never
once per stdin line: map and invert load no verify, oracles, render or
enumeration kernel, and json is loaded only by verify, check and
invert --json.  CLAIMS and DEFAULT_N_CEILING repeat what verify
defines, so that the parser need not load it; a test keeps them equal.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from ncpseq import __version__
from ncpseq.errors import ParseError, ValidationError

# Annotations are never evaluated, so typing is loaded by type checkers only.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator, TextIO

    from ncpseq.partitions import ArcDiagram

# The claims check runs, in the order of verify.CLAIM_SUITES, and the
# default --n-max, verify.DEFAULT_N_CEILING.
CLAIMS = (
    "cardinality", "round-trip", "special-structure", "floor-sum", "min-blocks", "max-ground"
)
DEFAULT_N_CEILING = 9
# enumerate lists every object at size n; above this n it warns first.
LISTING_N_CEILING = 11
# enumerate --count-only takes about n^3 bit operations (seconds at
# n = 2000); above this n it warns first.
COUNT_N_CEILING = 1000
# Lines per stdout write: few system calls, and a bounded text per write.
_CHUNK_LINES = 1024
# render's one stdin input, in characters: far above any input whose
# drawing is of a size to look at, and a bound on the memory it takes.
RENDER_STDIN_LIMIT = 1 << 20
# render warns before drawing more text than this (lines x width), and
# before a trace of more points than this over all its panels, at about
# 200 bytes of SVG a point.  The largest ascii drawing at n = 300 is
# under 700,000 characters, and a half-stretched trace at n = 120 draws
# 61 panels of 241 points.
ASCII_CHAR_CEILING = 10_000_000
TRACE_POINT_CEILING = 100_000
# invert --trace warns before printing n lines of 2n + 1 elements above this (n > 706).
TRACE_ELEMENT_CEILING = 1_000_000
# render writes its text in slices of this many characters, so that
# encoding it never holds a second whole copy, and a chunk of texts is
# written once it holds this many.
_WRITE_CHARS = 1 << 20


def _ascii_int(text: str) -> int:
    """argparse type: ASCII digits after an optional "-", as in the parsers.

    A negative value passes here so that main reports it as a usage error.
    """
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpseq",
        description="special non-crossing partitions, their Catalan sequences, "
        "and checks of the facts relating them",
    )
    parser.add_argument("--version", action="version", version=f"ncpseq {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", help="list or count all objects at one size")
    p.add_argument("--n", type=_ascii_int, required=True, help="sequence length / (ground-1)/2")
    p.add_argument("--kind", choices=("special", "sequences"), default="special")
    p.add_argument("--count-only", action="store_true", help="print the count instead")

    p = sub.add_parser("map", help="partition -> sequence")
    p.add_argument(
        "text", nargs="?", metavar="partition", help="canonical text; stdin lines if omitted"
    )

    p = sub.add_parser("invert", help="sequence -> partition")
    p.add_argument(
        "text", nargs="?", metavar="sequence", help="space-separated; stdin lines if omitted"
    )
    p.add_argument("--trace", action="store_true", help="print each construction step")
    p.add_argument("--json", action="store_true", help="trace as a JSON array")

    # --n-max lands in ns.n, as --n does, so that main checks them as one.
    n_max = dict(dest="n", metavar="N_MAX", type=_ascii_int, default=DEFAULT_N_CEILING)
    p = sub.add_parser("verify", help="run all claim suites, print a JSON report")
    p.add_argument("--n-max", **n_max)

    p = sub.add_parser("check", help="run a single claim suite")
    p.add_argument("claim", choices=CLAIMS)
    p.add_argument("--n-max", **n_max)
    p.add_argument("--json", action="store_true", help="full report as JSON")

    p = sub.add_parser("render", help="draw a partition or sequence as arcs")
    p.add_argument(
        "text", nargs="?", metavar="input", help="partition or sequence; stdin if omitted"
    )
    p.add_argument("--format", dest="fmt", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out", help="write here instead of stdout")
    p.add_argument("--trace", action="store_true", help="render every stage (svg only)")
    return parser


class _Failure(Exception):
    """Ends a subcommand with an exit code and one line on stderr."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _write(fh: TextIO, texts: Iterable[str]) -> None:
    """Write the texts to fh, one write per _CHUNK_LINES texts or _WRITE_CHARS characters.

    Each text carries its own line end, if it has one.  When the texts
    end in a _Failure, the texts before it are written first, so that
    they come before its message.
    """
    chunk: list[str] = []
    chars = 0

    def flush() -> None:
        if chunk:
            fh.write("".join(chunk))
            chunk.clear()

    try:
        for text in texts:
            chunk.append(text)
            chars += len(text)
            if len(chunk) == _CHUNK_LINES or chars >= _WRITE_CHARS:
                flush()
                chars = 0
    except _Failure:
        flush()
        raise
    flush()


def _inputs(text: str | None) -> Iterator[str]:
    """The one argv input, or else each line of stdin as it arrives."""
    if text is not None:
        yield text
        return
    # Physical lines bound the memory; splitlines then splits them as
    # reading all of stdin and splitting it would.
    for physical in sys.stdin:
        yield from physical.splitlines()


def _warn_above(size: int, ceiling: int, message: str) -> None:
    """One "warning: message" line on stderr when size is above ceiling."""
    if size > ceiling:
        print(f"warning: {message}", file=sys.stderr)


def cmd_enumerate(ns: argparse.Namespace) -> int:
    if ns.kind == "special":
        from ncpseq.oracles import count_special as count, enumerate_special as listing
    else:
        from ncpseq.sequences import count_all as count, generate_all as listing
    if ns.count_only:
        _warn_above(
            ns.n, COUNT_N_CEILING, f"n {ns.n} is above the count ceiling {COUNT_N_CEILING}; "
            "counting takes about n^3 bit operations and may take a while"
        )
        print(count(ns.n))
    else:
        _warn_above(
            ns.n, LISTING_N_CEILING, f"n {ns.n} is above the listing ceiling {LISTING_N_CEILING}; "
            f"this lists catalan({ns.n}) objects and may take a while"
        )
        lines = listing(ns.n, as_text=True)
        while batch := list(islice(lines, _CHUNK_LINES)):
            sys.stdout.write("\n".join(batch) + "\n")
    return 0


def _parsed(parse: Callable[[str], object], text: str, what: str, invalid_code: int):
    """parse(text), with its errors as _Failures: exit 2, or invalid_code if invalid."""
    try:
        return parse(text)
    except ParseError as exc:
        raise _Failure(2, f"parse error: {exc}")
    except ValidationError as exc:
        raise _Failure(invalid_code, f"invalid {what}: {exc}")


def cmd_map(ns: argparse.Namespace) -> int:
    from ncpseq.bijection import forward
    from ncpseq.partitions import parse_partition, special_violation
    from ncpseq.sequences import format_sequence

    def image(text: str) -> str:
        part = _parsed(parse_partition, text, "partition", 2)
        reason = special_violation(part)
        if reason is not None:
            raise _Failure(1, f"not special: {reason}")
        return format_sequence(forward(part)) + "\n"

    _write(sys.stdout, map(image, _inputs(ns.text)))
    return 0


def cmd_invert(ns: argparse.Namespace) -> int:
    if ns.json and not ns.trace:
        raise _Failure(2, "--json needs --trace")
    _write(sys.stdout, _preimages(ns))
    return 0


def _preimages(ns: argparse.Namespace) -> Iterator[str]:
    from ncpseq.bijection import _step_text, _trace_json, _trace_steps, initial_diagram, inverse
    from ncpseq.partitions import format_partition, from_arcs
    from ncpseq.sequences import parse_sequence

    for text in _inputs(ns.text):
        seq = _parsed(parse_sequence, text, "sequence", 1)
        if not ns.trace:
            yield format_partition(inverse(seq)) + "\n"
            continue
        n = len(seq.entries)
        _warn_above(
            n * (2 * n + 1), TRACE_ELEMENT_CEILING,
            f"the trace prints {n} steps of {2 * n + 1} elements, above the trace ceiling "
            f"{TRACE_ELEMENT_CEILING} elements; this may take a while and a lot of memory"
        )
        last = initial_diagram(n)
        steps = _trace_steps(last, seq)
        if ns.json:
            yield from _trace_json(steps)
            yield "\n"
            continue
        for step in steps:
            yield _step_text(step) + "\n"
            last = step.diagram
        yield format_partition(from_arcs(last)) + "\n"


def _warn_above_n_ceiling(n_max: int) -> None:
    _warn_above(
        n_max, DEFAULT_N_CEILING,
        f"n_max {n_max} is above the default ceiling {DEFAULT_N_CEILING}; this may take a while"
    )


def cmd_verify(ns: argparse.Namespace) -> int:
    import json

    from ncpseq.verify import run_verify

    _warn_above_n_ceiling(ns.n)
    report = run_verify(ns.n)
    print(json.dumps(report, indent=2))
    return 0 if report["status"] == "pass" else 1


def cmd_check(ns: argparse.Namespace) -> int:
    import json

    from ncpseq.verify import CLAIM_SUITES, SWEEPING_CLAIMS

    if ns.claim in SWEEPING_CLAIMS:
        _warn_above_n_ceiling(ns.n)
    report = CLAIM_SUITES[ns.claim](ns.n)
    if ns.json:
        print(json.dumps(report.to_dict(), indent=2))
    elif report.passed:
        print(
            f"check {report.claim} over {report.range_checked}: pass, "
            f"{report.count_checked} checked in {report.elapsed_ms} ms"
        )
    else:
        print(
            f"check {report.claim} over {report.range_checked}: fail, "
            f"counterexample {report.counterexample}"
        )
    return 0 if report.passed else 1


def cmd_render(ns: argparse.Namespace) -> int:
    from ncpseq.bijection import inverse, inverse_trace
    from ncpseq.partitions import parse_partition, to_arcs
    from ncpseq.render import render_trace
    from ncpseq.sequences import parse_sequence

    text = ns.text if ns.text is not None else _render_stdin()
    looks_like_partition = (
        "|" in text or "," in text or len(text.split()) == 1
    )
    if looks_like_partition:
        if ns.trace:
            raise _Failure(2, "--trace needs a sequence input")
        part = _parsed(parse_partition, text, "partition", 2)
        try:
            diagram = to_arcs(part)
        except ValidationError as exc:
            raise _Failure(1, f"invalid partition: {exc}")
        content = _render_diagram(ns.fmt, diagram)
    else:
        seq = _parsed(parse_sequence, text, "sequence", 1)
        if ns.trace:
            if ns.fmt != "svg":
                raise _Failure(2, "--trace renders svg only")
            # A stretch by v > 1 always changes the diagram and v = 1 never
            # does, so the trace draws the start and one panel per v > 1.
            panels = 1 + sum(1 for v in seq.entries if v > 1)
            points = 2 * len(seq.entries) + 1
            _warn_above(
                panels * points, TRACE_POINT_CEILING,
                f"the trace draws {panels} panels of {points} points, above the trace ceiling "
                f"{TRACE_POINT_CEILING} points; this may take a while and a lot of memory"
            )
            content = render_trace(inverse_trace(seq))
        else:
            content = _render_diagram(ns.fmt, to_arcs(inverse(seq)))
    slices = (content[at : at + _WRITE_CHARS] for at in range(0, len(content), _WRITE_CHARS))
    if ns.out is None:
        _write(sys.stdout, slices)
        return 0
    try:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as fh:
            _write(fh, slices)
    except OSError as exc:
        raise _Failure(3, f"io error: {exc}")
    return 0


def _render_stdin() -> str:
    text = sys.stdin.read(RENDER_STDIN_LIMIT + 1)
    if len(text) > RENDER_STDIN_LIMIT:
        raise _Failure(
            2, f"usage error: render reads at most {RENDER_STDIN_LIMIT} characters of stdin"
        )
    return text.strip()


def _render_diagram(fmt: str, diagram: ArcDiagram) -> str:
    from ncpseq.render import ascii_shape, render_ascii, render_svg

    if fmt == "svg":
        return render_svg(diagram)
    lines, width = ascii_shape(diagram)
    _warn_above(
        lines * width, ASCII_CHAR_CEILING,
        f"the drawing is {lines} lines of {width} characters, above the ascii ceiling "
        f"{ASCII_CHAR_CEILING} characters; this may take a while and a lot of memory"
    )
    return render_ascii(diagram) + "\n"


_HANDLERS = {
    "enumerate": cmd_enumerate,
    "map": cmd_map,
    "invert": cmd_invert,
    "verify": cmd_verify,
    "check": cmd_check,
    "render": cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    if getattr(ns, "n", 0) < 0:
        print("usage error: n must be >= 0", file=sys.stderr)
        return 2
    try:
        try:
            code = _HANDLERS[ns.subcommand](ns)
        finally:
            # The results come before a failure's message, and a failed
            # write shows here, not at exit.
            sys.stdout.flush()
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except MemoryError:
        print("memory error: this request needs more memory than there is", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone; there is no one to tell.
        _drop_stdout()
        return 3
    except OSError as exc:
        _drop_stdout()
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return code


def _drop_stdout() -> None:
    # Point stdout at devnull so that the flush at interpreter exit
    # does not fail again on the output still buffered.  A stdout with
    # no file descriptor, such as an in-process caller's StringIO, has
    # nothing to point.
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
