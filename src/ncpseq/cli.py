"""Command-line front end: enumerate, map, invert, verify, check, render.

Exit codes: 0 on success, 1 when well-formed input fails a membership
condition or a claim check fails, 2 on unparseable input or bad usage,
3 when writing the output fails: the output file cannot be written, or
the reader of stdout closes it early (then nothing is printed on stderr).

map and invert read one object from argv or, when omitted, convert
every line of stdin, so enumerate can pipe straight through them.
Each stdin line is one input, and the stream stops at the first line
that fails, with that line's exit code, after the results of the lines
before it are printed.  A blank line is the n = 0 sequence for invert
and a parse error (exit 2) for map.
enumerate warns on stderr before listing above n = LISTING_N_CEILING
and before counting above n = COUNT_N_CEILING.
render takes a single input and decides what it is: text containing
"," or "|" (or a lone token) is a partition, anything else is treated
as a sequence and inverted first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from ncpseq import verify as verify_mod
from ncpseq.bijection import forward, inverse, inverse_trace
from ncpseq.errors import ParseError, ValidationError
from ncpseq.oracles import count_special, enumerate_special
from ncpseq.partitions import (
    Partition,
    format_partition,
    parse_partition,
    special_violation,
    to_arcs,
)
from ncpseq.render import render_ascii, render_svg, render_trace
from ncpseq.sequences import (
    CatSeq,
    count_all,
    format_sequence,
    generate_all,
    parse_sequence,
)

# enumerate lists every object at size n; above this n it warns first.
LISTING_N_CEILING = 11
# enumerate --count-only takes about n^3 bit operations (seconds at
# n = 2000); above this n it warns first.
COUNT_N_CEILING = 1000

CLAIMS = (
    "cardinality",
    "round-trip",
    "special-structure",
    "floor-sum",
    "min-blocks",
    "max-ground",
)


@dataclass(frozen=True)
class CliConfig:
    """One parsed invocation; n doubles as n_max for verify and check."""

    subcommand: str
    n: int = 0
    text: str | None = None
    kind: str = "special"
    count_only: bool = False
    trace: bool = False
    as_json: bool = False
    fmt: str = "ascii"
    out: str | None = None
    claim: str | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValidationError("n must be >= 0")


def _ascii_int(text: str) -> int:
    """argparse type: int() restricted to ASCII text, as in the parsers."""
    if text.isascii():
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpseq",
        description="special non-crossing partitions, their Catalan sequences, "
        "and checks of the facts relating them",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", help="list or count all objects at one size")
    p.add_argument("--n", type=_ascii_int, required=True, help="sequence length / (ground-1)/2")
    p.add_argument("--kind", choices=("special", "sequences"), default="special")
    p.add_argument("--count-only", action="store_true", help="print the count instead")

    p = sub.add_parser("map", help="partition -> sequence")
    p.add_argument("partition", nargs="?", help="canonical text; stdin lines if omitted")

    p = sub.add_parser("invert", help="sequence -> partition")
    p.add_argument("sequence", nargs="?", help="space-separated; stdin lines if omitted")
    p.add_argument("--trace", action="store_true", help="print each construction step")
    p.add_argument("--json", action="store_true", help="trace as a JSON array")

    p = sub.add_parser("verify", help="run all claim suites, print a JSON report")
    p.add_argument("--n-max", type=_ascii_int, default=verify_mod.DEFAULT_N_CEILING)

    p = sub.add_parser("check", help="run a single claim suite")
    p.add_argument("claim", choices=CLAIMS)
    p.add_argument("--n-max", type=_ascii_int, default=verify_mod.DEFAULT_N_CEILING)
    p.add_argument("--json", action="store_true", help="full report as JSON")

    p = sub.add_parser("render", help="draw a partition or sequence as arcs")
    p.add_argument("input", nargs="?", help="partition or sequence; stdin if omitted")
    p.add_argument("--format", dest="fmt", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out", help="write here instead of stdout")
    p.add_argument("--trace", action="store_true", help="render every stage (svg only)")
    return parser


def _config(ns: argparse.Namespace) -> CliConfig:
    cmd = ns.subcommand
    if cmd == "enumerate":
        return CliConfig(cmd, n=ns.n, kind=ns.kind, count_only=ns.count_only)
    if cmd == "map":
        return CliConfig(cmd, text=ns.partition)
    if cmd == "invert":
        return CliConfig(cmd, text=ns.sequence, trace=ns.trace, as_json=ns.json)
    if cmd == "verify":
        return CliConfig(cmd, n=ns.n_max)
    if cmd == "check":
        return CliConfig(cmd, n=ns.n_max, claim=ns.claim, as_json=ns.json)
    return CliConfig(cmd, text=ns.input, fmt=ns.fmt, out=ns.out, trace=ns.trace)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _inputs(cfg: CliConfig) -> list[str]:
    if cfg.text is not None:
        return [cfg.text]
    return sys.stdin.read().splitlines()


def cmd_enumerate(cfg: CliConfig) -> int:
    if cfg.count_only and cfg.n > COUNT_N_CEILING:
        print(
            f"warning: n {cfg.n} is above the count ceiling "
            f"{COUNT_N_CEILING}; counting takes about n^3 bit operations "
            f"and may take a while",
            file=sys.stderr,
        )
    if not cfg.count_only and cfg.n > LISTING_N_CEILING:
        print(
            f"warning: n {cfg.n} is above the listing ceiling "
            f"{LISTING_N_CEILING}; this lists catalan({cfg.n}) objects "
            f"and may take a while",
            file=sys.stderr,
        )
    if cfg.kind == "special":
        if cfg.count_only:
            print(count_special(cfg.n))
        else:
            for part in enumerate_special(cfg.n):
                print(format_partition(part))
        return 0
    if cfg.count_only:
        print(count_all(cfg.n))
    else:
        for seq in generate_all(cfg.n):
            print(format_sequence(seq))
    return 0


def _parse_partition_arg(text: str) -> Partition | int:
    try:
        return parse_partition(text)
    except ParseError as exc:
        return _fail(2, f"parse error: {exc}")
    except ValidationError as exc:
        return _fail(2, f"invalid partition: {exc}")


def cmd_map(cfg: CliConfig) -> int:
    for text in _inputs(cfg):
        part = _parse_partition_arg(text)
        if isinstance(part, int):
            return part
        reason = special_violation(part)
        if reason is not None:
            return _fail(1, f"not special: {reason}")
        print(format_sequence(forward(part)))
    return 0


def _parse_sequence_arg(text: str) -> CatSeq | int:
    try:
        return parse_sequence(text)
    except ParseError as exc:
        return _fail(2, f"parse error: {exc}")
    except ValidationError as exc:
        return _fail(1, f"invalid sequence: {exc}")


def cmd_invert(cfg: CliConfig) -> int:
    if cfg.as_json and not cfg.trace:
        return _fail(2, "--json needs --trace")
    for text in _inputs(cfg):
        seq = _parse_sequence_arg(text)
        if isinstance(seq, int):
            return seq
        if cfg.trace:
            trace = inverse_trace(seq)
            if cfg.as_json:
                print(trace.to_json())
            else:
                body = trace.to_text()
                if body:
                    print(body)
                print(format_partition(trace.final_partition()))
        else:
            print(format_partition(inverse(seq)))
    return 0


def cmd_verify(cfg: CliConfig) -> int:
    if cfg.n > verify_mod.DEFAULT_N_CEILING:
        print(
            f"warning: n_max {cfg.n} is above the default ceiling "
            f"{verify_mod.DEFAULT_N_CEILING}; this may take a while",
            file=sys.stderr,
        )
    report = verify_mod.run_verify(cfg.n)
    print(json.dumps(report, indent=2))
    return 0 if report["status"] == "pass" else 1


def cmd_check(cfg: CliConfig) -> int:
    if cfg.claim == "cardinality":
        report = verify_mod.cardinality_suite(cfg.n)
    elif cfg.claim == "round-trip":
        report = verify_mod.round_trip_suite(cfg.n)
    elif cfg.claim == "special-structure":
        report = verify_mod.special_structure_suite(cfg.n)
    elif cfg.claim == "floor-sum":
        report = verify_mod.floor_sum_suite()
    elif cfg.claim == "min-blocks":
        report = verify_mod.min_blocks_suite(cfg.n)
    else:
        report = verify_mod.max_ground_suite(cfg.n)
    if cfg.as_json:
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


def cmd_render(cfg: CliConfig) -> int:
    text = cfg.text if cfg.text is not None else sys.stdin.read().strip()
    looks_like_partition = (
        "|" in text or "," in text or len(text.split()) <= 1
    )
    if looks_like_partition:
        if cfg.trace:
            return _fail(2, "--trace needs a sequence input")
        part = _parse_partition_arg(text)
        if isinstance(part, int):
            return part
        try:
            diagram = to_arcs(part)
        except ValidationError as exc:
            return _fail(1, f"invalid partition: {exc}")
        content = _render_diagram(cfg, diagram)
    else:
        seq = _parse_sequence_arg(text)
        if isinstance(seq, int):
            return seq
        if cfg.trace:
            if cfg.fmt != "svg":
                return _fail(2, "--trace renders svg only")
            content = render_trace(inverse_trace(seq))
        else:
            content = _render_diagram(cfg, to_arcs(inverse(seq)))
    if cfg.out is None:
        sys.stdout.write(content)
        return 0
    try:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
    except OSError as exc:
        return _fail(3, f"io error: {exc}")
    return 0


def _render_diagram(cfg: CliConfig, diagram) -> str:
    if cfg.fmt == "svg":
        return render_svg(diagram)
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
    try:
        cfg = _config(ns)
    except ValidationError as exc:
        return _fail(2, f"usage error: {exc}")
    try:
        code = _HANDLERS[cfg.subcommand](cfg)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the
        # flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
