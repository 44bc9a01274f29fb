"""Workload scripts, seeded inputs and output checks for the benchmark.

Nothing here imports ncpseq.  The inputs are generated, and the outputs
checked, independently of the program under test, so a broken program
cannot vouch for itself.

A workload is a fixed script of CLI calls, one "pass".  The first call
of every script is the workload's smallest call (interpreter start,
import and argument parsing with almost no work); its wall time is the
benchmark's set-up time.
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SVG_NS = "{http://www.w3.org/2000/svg}"

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "verify": "the paper's claim checker; object construction, validation and "
    "structure checks dominate, kernels are about a seventh",
    "enumerate": "kernel walks, construction, canonical sort and formatting of "
    "full listings; the bijection does no work",
    "roundtrip": "seeded sequences through invert then map, plus render; no kernel "
    "work, loads parsing, the O(n^2) inverse and rendering",
}

# Input sizes of one pass.  The mix is fixed: only the values of the
# roundtrip sequences come from the seed, so every seed does the same
# amount of work.  "smoke" shrinks everything so the whole benchmark,
# every workload and every metric, runs in seconds.
SIZES = {
    "full": {
        "verify_n_max": 9,
        "enumerate_n": 10,
        "enumerate_seq_n": 11,
        "short_count": 20000,
        "short_n_max": 12,
        "long": (800,) * 4,
        "trace_render": (100, 120),
        "plain_render": (300, 300),
    },
    "smoke": {
        "verify_n_max": 3,
        "enumerate_n": 4,
        "enumerate_seq_n": 5,
        "short_count": 60,
        "short_n_max": 6,
        "long": (40,),
        "trace_render": (8,),
        "plain_render": (12,),
    },
}


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


class Tally:
    """Checks attempted and failed over a run, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


# A check sees the exit code and stdout of one call, records its checks
# in the tally and returns the number of workload items the call did.
Check = Callable[[int, str, Tally], int]


@dataclass(frozen=True)
class Call:
    """One CLI invocation: `python -m ncpseq <argv>` with stdin from a file."""

    name: str
    argv: tuple[str, ...]
    check: Check
    stdin: Path | None = None


@dataclass(frozen=True)
class Outcome:
    """What one call produced: exit code, stdout, and its costs."""

    code: int
    out: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # Sum of n_max + 1 over the script's verify calls: the number of
    # sizes the verify suites sweep in one pass.
    verify_sizes: int = 0


def random_sequence(rng: random.Random, n: int) -> list[int]:
    """A member of S_n, filling positions n..1 within the governing bounds.

    Fixing position q to m caps every earlier position p at m - (q - p);
    any choice within the current bound keeps the run completable.
    """
    values = [0] * (n + 1)
    bounds = list(range(n + 1))
    for q in range(n, 0, -1):
        m = rng.randint(1, bounds[q])
        values[q] = m
        for p in range(max(1, q - m + 1), q):
            cap = m - (q - p)
            if cap < bounds[p]:
                bounds[p] = cap
    return values[1:]


def half_stretched_sequence(rng: random.Random, n: int) -> list[int]:
    """A member of S_n with exactly n // 2 entries above 1.

    A trace shows the start plus one panel per entry above 1, so every
    seed renders the same number of panels, and the same amount of SVG.
    """
    while True:
        seq = random_sequence(rng, n)
        if sum(1 for v in seq if v > 1) == n // 2:
            return seq


def _text(seq: list[int]) -> str:
    return " ".join(map(str, seq))


def _exit_ok(code: int, tally: Tally, what: str) -> bool:
    return tally.expect(code == 0, f"{what}: exit code {code}")


def _lines(out: str) -> list[str]:
    return out.splitlines()


def check_verify(n_max: int) -> Check:
    want = [catalan(n) for n in range(n_max + 1)]

    def check(code: int, out: str, tally: Tally) -> int:
        what = f"verify --n-max {n_max}"
        _exit_ok(code, tally, what)
        try:
            report = json.loads(out)
            status, counts = report["status"], report["counts"]
            items = sum(int(c["count_checked"]) for c in report["checks"])
        except (ValueError, KeyError, TypeError) as exc:
            tally.expect(False, f"{what}: unreadable report ({exc})")
            return 0
        tally.expect(status == "pass", f"{what}: status {status!r}")
        tally.expect(counts == want, f"{what}: counts {counts} are not Catalan")
        return items

    return check


def check_special_listing(n: int) -> Check:
    def check(code: int, out: str, tally: Tally) -> int:
        what = f"enumerate --n {n}"
        _exit_ok(code, tally, what)
        lines = _lines(out)
        tally.expect(len(lines) == catalan(n), f"{what}: {len(lines)} lines")
        tally.expect(len(set(lines)) == len(lines), f"{what}: repeated lines")
        tally.expect(lines == sorted(lines), f"{what}: not in canonical text order")
        shape = all(
            line.count("|") == n and len(line.replace("|", ",").split(",")) == 2 * n + 1
            for line in lines
        )
        tally.expect(shape, f"{what}: a line is not n+1 blocks over 2n+1 elements")
        return len(lines)

    return check


def check_count_only(n: int) -> Check:
    def check(code: int, out: str, tally: Tally) -> int:
        what = f"enumerate --n {n} --count-only"
        _exit_ok(code, tally, what)
        lines = _lines(out)
        tally.expect(lines == [str(catalan(n))], f"{what}: printed {lines[:2]}")
        return len(lines)

    return check


def check_sequence_listing(n: int) -> Check:
    def check(code: int, out: str, tally: Tally) -> int:
        what = f"enumerate --n {n} --kind sequences"
        _exit_ok(code, tally, what)
        lines = _lines(out)
        try:
            seqs = [tuple(map(int, line.split())) for line in lines]
        except ValueError:
            tally.expect(False, f"{what}: a line is not integers")
            return len(lines)
        tally.expect(len(seqs) == catalan(n), f"{what}: {len(seqs)} lines")
        tally.expect(len(set(seqs)) == len(seqs), f"{what}: repeated lines")
        # The CLI orders sequences by their entries, numerically.
        tally.expect(seqs == sorted(seqs), f"{what}: not in canonical order")
        tally.expect(all(len(s) == n for s in seqs), f"{what}: a line is not n long")
        return len(lines)

    return check


def check_exact(what: str, expected: str) -> Check:
    def check(code: int, out: str, tally: Tally) -> int:
        _exit_ok(code, tally, what)
        tally.expect(out == expected, f"{what}: printed {out[:40]!r}")
        return 0

    return check


def check_invert(seqs: list[list[int]]) -> Check:
    def check(code: int, out: str, tally: Tally) -> int:
        _exit_ok(code, tally, "invert")
        lines = _lines(out)
        tally.expect(len(lines) == len(seqs), f"invert: {len(lines)} lines")
        shape = all(
            line.count("|") == len(s)
            and len(line.replace("|", ",").split(",")) == 2 * len(s) + 1
            for line, s in zip(lines, seqs)
        )
        tally.expect(shape, "invert: a line is not n+1 blocks over 2n+1 elements")
        return 0

    return check


def check_map(lines_in: list[str]) -> Check:
    def check(code: int, out: str, tally: Tally) -> int:
        _exit_ok(code, tally, "map")
        tally.expect(_lines(out) == lines_in, "map: output differs from the input")
        return len(lines_in)

    return check


def check_trace_svg(seq: list[int], path: Path) -> Check:
    n = len(seq)
    # A stretch by v > 1 always changes the diagram and v = 1 never does,
    # so the distinct stages are the start plus one per entry above 1.
    panels_wanted = 1 + sum(1 for v in seq if v > 1)

    def check(code: int, out: str, tally: Tally) -> int:
        what = f"render --trace n={n}"
        _exit_ok(code, tally, what)
        tally.expect(out == "", f"{what}: wrote to stdout with --out")
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            tally.expect(False, f"{what}: svg does not parse ({exc})")
            return 0
        paths_per_panel: list[int] = []
        for el in root:
            if el.tag == SVG_NS + "line":
                paths_per_panel.append(0)
            elif el.tag == SVG_NS + "path" and paths_per_panel:
                paths_per_panel[-1] += 1
        tally.expect(
            len(paths_per_panel) == panels_wanted,
            f"{what}: {len(paths_per_panel)} panels, want {panels_wanted}",
        )
        tally.expect(
            all(k == n for k in paths_per_panel), f"{what}: a panel lacks {n} paths"
        )
        return 0

    return check


def check_plain_render(seq: list[int]) -> Check:
    n = len(seq)
    labels = " ".join(str(p) for p in range(1, 2 * n + 2))

    def check(code: int, out: str, tally: Tally) -> int:
        what = f"render n={n}"
        _exit_ok(code, tally, what)
        lines = _lines(out)
        tally.expect(bool(lines) and lines[-1] == labels, f"{what}: wrong baseline")
        tally.expect(
            out.count("/") == n and out.count("\\") == n, f"{what}: not {n} arcs"
        )
        return 0

    return check


def build(name: str, seed: int, size: str, work: Path) -> Workload:
    """The pass script of one workload; writes any input files into work."""
    s = SIZES[size]
    if name == "verify":
        n = s["verify_n_max"]
        calls = (
            Call("setup", ("verify", "--n-max", "0"), check_verify(0)),
            Call("verify", ("verify", "--n-max", str(n)), check_verify(n)),
        )
        return Workload(name, calls, verify_sizes=1 + n + 1)
    if name == "enumerate":
        n, k = s["enumerate_n"], s["enumerate_seq_n"]
        calls = (
            Call("setup", ("enumerate", "--n", "0"), check_special_listing(0)),
            Call("special", ("enumerate", "--n", str(n)), check_special_listing(n)),
            Call("count_only", ("enumerate", "--n", str(n), "--count-only"), check_count_only(n)),
            Call(
                "sequences",
                ("enumerate", "--n", str(k), "--kind", "sequences"),
                check_sequence_listing(k),
            ),
        )
        return Workload(name, calls)
    if name == "roundtrip":
        return _roundtrip(seed, s, work)
    raise ValueError(f"unknown workload {name!r}")


def _roundtrip(seed: int, s: dict, work: Path) -> Workload:
    rng = random.Random(seed)
    short_ns = [1 + i % s["short_n_max"] for i in range(s["short_count"])]
    seqs = [random_sequence(rng, n) for n in short_ns]
    # Spread the long sequences evenly through the stream.
    step = len(seqs) // (len(s["long"]) + 1)
    for k, n in enumerate(s["long"], start=1):
        seqs.insert(k * step + k - 1, random_sequence(rng, n))
    lines_in = [_text(q) for q in seqs]
    source = work / "roundtrip.in"
    source.write_text("".join(line + "\n" for line in lines_in))
    calls = [
        Call("setup", ("map", "1"), check_exact('map "1"', "\n")),
        Call("invert", ("invert",), check_invert(seqs), stdin=source),
        # Both runners keep each call's stdout as <name>.out in the work
        # directory, so map reads what invert printed, as in a pipeline.
        Call("map", ("map",), check_map(lines_in), stdin=work / "invert.out"),
    ]
    for i, n in enumerate(s["trace_render"]):
        seq = half_stretched_sequence(rng, n)
        svg = work / f"trace{i}.svg"
        argv = ("render", "--trace", "--format", "svg", "--out", str(svg), _text(seq))
        calls.append(Call(f"trace{i}", argv, check_trace_svg(seq, svg)))
    for i, n in enumerate(s["plain_render"]):
        seq = random_sequence(rng, n)
        calls.append(Call(f"render{i}", ("render", _text(seq)), check_plain_render(seq)))
    return Workload("roundtrip", tuple(calls))
