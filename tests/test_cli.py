"""End-to-end CLI behavior: output, exit codes, pipes, the JSON report."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncpseq
import ncpseq._kernels_py
import ncpseq.bijection
import ncpseq.cli
import ncpseq.oracles
import ncpseq.partitions
import ncpseq.render
import ncpseq.sequences
import ncpseq.verify
from ncpseq import (
    CatSeq,
    CheckReport,
    Partition,
    catalan,
    enumerate_special,
    format_partition,
    format_sequence,
    generate_all,
    inverse_trace,
    render_trace,
)
from ncpseq.cli import main

from bruteforce import half_stretched_member, random_member

PART_13 = "1,13|2,4,6,12|3|5|7,11|8,10|9"


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(*argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    return run


def test_enumerate_sequences_n2(cli):
    code, out, err = cli("enumerate", "--kind", "sequences", "--n", "2")
    assert code == 0
    assert out == "1 1\n1 2\n"


def test_enumerate_special_n0(cli):
    assert cli("enumerate", "--n", "0") == (0, "1\n", "")


def test_enumerate_count_only(cli):
    assert cli("enumerate", "--n", "6", "--count-only")[:2] == (0, "132\n")
    assert cli("enumerate", "--kind", "sequences", "--n", "6", "--count-only")[:2] == (
        0,
        "132\n",
    )


@pytest.mark.parametrize(
    "argv, n",
    [(("--n", "500"), 500), (("--n", "900", "--kind", "sequences"), 900)],
)
def test_enumerate_counts_far_past_any_listing(cli, argv, n):
    assert cli("enumerate", *argv, "--count-only") == (0, f"{catalan(n)}\n", "")


def test_enumerate_warns_above_the_listing_ceiling(cli, monkeypatch):
    monkeypatch.setattr(ncpseq._kernels_py, "special_partitions", lambda n, *args: [])
    monkeypatch.setattr(ncpseq._kernels_py, "catalan_sequences", lambda n, *args: [])
    for kind in ("special", "sequences"):
        assert cli("enumerate", "--kind", kind, "--n", "11") == (0, "", "")
        code, out, err = cli("enumerate", "--kind", kind, "--n", "12")
        assert (code, out) == (0, "")
        assert err.startswith("warning: n 12 is above the listing ceiling 11")
    monkeypatch.setattr(ncpseq.oracles, "count_special", lambda n: 0)
    monkeypatch.setattr(ncpseq.sequences, "count_all", lambda n: 0)
    assert cli("enumerate", "--n", "12", "--count-only") == (0, "0\n", "")
    for kind in ("special", "sequences"):
        assert cli("enumerate", "--kind", kind, "--n", "1000", "--count-only") == (
            0,
            "0\n",
            "",
        )
        code, out, err = cli("enumerate", "--kind", kind, "--n", "1001", "--count-only")
        assert (code, out) == (0, "0\n")
        assert err.startswith("warning: n 1001 is above the count ceiling 1000")
        assert err.count("\n") == 1


@pytest.mark.parametrize("n", range(10))
def test_enumerate_lists_the_library_objects_as_text(cli, n):
    special = "".join(f"{format_partition(p)}\n" for p in enumerate_special(n))
    assert cli("enumerate", "--n", str(n)) == (0, special, "")
    sequences = "".join(f"{format_sequence(s)}\n" for s in generate_all(n))
    assert cli("enumerate", "--n", str(n), "--kind", "sequences") == (0, sequences, "")


def test_enumerate_builds_no_objects(cli, monkeypatch):
    kinds = ("special", "sequences")
    want = {kind: cli("enumerate", "--n", "8", "--kind", kind) for kind in kinds}

    def refuse(*args, **kwargs):
        raise AssertionError("the listing built an object")

    monkeypatch.setattr(Partition, "_trusted", refuse)
    monkeypatch.setattr(CatSeq, "__init__", refuse)
    for kind, result in want.items():
        assert cli("enumerate", "--n", "8", "--kind", kind) == result


def test_enumerate_writes_in_chunks(monkeypatch):
    class Counting(io.StringIO):
        writes = 0

        def write(self, text):
            Counting.writes += 1
            return super().write(text)

    out = Counting()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "--n", "9", "--kind", "sequences"]) == 0
    assert out.getvalue().count("\n") == 4862
    assert Counting.writes == -(-4862 // ncpseq.cli._CHUNK_LINES)


def test_a_text_longer_than_the_write_bound_is_written_at_once(monkeypatch):
    writes = []

    class Out(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    def texts():
        yield "x" * 10 + "\n"
        assert writes == ["x" * 10 + "\n"]
        yield from ("ab\n", "cd\n", "e\n")

    monkeypatch.setattr(ncpseq.cli, "_WRITE_CHARS", 4)
    ncpseq.cli._write(Out(), texts())
    assert writes == ["x" * 10 + "\n", "ab\ncd\n", "e\n"]


def test_enumerate_rejects_negative_n(cli):
    code, out, err = cli("enumerate", "--n", "-3")
    assert code == 2
    assert "n must be >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "\uff13"),
        ("verify", "--n-max", "\uff12"),
        ("check", "min-blocks", "--n-max", "\uff13"),
        ("enumerate", "--n", "1_0"),
        ("verify", "--n-max", "+3"),
        ("check", "min-blocks", "--n-max", " 4"),
    ],
)
def test_integer_options_take_ascii_digits_only(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid int value" in err


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_map_worked_example(cli):
    code, out, err = cli("map", PART_13)
    assert (code, out) == (0, "1 2 3 1 1 6\n")


def test_map_crossing_diagnostic(cli):
    code, out, err = cli("map", "1,3|2,4|5")
    assert code == 1
    assert "crossing" in err


def _parse_error(result):
    code, out, err = result
    return code == 2 and out == "" and err.startswith("parse error:") and err.count("\n") == 1


def test_map_parse_and_validation_codes(cli):
    assert cli("map", "1,x|2")[0] == 2
    assert cli("map", "1,3|2,2")[0] == 2
    assert cli("map", "1,4,5|2|3")[0] == 1
    assert _parse_error(cli("map", "1,3|\u00b2"))
    assert _parse_error(cli("map", "\u0661,\u0662"))


def test_map_reads_stdin_lines(cli):
    code, out, err = cli("map", stdin="1,3,5|2|4\n1,5|2,4|3\n")
    assert (code, out) == (0, "1 1\n1 2\n")


def test_map_checks_each_input_once(cli, monkeypatch):
    # The special check of a special partition is one scan, for
    # non-crossing and "no consecutive pair" at once.
    scans = []
    real = ncpseq.partitions._semi_special_violation
    monkeypatch.setattr(
        ncpseq.partitions, "_semi_special_violation", lambda p: scans.append(p) or real(p)
    )
    code, out, err = cli("map", stdin=f"1,3,5|2|4\n1,5|2,4|3\n{PART_13}\n")
    assert (code, out) == (0, "1 1\n1 2\n1 2 3 1 1 6\n")
    assert len(scans) == 3


@pytest.mark.parametrize("text, missing", [("999999999999", 1), ("1,999999999999", 2)])
def test_map_of_a_huge_element_exits_2_at_once(cli, text, missing):
    tracemalloc.start()
    try:
        started = time.perf_counter()
        result = cli("map", text)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "", f"invalid partition: element {missing} missing from the partition\n")
    # Nothing is sized by the element: no array of 10^12 entries, and no
    # walk over them.
    assert peak < 1_000_000
    assert elapsed < 5


def test_invert_worked_example(cli):
    assert cli("invert", "1 2 3 1 1 6") == (0, PART_13 + "\n", "")


def test_invert_stdin_with_empty_line_is_n0(cli):
    code, out, err = cli("invert", stdin="\n1 2\n")
    assert (code, out) == (0, "1\n1,5|2,4|3\n")


def test_map_stdin_stops_at_a_blank_line(cli):
    code, out, err = cli("map", stdin="1,3,5|2|4\n\n1,5|2,4|3\n")
    assert (code, out) == (2, "1 1\n")
    assert err == "parse error: expected a positive integer, got ''\n"


def test_invert_error_codes(cli):
    assert cli("invert", "2 1")[0] == 1
    assert cli("invert", "one")[0] == 2
    assert _parse_error(cli("invert", "1 \u00b2"))
    assert _parse_error(cli("invert", "1 2 \uff13"))


def test_invert_trace_text(cli):
    code, out, err = cli("invert", "1 2", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("step 1: (1,3)->(1,5);")
    assert lines[-1] == "1,5|2,4|3"


def test_invert_trace_json(cli):
    code, out, err = cli("invert", "1 2", "--trace", "--json")
    assert code == 0
    records = json.loads(out)
    assert [r["step"] for r in records] == [1, 2]


def test_invert_json_requires_trace(cli):
    assert cli("invert", "1 2", "--json")[0] == 2


@pytest.mark.parametrize("n", range(8))
def test_invert_trace_writes_what_the_library_trace_gives(cli, n):
    """Text: to_text() and the final partition; --json: to_json(); per member."""
    members = list(generate_all(n))
    stdin = "".join(f"{format_sequence(s)}\n" for s in members)
    text = json_text = ""
    for s in members:
        trace = inverse_trace(s)
        body = trace.to_text()
        text += (body + "\n" if body else "") + format_partition(trace.final_partition()) + "\n"
        json_text += trace.to_json() + "\n"
    assert cli("invert", "--trace", stdin=stdin) == (0, text, "")
    assert cli("invert", "--trace", "--json", stdin=stdin) == (0, json_text, "")


def test_invert_trace_warns_above_the_trace_ceiling(cli, monkeypatch):
    # n lines of 2n + 1 elements: 706 * 1413 is within the ceiling, 707 * 1415 is not.
    assert 706 * 1413 <= ncpseq.cli.TRACE_ELEMENT_CEILING < 707 * 1415
    # Only the warning is under test here, so the steps are left out.
    monkeypatch.setattr(ncpseq.bijection, "_trace_steps", lambda start, s: iter(()))
    for flags in ((), ("--json",)):
        assert cli("invert", "--trace", *flags, " ".join(["1"] * 706))[::2] == (0, "")
        code, out, err = cli("invert", "--trace", *flags, " ".join(["1"] * 1000))
        assert (code, err) == (
            0,
            "warning: the trace prints 1000 steps of 2001 elements, above the trace ceiling "
            "1000000 elements; this may take a while and a lot of memory\n",
        )


def test_invert_trace_warns_before_each_input_above_the_ceiling(cli, monkeypatch):
    stdin = "1 2\n1\n1 1\n"
    quiet = cli("invert", "--trace", stdin=stdin)
    monkeypatch.setattr(ncpseq.cli, "TRACE_ELEMENT_CEILING", 9)
    warning = (
        "warning: the trace prints 2 steps of 5 elements, above the trace ceiling 9 elements; "
        "this may take a while and a lot of memory\n"
    )
    assert cli("invert", "--trace", stdin=stdin) == (0, quiet[1], 2 * warning)


def test_invert_trace_holds_one_diagram_at_a_time(monkeypatch):
    """The staircase trace at n = 300 is 1.7 MB of text.  Streamed, it peaked at 3.7 MB
    under tracemalloc; with every diagram built before the first line, at 11.8 MB."""
    s = CatSeq(tuple(range(1, 301)))
    trace = inverse_trace(s)
    want = trace.to_text() + "\n" + format_partition(trace.final_partition()) + "\n"
    del trace

    class Sink(io.TextIOBase):
        """A stdout that keeps a digest of what it is given, not the text."""

        def __init__(self):
            self.digest = hashlib.sha256()

        def write(self, text):
            self.digest.update(text.encode())
            return len(text)

    out = Sink()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        assert main(["invert", "--trace", format_sequence(s)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.digest.hexdigest() == hashlib.sha256(want.encode()).hexdigest()
    assert peak < 6_000_000


def test_invert_trace_json_arrives_in_pieces(monkeypatch):
    writes = []

    class Out(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    s = CatSeq(tuple(range(1, 9)))
    monkeypatch.setattr(sys, "stdout", Out())
    monkeypatch.setattr(ncpseq.cli, "_WRITE_CHARS", 64)
    assert main(["invert", "--trace", "--json", format_sequence(s)]) == 0
    assert len(writes) > 1
    assert "".join(writes) == inverse_trace(s).to_json() + "\n"


def test_invert_trace_json_holds_one_chunk_at_a_time(monkeypatch):
    """The staircase JSON trace at n = 200 is 0.8 MB.  Written record by record, with
    64 KB chunks, it peaked at 0.23 MB under tracemalloc; as one string, at 1.7 MB."""

    class Discard(io.TextIOBase):
        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Discard())
    monkeypatch.setattr(ncpseq.cli, "_WRITE_CHARS", 1 << 16)
    argv = ["invert", "--trace", "--json", " ".join(map(str, range(1, 201)))]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_pipe_round_trip_in_process(cli):
    code, listing, _ = cli("enumerate", "--n", "4")
    code, mapped, _ = cli("map", stdin=listing)
    assert code == 0
    code, back, _ = cli("invert", stdin=mapped)
    assert (code, back) == (0, listing)


def test_pipe_round_trip_through_the_shell():
    base = f"{sys.executable} -m ncpseq"
    pipeline = f"{base} enumerate --n 7 | {base} map | {base} invert"
    got = subprocess.run(
        pipeline, shell=True, capture_output=True, text=True, check=True
    )
    want = subprocess.run(
        f"{base} enumerate --n 7", shell=True, capture_output=True, text=True, check=True
    )
    assert got.stdout == want.stdout
    assert got.stdout.count("\n") == 429


def _read_one_line_then_close(argv, stdin=None):
    """Run the CLI, read its first stdout line, close the pipe, return the rest."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncpseq", *argv],
        stdin=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first, proc.wait(timeout=60), err


# Each listing is several times the size of a pipe buffer, so the
# writer is bound to meet the closed pipe.
def test_closed_stdout_pipe_exits_3_quietly():
    first, code, err = _read_one_line_then_close(["enumerate", "--n", "9"])
    assert first.startswith(b"1,")
    assert (code, err) == (3, b"")


def test_closed_stdout_pipe_exits_3_quietly_on_stdin_input(tmp_path):
    listing = tmp_path / "sequences.txt"
    listing.write_text("".join(f"{format_sequence(s)}\n" for s in generate_all(10)))
    with listing.open("rb") as stdin:
        first, code, err = _read_one_line_then_close(["invert"], stdin=stdin)
    assert first == b"1,3,5,7,9,11,13,15,17,19,21|2|4|6|8|10|12|14|16|18|20\n"
    assert (code, err) == (3, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [("enumerate", "--n", "3"), ("enumerate", "--n", "9"), ("invert", "1 2")]
)
def test_failed_stdout_write_exits_3_with_one_line(argv):
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            [sys.executable, "-m", "ncpseq", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert res.returncode == 3
    assert res.stderr.startswith("io error: [Errno 28]")
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, line, result",
    [(["map"], "1,5|2,4|3\n", "1 2\n"), (["invert"], "1 2\n", "1,5|2,4|3\n")],
)
def test_stdin_stream_writes_before_the_input_ends(monkeypatch, argv, line, result):
    total = 3 * ncpseq.cli._CHUNK_LINES

    class Lines:
        """A stdin with no read(); its lines are counted as they are drawn."""

        drawn = 0

        def __iter__(self):
            for _ in range(total):
                Lines.drawn += 1
                yield line

    class Out(io.StringIO):
        drawn_at_first_write = None

        def write(self, text):
            if Out.drawn_at_first_write is None:
                Out.drawn_at_first_write = Lines.drawn
            return super().write(text)

    out = Out()
    monkeypatch.setattr(sys, "stdin", Lines())
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    assert out.getvalue() == result * total
    assert Out.drawn_at_first_write == ncpseq.cli._CHUNK_LINES


def test_stdin_stream_prints_its_results_before_the_failure():
    listing = subprocess.run(
        [sys.executable, "-m", "ncpseq", "enumerate", "--n", "8"],
        capture_output=True, text=True, check=True,
    ).stdout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    res = subprocess.run(
        [sys.executable, "-m", "ncpseq", "map"],
        input=listing + "1,3|2,4|5\n1\n",
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    lines = res.stdout.splitlines()
    assert res.returncode == 1
    assert len(lines) == catalan(8) + 1
    assert lines[-1].startswith("not special:")


def test_verify_report(cli):
    code, out, err = cli("verify", "--n-max", "3")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["status"] == "pass"
    assert report["counts"] == [1, 1, 2, 5]
    assert len(report["checks"]) == 5
    assert err == ""


def test_verify_warns_above_ceiling(cli, monkeypatch):
    monkeypatch.setattr(
        "ncpseq.verify.run_verify",
        lambda n_max: {"schema": 1, "status": "pass", "checks": []},
    )
    code, out, err = cli("verify", "--n-max", "11")
    assert code == 0
    assert "warning" in err and "11" in err


@pytest.mark.parametrize("claim", sorted(ncpseq.verify.CLAIM_SUITES))
def test_check_warns_above_ceiling_when_its_work_grows_with_n_max(cli, monkeypatch, claim):
    """check warns as verify does, for the claims that sweep every object up to n_max."""
    sweeps = claim in {"cardinality", "round-trip", "special-structure"}
    warning = "warning: n_max 10 is above the default ceiling 9; this may take a while\n"
    suite = claim.replace("-", "_") + "_suite"
    # Neither the suite nor the walk it would read runs.
    monkeypatch.setattr(ncpseq.verify, "_each_size", lambda listing, n_max: None)
    for passed, code in ((True, 0), (False, 1)):
        planted = CheckReport(claim, "planted", passed, 0, 0.0, None if passed else "planted")
        monkeypatch.setattr(ncpseq.verify, suite, lambda *args: planted)
        assert cli("check", claim, "--n-max", "9")[::2] == (code, "")
        for json_flag in ((), ("--json",)):
            got = cli("check", claim, "--n-max", "10", *json_flag)[::2]
            assert got == (code, warning if sweeps else "")


def test_verify_flags_mutated_forward_map(cli, monkeypatch):
    """A planted wrong forward map must fail verify with a minimal witness."""
    monkeypatch.setattr(
        ncpseq.bijection,
        "forward",
        lambda p: CatSeq((1,) * ((p.ground_size - 1) // 2)),
    )
    code, out, err = cli("verify", "--n-max", "4")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    by_claim = {c["claim"]: c for c in report["checks"]}
    assert by_claim["round-trip"]["status"] == "fail"
    assert "1,5|2,4|3" in by_claim["round-trip"]["counterexample"]
    assert by_claim["cardinality"]["status"] == "pass"


def test_verify_flags_a_non_special_kernel_partition(cli, monkeypatch):
    """A walk that emits a crossing partition must fail the cardinality claim."""
    walk = ncpseq._kernels_py.special_partitions

    def planted(n):
        out = walk(n)
        if n == 3:
            out[0] = ((1, 4, 7), (2, 5), (3,), (6,))
        return out

    monkeypatch.setattr(ncpseq._kernels_py, "special_partitions", planted)
    code, out, err = cli("verify", "--n-max", "4")
    assert code == 1
    by_claim = {c["claim"]: c for c in json.loads(out)["checks"]}
    assert by_claim["cardinality"]["status"] == "fail"
    assert by_claim["cardinality"]["counterexample"] == (
        "n=3: 4 partitions, 5 sequences, catalan 5"
    )


def test_verify_flags_a_wrong_inverse_answer(cli, monkeypatch):
    """Two swapped n=3 answers of inverse fail round-trip at the first partition."""
    real = ncpseq.bijection.inverse
    a, b = CatSeq((1, 1, 2)), CatSeq((1, 2, 3))

    def planted(s):
        return real(b if s == a else a if s == b else s)

    monkeypatch.setattr(ncpseq.bijection, "inverse", planted)
    code, out, err = cli("verify", "--n-max", "4")
    assert code == 1
    by_claim = {c["claim"]: c for c in json.loads(out)["checks"]}
    assert by_claim["round-trip"]["counterexample"] == (
        "inverse(forward(1,5,7|2,4|3|6)) = 1,7|2,6|3,5|4"
    )
    assert by_claim["round-trip"]["count_checked"] == 39
    assert by_claim["cardinality"]["status"] == "pass"


def test_check_single_claim(cli):
    code, out, err = cli("check", "min-blocks", "--n-max", "4")
    assert code == 0
    assert out.startswith("check min-blocks over m=1..9: pass")
    code, out, err = cli("check", "max-ground", "--n-max", "3", "--json")
    assert code == 0
    assert json.loads(out)["claim"] == "max-ground"


def test_check_failure_exits_1(cli, monkeypatch):
    monkeypatch.setattr(
        ncpseq.bijection,
        "forward",
        lambda p: CatSeq((1,) * ((p.ground_size - 1) // 2)),
    )
    code, out, err = cli("check", "round-trip", "--n-max", "3")
    assert code == 1
    assert "fail" in out and "counterexample" in out


@pytest.mark.parametrize("claim", sorted(ncpseq.verify.CLAIM_SUITES))
def test_check_runs_the_suite_named_on_the_verify_module(cli, monkeypatch, claim):
    planted = CheckReport(claim, "planted", False, 0, 0.0, "planted")
    suite = claim.replace("-", "_") + "_suite"
    monkeypatch.setattr(ncpseq.verify, suite, lambda *args: planted)
    assert cli("check", claim, "--n-max", "2") == (
        1,
        f"check {claim} over planted: fail, counterexample planted\n",
        "",
    )


def test_check_walks_only_what_its_suite_reads(cli, monkeypatch):
    sizes = []
    walk = ncpseq.sequences.generate_all

    def counting_walk(n, **kwargs):
        sizes.append(n)
        return walk(n, **kwargs)

    monkeypatch.setattr(ncpseq.sequences, "generate_all", counting_walk)
    monkeypatch.setattr(ncpseq.verify, "generate_all", counting_walk)
    assert cli("check", "special-structure", "--n-max", "4")[0] == 0
    assert sizes == []
    assert cli("check", "cardinality", "--n-max", "4")[0] == 0
    assert sizes == [0, 1, 2, 3, 4]


def test_check_rejects_unknown_claim():
    with pytest.raises(SystemExit):
        main(["check", "perpetual-motion"])


def test_render_ascii_default(cli):
    code, out, err = cli("render", "1,5|2,4|3")
    assert code == 0
    assert out == "/-------\\\n  /---\\\n1 2 3 4 5\n"


def test_render_single_point(cli):
    assert cli("render", "1") == (0, "1\n", "")


def test_render_sequence_matches_partition_bytes(cli):
    from_part = cli("render", PART_13, "--format", "svg")
    from_seq = cli("render", "1 2 3 1 1 6", "--format", "svg")
    assert from_part[0] == from_seq[0] == 0
    assert from_part[1] == from_seq[1]


def test_render_blank_input_is_the_empty_sequence(cli):
    svg = render_trace(inverse_trace(CatSeq(())))
    assert svg.count("<line") == 1
    for stdin in ("", "\n", "  \n"):
        assert cli("render", stdin=stdin) == (0, "1\n", "")
        assert cli("render", "--trace", "--format", "svg", stdin=stdin) == (0, svg, "")
    for arg in ("", " "):
        assert cli("render", arg) == (0, "1\n", "")
        assert cli("render", arg, "--trace", "--format", "svg") == (0, svg, "")


def test_render_writes_the_whole_text_in_slices(cli, monkeypatch, tmp_path):
    whole = cli("render", "1 2 3 1 1 6", "--trace", "--format", "svg")
    monkeypatch.setattr(ncpseq.cli, "_WRITE_CHARS", 7)
    assert cli("render", "1 2 3 1 1 6", "--trace", "--format", "svg") == whole
    target = tmp_path / "trace.svg"
    assert cli("render", "1 2 3 1 1 6", "--trace", "--format", "svg", "--out", str(target)) == (
        0,
        "",
        "",
    )
    assert target.read_text(encoding="utf-8") == whole[1]


def test_render_warns_above_the_ascii_ceiling(cli, monkeypatch):
    # Two arc rows and the labels, 9 characters wide: 27 characters.
    quiet = cli("render", "1,5|2,4|3")
    monkeypatch.setattr(ncpseq.cli, "ASCII_CHAR_CEILING", 27)
    assert cli("render", "1,5|2,4|3") == quiet
    assert cli("render", "1 2") == quiet
    monkeypatch.setattr(ncpseq.cli, "ASCII_CHAR_CEILING", 26)
    for text in ("1,5|2,4|3", "1 2"):
        code, out, err = cli("render", text)
        assert (code, out) == quiet[:2]
        assert err == (
            "warning: the drawing is 3 lines of 9 characters, above the ascii "
            "ceiling 26 characters; this may take a while and a lot of memory\n"
        )
    assert cli("render", "1,5|2,4|3", "--format", "svg")[2] == ""


def test_render_warns_above_the_trace_ceiling(cli, monkeypatch):
    # The start and one stretch: 2 panels of 5 points.
    quiet = cli("render", "1 2", "--trace", "--format", "svg")
    monkeypatch.setattr(ncpseq.cli, "TRACE_POINT_CEILING", 10)
    assert cli("render", "1 2", "--trace", "--format", "svg") == quiet
    monkeypatch.setattr(ncpseq.cli, "TRACE_POINT_CEILING", 9)
    code, out, err = cli("render", "1 2", "--trace", "--format", "svg")
    assert (code, out) == quiet[:2]
    assert err == (
        "warning: the trace draws 2 panels of 5 points, above the trace ceiling "
        "9 points; this may take a while and a lot of memory\n"
    )
    assert cli("render", "1 1", "--trace", "--format", "svg")[2] == ""


def test_render_warns_on_none_of_the_benchmark_renders(cli, tmp_path):
    """The roundtrip workload traces half-stretched members at n = 100 and
    120 and draws members at n = 300, whatever its seed."""
    width = len(" ".join(map(str, range(1, 602))))
    assert (300 + 1) * width <= ncpseq.cli.ASCII_CHAR_CEILING
    assert (120 // 2 + 1) * 241 <= ncpseq.cli.TRACE_POINT_CEILING
    rng = random.Random(12)
    for n in (100, 120):
        text = " ".join(map(str, half_stretched_member(rng, n)))
        target = tmp_path / "trace.svg"
        assert cli("render", "--trace", "--format", "svg", "--out", str(target), text) == (
            0,
            "",
            "",
        )
    for text in (" ".join(map(str, random_member(rng, 300))), " ".join(map(str, range(1, 301)))):
        code, out, err = cli("render", text)
        assert (code, err) == (0, "")


def test_render_reads_stdin(cli):
    code, out, err = cli("render", stdin="1,5|2,4|3\n")
    assert code == 0
    assert out.endswith("1 2 3 4 5\n")


class _Endless(io.TextIOBase):
    """A stdin that never ends: each read returns as much as asked."""

    def read(self, size=-1):
        if size is None or size < 0:
            raise MemoryError("read all of an endless stdin")
        return "x" * size


def test_render_reads_a_bounded_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", _Endless())
    assert main(["render"]) == 2
    out, err = capsys.readouterr()
    limit = ncpseq.cli.RENDER_STDIN_LIMIT
    assert (out, err) == ("", f"usage error: render reads at most {limit} characters of stdin\n")


def test_render_stdin_limit_is_inclusive(cli, monkeypatch):
    text = "1,5|2,4|3\n"
    monkeypatch.setattr(ncpseq.cli, "RENDER_STDIN_LIMIT", len(text))
    assert cli("render", stdin=text) == cli("render", "1,5|2,4|3")
    code, out, err = cli("render", stdin=text + " ")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: render reads at most")


def test_render_error_codes(cli):
    assert cli("render", "1,3|2,4|5")[0] == 1  # crossing: valid text, no diagram
    assert cli("render", "1,3|2,2")[0] == 2
    assert cli("render", "2 1")[0] == 1
    assert cli("render", "what")[0] == 2
    assert _parse_error(cli("render", "\u00b9"))


def test_render_trace_needs_sequence_and_svg(cli):
    assert cli("render", PART_13, "--trace", "--format", "svg")[0] == 2
    assert cli("render", "1 2", "--trace")[0] == 2


def test_render_trace_svg(cli):
    code, out, err = cli("render", "1 1 1 4 1 2 1 4", "--trace", "--format", "svg")
    assert code == 0
    assert out.count("<line") == 4


def test_render_out_file(cli, tmp_path):
    target = tmp_path / "diagram.svg"
    code, out, err = cli("render", PART_13, "--format", "svg", "--out", str(target))
    assert (code, out) == (0, "")
    direct = cli("render", PART_13, "--format", "svg")[1]
    assert target.read_text(encoding="utf-8") == direct


def test_render_io_error_exits_3(cli, tmp_path):
    code, out, err = cli("render", "1", "--out", str(tmp_path))
    assert code == 3
    assert err.startswith("io error:")


def test_running_out_of_memory_exits_2_with_one_line(cli, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(ncpseq.render, "render_trace", exhausted)
    code, out, err = cli("render", "1 1 2", "--trace", "--format", "svg")
    assert (code, out) == (2, "")
    assert err.startswith("memory error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "ncpseq", "map", "1,5|2,4|3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout == "1 2\n"


def test_version_flag_prints_the_package_version():
    out = subprocess.run(
        [sys.executable, "-m", "ncpseq", "--version"],
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout, out.stderr) == (
        0,
        f"ncpseq {ncpseq.__version__}\n",
        "",
    )


def test_pyproject_version_is_the_package_version():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    versions = re.findall(r'^version = "([^"]*)"$', pyproject.read_text(), re.MULTILINE)
    assert versions == [ncpseq.__version__]


# The exit-code fuzz draws a subcommand, then options and positionals:
# every flag but --out, sizes small enough to run at once, and junk.
_SUBCOMMANDS = ("enumerate", "map", "invert", "verify", "check", "render", "bogus", "-h")
_INTS = ("-1", "0", "1", "2", "3", "1_0", "+3", " 4", "\u0663")
_POSITIONALS = (
    "cardinality", "round-trip", "special-structure", "floor-sum",
    "min-blocks", "max-ground", "bogus",
    "1,5|2,4|3", "1,3|2,4|5", PART_13, "1 2", "2 1", "1 1 1 4 1 2 1 4", "",
    "\u0663", "|", ",", "x", "1,x|2",
)
_ARGV_PIECES = st.one_of(
    st.tuples(st.sampled_from(("--n", "--n-max")), st.sampled_from(_INTS)),
    st.tuples(st.just("--kind"), st.sampled_from(("special", "sequences", "x"))),
    st.tuples(st.just("--format"), st.sampled_from(("ascii", "svg", "x"))),
    st.tuples(st.sampled_from(("--count-only", "--trace", "--json", "-h"))),
    st.tuples(st.sampled_from(_POSITIONALS)),
)
_STDIN_LINES = ("1,5|2,4|3", "1 2", "2 1", "", "1,3|2,4|5", "\u0663", "|", "1 x")


@given(
    command=st.sampled_from(_SUBCOMMANDS),
    pieces=st.lists(_ARGV_PIECES, max_size=3),
    stdin=st.lists(st.sampled_from(_STDIN_LINES), max_size=4).map("\n".join),
)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_exit_code_contract(command, pieces, stdin):
    """Any argv ends in exit 0-3 with at most one stderr line, or in argparse."""
    argv = [command, *(token for piece in pieces for token in piece)]
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        mock.patch.object(sys, "stdin", io.StringIO(stdin)),
        # A lower default --n-max keeps each verify and check run quick,
        # and puts the warning above it within reach of --n-max 3.
        mock.patch.object(ncpseq.cli, "DEFAULT_N_CEILING", 2),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2)
        else:
            assert code in (0, 1, 2, 3)
            assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in out.getvalue() + err.getvalue()
