"""Every library function runs on a command-line path or keeps a named reason.

A fresh interpreter runs CALLS in process through ncpseq.cli.main and
records, with sys.setprofile, every function of src/ncpseq that runs,
imports included.  A code object is matched to its def by file and
first line; a decorated function starts at its first decorator.  Every
def that does not run needs one row in UNREACHED, with one reason from
REASONS, and every row must name a def that exists and does not run.
A "tracer target" row must name a function that TARGETS in
perfbench/tracing.py lists; that file is read as text, not imported.

Run as a script, this module is the recorder: it prints what ran as
JSON lines of (path under src/ncpseq, first line).
"""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncpseq"
TRACING = ROOT / "perfbench" / "tracing.py"

PART_13 = "1,13|2,4,6,12|3|5|7,11|8,10|9"
NEAR_MISS = " ".join(map(str, range(1, 20))) + " 2"

# (argv, stdin).  Paths are relative to the recorder's working
# directory, a fresh empty one.  The last seven are the benchmark's
# workload calls at small sizes: the set-up calls, the roundtrip's
# stdin invert and map and its two renders; its other calls are made
# above.
CALLS = [
    (("--version",), ""),
    (("--help",), ""),
    (("render", "--help"), ""),
    (("enumerate", "--n", "3"), ""),
    (("enumerate", "--n", "3", "--count-only"), ""),
    (("enumerate", "--n", "3", "--kind", "sequences"), ""),
    (("enumerate", "--n", "3", "--kind", "sequences", "--count-only"), ""),
    (("enumerate", "--n", "-1"), ""),
    (("enumerate", "--n", "x"), ""),
    (("enumerate",), ""),
    (("map", PART_13), ""),
    (("map",), "1\n2,4|1,5|3\n"),
    (("map", "5,1|3|4,2"), ""),
    (("map", "1,2|2"), ""),
    (("map", "1,a"), ""),
    (("map", "1,2|3"), ""),
    (("invert", "1 2 3 1 1 6"), ""),
    (("invert",), "1 2\n\n1\n"),
    (("invert", "1 3"), ""),
    (("invert", "1 x"), ""),
    (("invert", NEAR_MISS), ""),
    (("invert", "1 1 1 4 1 2 1 4", "--trace"), ""),
    (("invert", "--trace", "--json"), "1 2\n1\n"),
    (("invert", "1 2", "--json"), ""),
    (("verify", "--n-max", "3"), ""),
    (("check", "cardinality", "--n-max", "3"), ""),
    (("check", "round-trip", "--n-max", "3", "--json"), ""),
    (("check", "special-structure", "--n-max", "3"), ""),
    (("check", "floor-sum"), ""),
    (("check", "min-blocks", "--n-max", "3"), ""),
    (("check", "max-ground", "--n-max", "2"), ""),
    (("render", PART_13), ""),
    (("render", "1 2 3 1 1 6", "--format", "svg"), ""),
    (("render",), "1 2\n"),
    (("render", "1,3|2,4|5"), ""),
    (("render", "1,5|2,4|3", "--trace"), ""),
    (("render", "1 2", "--trace"), ""),
    (("render", "1 2", "--out", "missing/out.txt"), ""),
    (("verify", "--n-max", "0"), ""),
    (("enumerate", "--n", "0"), ""),
    (("map", "1"), ""),
    (("invert",), "1\n1 2\n1 1 3\n"),
    (("map",), "1\n1,5|2,4|3\n1,7|2,4,6|3|5\n"),
    (("render", "--trace", "--format", "svg", "--out", "trace.svg", "1 2 1 2"), ""),
    (("render", "1 1 3 1"), ""),
]

PAPER = "a paper object"
TRACER = "a tracer target"
CONSTRUCTOR = "a public constructor's check"
VALUE = "the value protocol"
FAILED_WRITE = "a failure path that only a failed stdout write reaches"
REASONS = {PAPER, TRACER, CONSTRUCTOR, VALUE, FAILED_WRITE}
CRITERION = re.compile(r"acceptance criterion [1-9]")

# Each function that no call in CALLS runs, by module and qualified
# name, with the one reason it stays.  The value protocol is what
# Python calls for ==, hash, repr, str, len, iter, dir, copy, pickle and
# attribute writes.
UNREACHED = {
    "__init__.__dir__": VALUE,
    "_frozen.Frozen.__delattr__": VALUE,
    "_frozen.Frozen.__hash__": VALUE,
    "_frozen.Frozen.__reduce__": VALUE,
    "_frozen.Frozen.__repr__": VALUE,
    "_frozen.Frozen.__setattr__": VALUE,
    "_kernels_py.count_ssp_partitions": PAPER,
    "_kernels_py.ssp_partitions": PAPER,
    "bijection.stretch_step": TRACER,
    "cli._drop_stdout": FAILED_WRITE,
    "oracles.CheckReport.__init__": CONSTRUCTOR,
    "oracles.Composition.__init__": CONSTRUCTOR,
    "oracles.Composition.__str__": VALUE,
    "oracles.check_special_structure": TRACER,
    "oracles.check_special_structure.outcomes": TRACER,
    "oracles.count_ssp": PAPER,
    "oracles.enumerate_ssp": PAPER,
    "partitions.ArcDiagram.__init__": CONSTRUCTOR,
    "partitions.Partition.__str__": VALUE,
    "partitions._check_arcs": CONSTRUCTOR,
    "partitions.decompose_pieces": TRACER,
    "partitions.is_noncrossing": TRACER,
    "partitions.is_semi_special": PAPER,
    "partitions.is_special": PAPER,
    "partitions.subpartition": TRACER,
    "sequences.CatSeq.__iter__": VALUE,
    "sequences.CatSeq.__len__": VALUE,
    "sequences.CatSeq.__str__": VALUE,
    "sequences.GoverningState.__init__": "acceptance criterion 2",
    "sequences.GoverningState.initial": "acceptance criterion 2",
    "sequences.GoverningState.is_complete": "acceptance criterion 2",
    "sequences.GoverningState.sequence": "acceptance criterion 2",
    "sequences.set_value": "acceptance criterion 2",
    "sequences.validate_sequence": PAPER,
}


def _record() -> None:
    """Run CALLS with the profiler on from before the package loads; print what ran."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    from ncpseq.cli import main

    for argv, stdin in CALLS:
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    main(list(argv))
                except SystemExit:
                    pass
        finally:
            sys.stdin = saved
    sys.setprofile(None)
    package = str(PACKAGE) + os.sep
    for code in ran:
        if code.co_filename.startswith(package):
            print(json.dumps([code.co_filename[len(package):], code.co_firstlineno]))


def _ran() -> set:
    """(file name, first line) of every package function that CALLS run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    ))
    with tempfile.TemporaryDirectory() as work:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve())],
            cwd=work, env=env, capture_output=True, text=True,
        )
    assert (res.returncode, res.stderr) == (0, "")
    return {tuple(json.loads(line)) for line in res.stdout.splitlines()}


def _defs() -> dict:
    """{(file name, first line): "module.qualname"} for every def in the package."""
    found = {}

    def visit(node, prefix, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[file, first] = name
                visit(child, name, file)
            else:
                visit(child, prefix, file)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.name)
    return found


def _traced() -> set:
    """The functions that TARGETS names, as "module.attribute path"."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {
                f"{row.elts[1].value.removeprefix('ncpseq.')}.{row.elts[2].value}"
                for row in node.value.elts
            }
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def problems(defs: dict, ran: set, table: dict, traced: set) -> list:
    """What breaks the rule: defs that do not run with no row, and rows that do not hold."""
    names = set(defs.values())
    idle = {name for key, name in defs.items() if key not in ran}
    out = [f"{name} does not run and has no row" for name in sorted(idle - table.keys())]
    for name, reason in sorted(table.items()):
        if name not in names:
            out.append(f"{name} has a row but no def")
        elif name not in idle:
            out.append(f"{name} has a row but runs")
        if reason not in REASONS and not CRITERION.fullmatch(reason):
            out.append(f"{name} has the reason {reason!r}, which is not one of the set")
        # A def nested in a target is part of it.
        if reason == TRACER and not any(name == t or name.startswith(t + ".") for t in traced):
            out.append(f"{name} is a tracer target row, but TARGETS does not name it")
    return out


def test_every_function_runs_or_has_a_row():
    assert problems(_defs(), _ran(), UNREACHED, _traced()) == []


def test_the_comparison_fails_on_each_fault():
    defs = {("a.py", 1): "a.run", ("a.py", 5): "a.idle", ("a.py", 9): "a.Kept.check"}
    ran = {("a.py", 1)}
    table = {"a.idle": PAPER, "a.Kept.check": TRACER}
    traced = {"a.Kept.check"}
    assert problems(defs, ran, table, traced) == []
    assert problems({**defs, ("a.py", 12): "a.dead"}, ran, table, traced) == [
        "a.dead does not run and has no row"
    ]
    assert problems(defs, ran | {("a.py", 5)}, table, traced) == ["a.idle has a row but runs"]
    assert problems(defs, ran, {**table, "a.gone": VALUE}, traced) == [
        "a.gone has a row but no def"
    ]
    assert problems(defs, ran, table, set()) == [
        "a.Kept.check is a tracer target row, but TARGETS does not name it"
    ]
    assert problems(defs, ran, {**table, "a.idle": "a test reference"}, traced) == [
        "a.idle has the reason 'a test reference', which is not one of the set"
    ]
    assert problems(defs, ran, {**table, "a.idle": "acceptance criterion 2"}, traced) == []


def test_every_tracer_target_resolves_to_a_def():
    # The rows rest on TARGETS being read right: each target names a
    # def, but for the kernels, reached as _backend.kernels.
    names = set(_defs().values())
    assert {t for t in _traced() if not t.startswith("_backend.")} <= names


if __name__ == "__main__":
    _record()
