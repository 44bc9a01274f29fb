"""The public contract: value classes, the package namespace, the CLI's help.

The expected reprs, hashes and help digests were taken from the
package when its value classes were frozen dataclasses and it imported
every module eagerly; the plain classes and the lazy namespace keep
them.
"""

import copy
import doctest
import hashlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ncpseq
import ncpseq.cli
import ncpseq.verify
from ncpseq import (
    CatSeq,
    CheckReport,
    Composition,
    GoverningState,
    Partition,
    ValidationError,
    enumerate_special,
    forward,
    generate_all,
    inverse,
    inverse_trace,
    parse_partition,
    parse_sequence,
    special_violation,
    to_arcs,
)
from ncpseq.cli import main

ROOT = Path(__file__).resolve().parent.parent

# (class name, field names, build one instance, its repr, its hash or
# None where the fields hold text, whose hash varies between runs)
VALUES = [
    (
        "Partition",
        ("ground_size", "blocks"),
        lambda: parse_partition("1,5|2,4|3"),
        "Partition(ground_size=5, blocks=((1, 5), (2, 4), (3,)))",
        -7522401957895376786,
    ),
    (
        "ArcDiagram",
        ("point_count", "arcs"),
        lambda: to_arcs(parse_partition("1,5|2,4|3")),
        "ArcDiagram(point_count=5, arcs=((1, 5), (2, 4)))",
        3104895362788808872,
    ),
    (
        "CatSeq",
        ("entries",),
        lambda: CatSeq((1, 2)),
        "CatSeq(entries=(1, 2))",
        7059930188335900088,
    ),
    (
        "GoverningState",
        ("values", "bounds", "cursor"),
        lambda: GoverningState.initial(2),
        "GoverningState(values=(1, 1), bounds=(1, 2), cursor=2)",
        2869919829640727129,
    ),
    (
        "TraceStep",
        ("index", "arc_before", "arc_after", "shifted", "diagram"),
        lambda: inverse_trace(CatSeq((1, 2))).steps[0],
        "TraceStep(index=1, arc_before=(1, 3), arc_after=(1, 5), shifted=(((3, 5), (2, 4)),), "
        "diagram=ArcDiagram(point_count=5, arcs=((1, 5), (2, 4))))",
        -6549625812894686671,
    ),
    (
        "ConstructionTrace",
        ("start", "steps"),
        lambda: inverse_trace(CatSeq((1, 2))),
        "ConstructionTrace(start=ArcDiagram(point_count=5, arcs=((1, 3), (3, 5))), "
        "steps=(TraceStep(index=1, arc_before=(1, 3), arc_after=(1, 5), "
        "shifted=(((3, 5), (2, 4)),), diagram=ArcDiagram(point_count=5, arcs=((1, 5), (2, 4)))), "
        "TraceStep(index=2, arc_before=(2, 4), arc_after=(2, 4), shifted=(), "
        "diagram=ArcDiagram(point_count=5, arcs=((1, 5), (2, 4))))))",
        -4018641664788902218,
    ),
    (
        "Composition",
        ("parts",),
        lambda: Composition((1, 2)),
        "Composition(parts=(1, 2))",
        7059930188335900088,
    ),
    (
        "CheckReport",
        ("claim", "range_checked", "passed", "count_checked", "elapsed_ms", "counterexample"),
        lambda: CheckReport("floor-sum", "n=1..2", False, 3, 1.5, "1,1"),
        "CheckReport(claim='floor-sum', range_checked='n=1..2', passed=False, count_checked=3, "
        "elapsed_ms=1.5, counterexample='1,1')",
        None,
    ),
]
IDS = [v[0] for v in VALUES]


@pytest.mark.parametrize("name, fields, build, text, digest", VALUES, ids=IDS)
def test_value_repr_eq_and_hash(name, fields, build, text, digest):
    obj = build()
    values = tuple(getattr(obj, f) for f in fields)
    assert type(obj).__name__ == name
    assert repr(obj) == text
    assert obj == build() and not obj != build()
    assert hash(obj) == hash(build()) == hash(values)
    if digest is not None:
        assert hash(obj) == digest
    # Only an instance of the same class can be equal.
    assert obj.__eq__(values) is NotImplemented
    assert obj != values


@pytest.mark.parametrize("name, fields, build, text, digest", VALUES, ids=IDS)
def test_value_is_immutable(name, fields, build, text, digest):
    obj = build()
    for attr in (*fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
            delattr(obj, attr)
    assert repr(obj) == text


def test_equal_fields_in_different_classes_are_not_equal():
    assert CatSeq((1, 2)) != Composition((1, 2))
    assert hash(CatSeq((1, 2))) == hash(Composition((1, 2)))


def test_the_cached_verdict_is_invisible():
    p, fresh = parse_partition("1,5|2,4|3"), parse_partition("1,5|2,4|3")
    assert special_violation(p) is None
    assert (p, hash(p), repr(p)) == (fresh, hash(fresh), repr(fresh))


@pytest.mark.parametrize("name, fields, build, text, digest", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal_values(name, fields, build, text, digest):
    obj = build()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj)
        assert (twin, repr(twin)) == (obj, text)


def test_partitions_and_sequences_carry_no_instance_dict():
    s = CatSeq((1, 2))
    built = [
        parse_partition("1,5|2,4|3"),
        Partition(5, ((2, 4), (1, 5), (3,))),
        Partition._trusted(3, ((1, 3), (2,))),
        *enumerate_special(2),
        inverse(s),
        s,
        parse_sequence("1 2"),
        CatSeq._trusted((1,)),
        *generate_all(3),
        forward(parse_partition("1,5|2,4|3")),
    ]
    for obj in built:
        if isinstance(obj, Partition):
            special_violation(obj)  # fills the verdict slot
        assert not hasattr(obj, "__dict__"), repr(obj)


# The six classes whose constructors check their fields; the other two,
# TraceStep and ConstructionTrace, are built by position by the bijection.
CHECKED = [v for v in VALUES if v[0] not in ("TraceStep", "ConstructionTrace")]


@pytest.mark.parametrize("name, fields, build, text, digest", CHECKED, ids=[v[0] for v in CHECKED])
def test_checked_constructors_take_every_field_by_keyword(name, fields, build, text, digest):
    obj = build()
    assert type(obj)(**{f: getattr(obj, f) for f in fields}) == obj


def test_built_by_position_values_take_exactly_one_value_per_field():
    trace = inverse_trace(CatSeq((1, 2)))
    for obj in (trace.steps[0], trace):
        cls, values = type(obj), tuple(getattr(obj, f) for f in obj._fields)
        assert cls(*values) == obj
        for wrong in (values[:-1], (*values, None)):
            want = f"{cls.__name__} takes {len(values)} field values, got {len(wrong)}"
            with pytest.raises(TypeError, match=want):
                cls(*wrong)


# Each public entry that takes a size: how to call it, the least size it
# takes, and its message for the size below that.
SIZED = {
    "catalan": (ncpseq.catalan, 0, "n must be >= 0"),
    "enumerate_special": (ncpseq.enumerate_special, 0, "n must be >= 0"),
    "count_special": (ncpseq.count_special, 0, "n must be >= 0"),
    "enumerate_ssp": (ncpseq.enumerate_ssp, 1, "m must be >= 1"),
    "count_ssp": (ncpseq.count_ssp, 1, "m must be >= 1"),
    "min_ssp_blocks": (ncpseq.min_ssp_blocks, 1, "m must be >= 1"),
    "compositions": (ncpseq.compositions, 1, "compositions need n >= 1"),
    "check_max_ground": (ncpseq.check_max_ground, 0, "b must be >= 0"),
    "generate_all": (lambda n: next(ncpseq.generate_all(n)), 0, "n must be >= 0"),
    "count_all": (ncpseq.count_all, 0, "n must be >= 0"),
    "GoverningState.initial": (GoverningState.initial, 0, "n must be >= 0"),
    "initial_diagram": (ncpseq.initial_diagram, 0, "n must be >= 0"),
    "run_verify": (ncpseq.run_verify, 0, "n_max must be >= 0"),
}


@pytest.mark.parametrize("value", [2.0, True, "3"], ids=repr)
@pytest.mark.parametrize("entry", sorted(SIZED))
def test_every_public_size_is_an_int(entry, value):
    call, least, message = SIZED[entry]
    for size, want in ((value, f"size {value!r} is not an integer"), (least - 1, message)):
        with pytest.raises(ValidationError) as raised:
            call(size)
        assert str(raised.value) == want


PUBLIC = [
    "BACKEND", "__version__", "Arc", "ArcDiagram", "Block", "CatSeq", "CheckReport",
    "Composition", "ConstructionTrace", "GoverningState", "ParseError", "Partition",
    "StretchError", "TraceStep", "ValidationError", "arc_nesting_depths",
    "bounds_from_scratch", "catalan", "check_floor_sum", "check_max_ground",
    "check_special_structure", "compositions", "count_all", "count_special", "count_ssp",
    "decompose_pieces", "difference_sequence", "enumerate_special", "enumerate_ssp",
    "format_partition", "format_sequence", "forward", "from_arcs", "generate_all",
    "initial_diagram", "inverse", "inverse_trace", "is_noncrossing", "is_semi_special",
    "is_special", "min_ssp_blocks", "parse_partition", "parse_sequence", "render_ascii",
    "render_svg", "render_trace", "run_verify", "sequence_violation", "set_value",
    "special_violation", "stretch_step", "subpartition", "to_arcs", "validate_sequence",
]


def test_namespace_lists_and_resolves_every_public_name():
    assert ncpseq.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(ncpseq))
    for name in PUBLIC:
        assert getattr(ncpseq, name) is not None
    assert ncpseq.BACKEND == "pure-python"
    assert ncpseq.__version__ == "0.1.0"
    star: dict = {}
    exec("from ncpseq import *", star)
    assert set(PUBLIC) <= star.keys()
    assert star["forward"] is ncpseq.bijection.forward


def test_modules_stay_reachable_from_the_package():
    # Importing the package used to load these modules; they still load
    # on first use.
    code = "import ncpseq; print(ncpseq.verify.run_verify is ncpseq.run_verify, ncpseq._kernels_py)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("True <module 'ncpseq._kernels_py'")


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ncpseq.no_such_name
    assert not hasattr(ncpseq, "dataclass")


def test_cli_constants_equal_what_verify_defines():
    assert ncpseq.cli.CLAIMS == tuple(ncpseq.verify.CLAIM_SUITES)
    assert ncpseq.cli.DEFAULT_N_CEILING == ncpseq.verify.DEFAULT_N_CEILING


# SHA-256 of each --help text at 80 columns.
HELP = {
    (): "83e3bc303ae031c82da896e810576aa4cbd3f0d8cd4356b3a25c1d42c531d04e",
    ("enumerate",): "8742a27b9c0c8406773955c3ffd2629ab7268bf9a13b254368dcd1ed7d5ceb09",
    ("map",): "d41189063cda3a34f77a3ca2d35f734db2bda98f238c5b1fdb7232445302ef46",
    ("invert",): "f9074c1d548bc0ce8f3dc24aeeebf7cff8a2b15c21f1265b8a18069ba70b5005",
    ("verify",): "94392b11f7bb1bc3851cc9cfa9a2bcfcf5dfe91c45819d8acd04ee0308eb7998",
    ("check",): "f74806f4bfb54eff8c0f2234c4592b0b4dc532c19204d90a8dbc1379879f6b65",
    ("render",): "23deaaa1ab4bf613f5d2e9a0be9b7b9b5c4e83c36800fb310a2919768587981c",
}


@pytest.mark.parametrize("argv", sorted(HELP), ids=lambda a: " ".join(a) or "top")
def test_help_text_is_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (HELP[argv], "")


def test_version(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out == "ncpseq 0.1.0\n"


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", "README.md", 0)
    result = doctest.DocTestRunner().run(test)
    assert (result.attempted, result.failed) == (4, 0)
