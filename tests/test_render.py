"""Text and SVG diagram output: goldens, determinism, structure, layout."""

import random
import time
import xml.etree.ElementTree as ET

import pytest

from ncpseq import (
    ArcDiagram,
    CatSeq,
    Partition,
    arc_nesting_depths,
    enumerate_special,
    initial_diagram,
    inverse,
    inverse_trace,
    parse_partition,
    parse_sequence,
    render_ascii,
    render_svg,
    render_trace,
    to_arcs,
)
from ncpseq.render import _arc_rows, ascii_shape

from bruteforce import (
    all_set_partitions,
    crossing_exists,
    nesting_depths_pairwise,
    random_member,
    rows_first_fit,
)

PART_13 = "1,13|2,4,6,12|3|5|7,11|8,10|9"

PART_13_ASCII = """\
/--------------------------\\
  /---\\   /-------------\\
      /---\\
            /--------\\
              /---\\
1 2 3 4 5 6 7 8 9 10 11 12 13"""


def svg_elements(text):
    root = ET.fromstring(text)
    return [el.tag.split("}")[1] for el in root.iter()]


def test_ascii_golden_thirteen_points():
    assert render_ascii(to_arcs(parse_partition(PART_13))) == PART_13_ASCII


def test_ascii_bare_baseline():
    assert render_ascii(ArcDiagram(3, ())) == "1 2 3"
    assert render_ascii(ArcDiagram(1, ())) == "1"


def test_ascii_nested_pair():
    assert render_ascii(ArcDiagram(5, ((1, 5), (2, 4)))) == (
        "/-------\\\n  /---\\\n1 2 3 4 5"
    )


def test_ascii_deterministic():
    d = to_arcs(parse_partition(PART_13))
    assert render_ascii(d) == render_ascii(d)


def test_ascii_has_no_trailing_spaces():
    for n in range(5):
        for p in enumerate_special(n):
            for line in render_ascii(to_arcs(p)).splitlines():
                assert line == line.rstrip()


def test_svg_minimal_diagram():
    text = render_svg(initial_diagram(0))
    tags = svg_elements(text)
    assert tags.count("circle") == 1
    assert tags.count("path") == 0
    assert tags.count("text") == 1


def test_svg_structure_counts():
    text = render_svg(initial_diagram(6))
    tags = svg_elements(text)
    assert tags.count("circle") == 13
    assert tags.count("path") == 6
    assert tags.count("line") == 1
    part13_svg = render_svg(to_arcs(parse_partition(PART_13)))
    assert svg_elements(part13_svg).count("path") == 6


def test_svg_uses_only_the_allowed_subset():
    for n in range(5):
        for p in enumerate_special(n):
            tags = set(svg_elements(render_svg(to_arcs(p))))
            assert tags <= {"svg", "line", "circle", "path", "text"}


def test_svg_byte_deterministic():
    d = to_arcs(parse_partition(PART_13))
    assert render_svg(d) == render_svg(d)


def test_path_count_equals_arc_count():
    for n in range(5):
        for p in enumerate_special(n):
            d = to_arcs(p)
            assert svg_elements(render_svg(d)).count("path") == len(d.arcs)


def test_nested_semicircles_never_meet():
    """Strict nesting keeps the inner semicircle strictly below the outer.

    Height-squared of the semicircle over (a, b) at integer x is
    (x-a)(b-x), so the comparison is exact integer arithmetic.
    """
    for n in range(6):
        for p in enumerate_special(n):
            arcs = to_arcs(p).arcs
            for a, b in arcs:
                for c, d in arcs:
                    if a < c and d < b:
                        for x in range(c, d + 1):
                            assert (x - a) * (b - x) > (x - c) * (d - x)


def test_trace_panel_counts():
    one_panel = render_trace(inverse_trace(parse_sequence("1 1 1")))
    assert svg_elements(one_panel).count("line") == 1
    four_panels = render_trace(inverse_trace(parse_sequence("1 1 1 4 1 2 1 4")))
    assert svg_elements(four_panels).count("line") == 4
    two_panels = render_trace(inverse_trace(parse_sequence("1 2")))
    assert svg_elements(two_panels).count("line") == 2


def test_trace_captions_name_the_producing_steps():
    text = render_trace(inverse_trace(parse_sequence("1 1 1 4 1 2 1 4")))
    root = ET.fromstring(text)
    captions = [
        el.text
        for el in root.iter()
        if el.tag.endswith("text") and not el.text.isdigit()
    ]
    assert captions == ["start", "step 1", "step 3", "step 5"]


def test_trace_svg_well_formed_and_deterministic():
    trace = inverse_trace(parse_sequence("1 2 3 1 1 6"))
    text = render_trace(trace)
    ET.fromstring(text)
    assert text == render_trace(trace)


def _assert_layout_is_the_pairwise_one(d):
    assert arc_nesting_depths(d) == nesting_depths_pairwise(d.arcs)
    rows = _arc_rows(d)
    assert rows == [sorted(row) for row in rows_first_fit(d.arcs)]
    text = render_ascii(d)
    assert ascii_shape(d) == (len(rows) + 1, len(text.splitlines()[-1]))


def test_linear_layout_is_the_pairwise_one_on_every_small_diagram():
    """Every non-crossing partition of [m], m <= 8, and every special
    partition with n <= 7: the diagrams of every member of S_n."""
    for m in range(1, 9):
        for blocks in all_set_partitions(m):
            if not crossing_exists(blocks):
                _assert_layout_is_the_pairwise_one(to_arcs(Partition(m, blocks)))
    for n in range(8):
        for p in enumerate_special(n):
            _assert_layout_is_the_pairwise_one(to_arcs(p))


@pytest.mark.parametrize("n", (50, 200, 800))
def test_linear_layout_is_the_pairwise_one_on_seeded_members(n):
    rng = random.Random(n)
    for _ in range(3):
        _assert_layout_is_the_pairwise_one(to_arcs(inverse(CatSeq(tuple(random_member(rng, n))))))


def test_a_depth_has_at_most_three_rows():
    """Arcs of one depth touch at most two others, one at each end."""
    rng = random.Random(3)
    for n in (50, 200, 800):
        d = to_arcs(inverse(CatSeq(tuple(random_member(rng, n)))))
        depths = arc_nesting_depths(d)
        per_depth = {}
        for row in _arc_rows(d):
            per_depth[depths[row[0]]] = per_depth.get(depths[row[0]], 0) + 1
        assert max(per_depth.values()) <= 3


def test_ascii_of_a_20000_entry_member_takes_well_under_the_quadratic_time():
    """The pairwise layout took 89 s on this member; the linear one about 0.2 s."""
    d = to_arcs(inverse(parse_sequence("1 2 " * 10_000)))
    started = time.perf_counter()
    text = render_ascii(d)
    elapsed = time.perf_counter() - started
    lines = text.splitlines()
    assert lines[-1] == " ".join(map(str, range(1, 40_002)))
    assert text.count("/") == text.count("\\") == 20_000
    assert elapsed < 5.0
