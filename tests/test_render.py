"""Text and SVG diagram output: goldens, determinism, structure."""

import xml.etree.ElementTree as ET

from ncpseq import (
    ArcDiagram,
    enumerate_special,
    initial_diagram,
    inverse_trace,
    parse_partition,
    parse_sequence,
    render_ascii,
    render_svg,
    render_trace,
    to_arcs,
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
