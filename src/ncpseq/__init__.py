"""Special non-crossing partitions and their Catalan sequences.

The package enumerates non-crossing partitions of {1..2n+1} with n+1
blocks and no two consecutive integers together, converts them to and
from the integer sequences counted by the same Catalan number, and
ships executable checks for the structural facts behind the
correspondence.  BACKEND names the enumeration kernel in use.
"""

from ncpseq._backend import BACKEND
from ncpseq.bijection import (
    ConstructionTrace,
    TraceStep,
    difference_sequence,
    forward,
    initial_diagram,
    inverse,
    inverse_trace,
    stretch_step,
)
from ncpseq.errors import ParseError, StretchError, ValidationError
from ncpseq.oracles import (
    CheckReport,
    Composition,
    catalan,
    check_floor_sum,
    check_max_ground,
    check_special_structure,
    compositions,
    count_special,
    count_ssp,
    enumerate_special,
    enumerate_ssp,
    min_ssp_blocks,
)
from ncpseq.partitions import (
    Arc,
    ArcDiagram,
    Block,
    Partition,
    arc_nesting_depths,
    decompose_pieces,
    format_partition,
    from_arcs,
    is_noncrossing,
    is_semi_special,
    is_special,
    parse_partition,
    special_violation,
    subpartition,
    to_arcs,
)
from ncpseq.render import render_ascii, render_svg, render_trace
from ncpseq.sequences import (
    CatSeq,
    GoverningState,
    bounds_from_scratch,
    count_all,
    format_sequence,
    generate_all,
    parse_sequence,
    sequence_violation,
    set_value,
    validate_sequence,
)
from ncpseq.verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    "Arc",
    "ArcDiagram",
    "Block",
    "CatSeq",
    "CheckReport",
    "Composition",
    "ConstructionTrace",
    "GoverningState",
    "ParseError",
    "Partition",
    "StretchError",
    "TraceStep",
    "ValidationError",
    "arc_nesting_depths",
    "bounds_from_scratch",
    "catalan",
    "check_floor_sum",
    "check_max_ground",
    "check_special_structure",
    "compositions",
    "count_all",
    "count_special",
    "count_ssp",
    "decompose_pieces",
    "difference_sequence",
    "enumerate_special",
    "enumerate_ssp",
    "format_partition",
    "format_sequence",
    "forward",
    "from_arcs",
    "generate_all",
    "initial_diagram",
    "inverse",
    "inverse_trace",
    "is_noncrossing",
    "is_semi_special",
    "is_special",
    "min_ssp_blocks",
    "parse_partition",
    "parse_sequence",
    "render_ascii",
    "render_svg",
    "render_trace",
    "run_verify",
    "sequence_violation",
    "set_value",
    "special_violation",
    "stretch_step",
    "subpartition",
    "to_arcs",
    "validate_sequence",
]
