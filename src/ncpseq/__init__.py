"""Special non-crossing partitions and their Catalan sequences.

The package enumerates non-crossing partitions of {1..2n+1} with n+1
blocks and no two consecutive integers together, converts them to and
from the integer sequences counted by the same Catalan number, and
ships executable checks for the structural facts behind the
correspondence.  BACKEND names the enumeration kernel in use.

Importing the package loads none of its modules: each public name is
bound on first use (PEP 562), from the module that defines it, so a
command-line call loads only what its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module with the public names it defines.
_EXPORTS = {
    "_backend": ("BACKEND",),
    "bijection": (
        "ConstructionTrace", "TraceStep", "difference_sequence", "forward",
        "initial_diagram", "inverse", "inverse_trace", "stretch_step",
    ),
    "errors": ("ParseError", "StretchError", "ValidationError"),
    "oracles": (
        "CheckReport", "Composition", "catalan", "check_floor_sum", "check_max_ground",
        "check_special_structure", "compositions", "count_special", "count_ssp",
        "enumerate_special", "enumerate_ssp", "min_ssp_blocks",
    ),
    "partitions": (
        "Arc", "ArcDiagram", "Block", "Partition", "arc_nesting_depths", "decompose_pieces",
        "format_partition", "from_arcs", "is_noncrossing", "is_semi_special", "is_special",
        "parse_partition", "special_violation", "subpartition", "to_arcs",
    ),
    "render": ("render_ascii", "render_svg", "render_trace"),
    "sequences": (
        "CatSeq", "GoverningState", "count_all", "format_sequence", "generate_all",
        "parse_sequence", "sequence_violation", "set_value", "validate_sequence",
    ),
    "verify": ("run_verify",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# The modules that importing the package used to load, still reachable
# as its attributes.
_SUBMODULES = frozenset(_EXPORTS) | {"_kernels_py"}

__all__ = ["BACKEND", "__version__", *sorted(_HOME.keys() - {"BACKEND"})]


def __getattr__(name: str) -> object:
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
