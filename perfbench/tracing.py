"""Per-layer spans and counts for the benchmark's traced run.

The traced run calls ncpseq.cli.main in this process.  While a Tracer is
installed, each function listed in TARGETS is replaced by a wrapper that
records one span (name, parent span, CLI call, start, end) per call, and
so is every name another ncpseq module bound to that function with a
direct import, such as `from ncpseq.partitions import format_partition`
in cli, oracles and verify.  Constructors are traced through the class's
__init__.  A generator function gets one span per resumption, so its
self time is the work done producing items, not the consumer's.

Spans stay in memory until the pass ends.  A layer's self time is its
spans' durations minus the parts covered by their child spans.  Layer
names are ncpseq's module names.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

import ncpseq
import ncpseq.cli  # loaded before the wrappers look for direct imports
from workloads import Outcome

def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


# (metric prefix, module, attribute path, measure applied to each result)
TARGETS = (
    ("kernels.special_partitions", "ncpseq._backend", "kernels.special_partitions", len),
    ("kernels.count_special_partitions", "ncpseq._backend", "kernels.count_special_partitions", None),
    ("kernels.catalan_sequences", "ncpseq._backend", "kernels.catalan_sequences", len),
    ("kernels.ssp_min_blocks", "ncpseq._backend", "kernels.ssp_min_blocks", None),
    ("partitions.Partition", "ncpseq.partitions", "Partition.__init__", None),
    ("partitions.ArcDiagram", "ncpseq.partitions", "ArcDiagram.__init__", None),
    ("partitions.is_noncrossing", "ncpseq.partitions", "is_noncrossing", None),
    ("partitions.special_violation", "ncpseq.partitions", "special_violation", None),
    ("partitions.subpartition", "ncpseq.partitions", "subpartition", None),
    ("partitions.decompose_pieces", "ncpseq.partitions", "decompose_pieces", None),
    ("partitions.from_arcs", "ncpseq.partitions", "from_arcs", None),
    ("partitions.to_arcs", "ncpseq.partitions", "to_arcs", None),
    ("partitions.parse_partition", "ncpseq.partitions", "parse_partition", None),
    ("partitions.format_partition", "ncpseq.partitions", "format_partition", None),
    ("sequences.CatSeq", "ncpseq.sequences", "CatSeq.__init__", None),
    ("sequences.parse_sequence", "ncpseq.sequences", "parse_sequence", None),
    ("sequences.format_sequence", "ncpseq.sequences", "format_sequence", None),
    ("sequences.generate_all", "ncpseq.sequences", "generate_all", None),
    ("oracles.enumerate_special", "ncpseq.oracles", "enumerate_special", None),
    ("oracles.check_special_structure", "ncpseq.oracles", "check_special_structure", None),
    ("bijection.forward", "ncpseq.bijection", "forward", None),
    ("bijection.inverse", "ncpseq.bijection", "inverse", None),
    ("bijection.inverse_trace", "ncpseq.bijection", "inverse_trace", None),
    ("bijection.stretch_step", "ncpseq.bijection", "stretch_step", None),
    ("verify.cardinality_suite", "ncpseq.verify", "cardinality_suite", None),
    ("verify.round_trip_suite", "ncpseq.verify", "round_trip_suite", None),
    ("verify.special_structure_suite", "ncpseq.verify", "special_structure_suite", None),
    ("verify.floor_sum_suite", "ncpseq.verify", "floor_sum_suite", None),
    ("verify.min_blocks_suite", "ncpseq.verify", "min_blocks_suite", None),
    ("render.render_svg", "ncpseq.render", "render_svg", _utf8_len),
    ("render.render_ascii", "ncpseq.render", "render_ascii", _utf8_len),
    ("render.render_trace", "ncpseq.render", "render_trace", _utf8_len),
    ("cli.main", "ncpseq.cli", "main", None),
)
NAMES = tuple(t[0] for t in TARGETS)
_INDEX = {name: i for i, name in enumerate(NAMES)}

# Every target but cli.main (reported as cli.self_s) gives <name>.calls
# and <name>.self_s.
_SUITES = tuple(n for n in NAMES if n.startswith("verify."))
_CALLS_AND_SELF = NAMES[:-1]
_ITEMS = ("kernels.special_partitions", "kernels.catalan_sequences")
_RENDER = ("render.render_svg", "render.render_ascii", "render.render_trace")


class Tracer:
    """Installs the wrappers and holds the spans of one pass in memory."""

    def __init__(self) -> None:
        self.span_name = array("h")
        self.span_parent = array("q")
        self.span_request = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(NAMES)
        self.items = [0] * len(NAMES)
        self._stack: list[int] = []
        self._request = [0]
        self.missing: list[str] = []
        self._sites: list[tuple[object, str, object, object]] = []
        for idx, (name, module, path, measure) in enumerate(TARGETS):
            owner = importlib.import_module(module)
            *head, attr = path.split(".")
            try:
                for part in head:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            wrapper = self._wrap(idx, original, measure)
            if inspect.isclass(owner):
                self._sites.append((owner, attr, original, wrapper))
                continue
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, key, original, wrapper))

    def reset(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_request,
                    self.span_start, self.span_end):
            del arr[:]
        self.calls[:] = [0] * len(NAMES)
        self.items[:] = [0] * len(NAMES)

    def install(self) -> None:
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)

    def _wrap(self, idx: int, fn, measure):
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        calls, items, stack, request = self.calls, self.items, self._stack, self._request
        clock = time.perf_counter_ns

        def open_span() -> int:
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            requests.append(request[0])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            return i

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                calls[idx] += 1
                gen = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = clock()
                        starts[i] = t0
                        stack.pop()
                    yield item

        else:

            def wrapper(*args, **kwargs):
                calls[idx] += 1
                i = open_span()
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    starts[i] = t0
                    stack.pop()
                if measure is not None:
                    items[idx] += measure(result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def call_cli(self, request: int, call, work: Path) -> Outcome:
        """Run one workload call through ncpseq.cli.main with redirected stdio."""
        text = call.stdin.read_text(encoding="utf-8") if call.stdin else ""
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(text)
        self._request[0] = request
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = ncpseq.cli.main(list(call.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stdin = saved_stdin
        wall = time.perf_counter() - started
        (work / f"{call.name}.out").write_text(out.getvalue(), encoding="utf-8")
        (work / f"{call.name}.err").write_text(err.getvalue(), encoding="utf-8")
        return Outcome(code, out.getvalue(), wall)

    def summary(self) -> dict:
        """Per-name calls, items and self seconds of the pass just traced."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0] * n
        inside_inverse = bytearray(n)
        inverse_idx = _INDEX["bijection.inverse"]
        diagram_idx = _INDEX["partitions.ArcDiagram"]
        diagrams_in_inverse = 0
        parents, names = self.span_parent, self.span_name
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += dur[i]
                if inside_inverse[p] or names[p] == inverse_idx:
                    inside_inverse[i] = 1
                    if names[i] == diagram_idx:
                        diagrams_in_inverse += 1
        self_ns = [0] * len(NAMES)
        for i in range(n):
            self_ns[names[i]] += dur[i] - covered[i]
        inverse_ms = [dur[i] / 1e6 for i in range(n) if names[i] == inverse_idx]
        return {
            "calls": list(self.calls),
            "items": list(self.items),
            "self_s": [ns / 1e9 for ns in self_ns],
            "inverse_ms": inverse_ms,
            "diagrams_in_inverse": diagrams_in_inverse,
            "spans": n,
        }

    def write(self, path: Path) -> None:
        """Write the spans of the last traced pass, one column per field."""
        origin = self.span_start[0] if self.span_start else 0
        doc = {
            "names": NAMES,
            "columns": ["name", "parent", "request", "start_ns", "end_ns"],
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "request": self.span_request.tolist(),
            "start_ns": [t - origin for t in self.span_start],
            "end_ns": [t - origin for t in self.span_end],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _package_modules() -> list:
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "ncpseq" or k.startswith("ncpseq."))]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in _CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in _ITEMS:
            units[f"{name}.items"] = "count"
    units["partitions.validations_per_item"] = "ratio"
    units["bijection.inverse.p50_ms"] = "ms"
    units["bijection.inverse.p99_ms"] = "ms"
    units["bijection.diagrams_per_inverse"] = "ratio"
    units["verify.walks_per_size"] = "ratio"
    units["render.bytes_out"] = "bytes"
    units["cli.self_s"] = "s"
    units["cli.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(
    summaries: list[dict], items: int, verify_sizes: int, import_s: float, overhead_s: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: counts from one pass, self times as medians."""
    first = summaries[0]
    calls, got = first["calls"], first["items"]

    def self_s(name: str) -> float:
        return statistics.median(s["self_s"][_INDEX[name]] for s in summaries)

    def count(name: str) -> int:
        return calls[_INDEX[name]]

    values: dict[str, float] = {}
    for name in _CALLS_AND_SELF:
        values[f"{name}.calls"] = count(name)
        values[f"{name}.self_s"] = self_s(name)
        if name in _ITEMS:
            values[f"{name}.items"] = got[_INDEX[name]]
    values["partitions.validations_per_item"] = (
        count("partitions.special_violation") / items if items else 0.0
    )
    inv = first["inverse_ms"]
    values["bijection.inverse.p50_ms"] = statistics.median(inv) if inv else 0.0
    # The 99th percentile only when at least ten calls lie beyond it.
    values["bijection.inverse.p99_ms"] = (
        statistics.quantiles(inv, n=100)[98] if len(inv) >= 1000 else 0.0
    )
    values["bijection.diagrams_per_inverse"] = (
        first["diagrams_in_inverse"] / len(inv) if inv else 0.0
    )
    values["verify.walks_per_size"] = (
        count("kernels.special_partitions") / verify_sizes if verify_sizes else 0.0
    )
    values["render.bytes_out"] = sum(got[_INDEX[n]] for n in _RENDER)
    values["cli.self_s"] = self_s("cli.main")
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = overhead_s
    units = metric_units()
    return {name: (values[name], unit) for name, unit in units.items()}


# The kernels and the bijection each serve one side of the map only.
_SILENT = {"roundtrip": "kernels.", "enumerate": "bijection."}
# Entry points each workload's script reaches by definition of its CLI calls.
_REACHED = {
    "verify": _SUITES,
    "enumerate": ("oracles.enumerate_special",),
    "roundtrip": ("bijection.inverse", "bijection.forward", "bijection.inverse_trace",
                  "render.render_trace", "render.render_ascii"),
}
# Each verify suite that sweeps sizes walks the special partitions once
# per size at the seed commit: cardinality, round-trip, special-structure.
SEED_WALKS_PER_SIZE = 3


def wiring_problems(workload: str, metrics: dict, seed_tree: bool) -> list[str]:
    """Facts a wrapper that misses calls would break."""
    problems = []
    prefix = _SILENT.get(workload)
    if prefix:
        for key, (value, _) in metrics.items():
            if key.startswith(prefix) and key.endswith(".calls") and value:
                problems.append(f"{key} = {value} on {workload}, want 0")
    for name in _REACHED[workload]:
        if not metrics[f"{name}.calls"][0]:
            problems.append(f"{name} was never called on {workload}")
    if workload == "verify":
        walks = metrics["verify.walks_per_size"][0]
        if walks < 1 or walks != int(walks):
            problems.append(f"verify.walks_per_size = {walks}, want a whole number >= 1")
        if seed_tree and walks != SEED_WALKS_PER_SIZE:
            problems.append(f"verify.walks_per_size = {walks} at the seed sources, "
                            f"want {SEED_WALKS_PER_SIZE}")
    return problems
