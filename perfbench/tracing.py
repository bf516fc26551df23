"""Spans around calls into the package's public functions.

Layers are timed from outside: for the duration of a phase, every
reference that a blossom_subdiv module holds to one of the functions in
TARGETS is swapped for a wrapper, and the originals are put back
afterwards. Nothing under src/ knows about it.
"""

from __future__ import annotations

import functools
import gc
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("parse", "kernel", "serialize", "mesh", "oracle", "verify", "cli")


def _text_bytes(args, result):
    return len(args[0])


def _result_bytes(args, result):
    return len(result)


def _control_points(args, result):
    rows = getattr(result, "control_points", None) or getattr(result, "rows", ())
    return sum(len(r) if isinstance(r, tuple) else 1 for r in rows)


def _vertices(args, result):
    return result.count("\nv ")


def _one(args, result):
    return 1


def _none(args, result):
    return 0


# (module, function, span name, work units of one call). The first part
# of a span name is its layer.
TARGETS = (
    ("blossom_subdiv.cli", "main", "cli", _none),
    ("blossom_subdiv.documents", "parse_input_document", "parse", _text_bytes),
    ("blossom_subdiv.documents", "parse_patch_document", "parse", _text_bytes),
    ("blossom_subdiv.documents", "parse_any_document", "parse", _text_bytes),
    ("blossom_subdiv.documents", "dumps", "serialize", _result_bytes),
    ("blossom_subdiv.documents", "curve_document", "serialize", _none),
    ("blossom_subdiv.documents", "surface_document", "serialize", _none),
    ("blossom_subdiv.documents", "bezier_curve_document", "serialize", _none),
    ("blossom_subdiv.documents", "tensor_patch_document", "serialize", _none),
    ("blossom_subdiv.documents", "triangle_patch_document", "serialize", _none),
    ("blossom_subdiv.subdivision", "subdivide_curve", "kernel.curve", _control_points),
    ("blossom_subdiv.subdivision", "subdivide_tensor", "kernel.tpb", _control_points),
    ("blossom_subdiv.subdivision", "subdivide_triangle", "kernel.tb", _control_points),
    ("blossom_subdiv.objmesh", "mesh_document", "mesh", _vertices),
    ("blossom_subdiv.oracle", "blossom_curve", "oracle.curve", _one),
    ("blossom_subdiv.oracle", "blossom_tensor", "oracle.tpb", _one),
    ("blossom_subdiv.oracle", "blossom_triangle", "oracle.tb", _one),
    ("blossom_subdiv.verify", "run_verification", "verify", _none),
)


@contextmanager
def patched(make_wrapper):
    """Swap each target for make_wrapper(function, span name, units)
    wherever a loaded blossom_subdiv module refers to it. Yields the
    targets that were not found, which then go unmeasured."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "blossom_subdiv" or name.startswith("blossom_subdiv.")
    ]
    swaps, missing = [], []
    for module_name, function, span, units in TARGETS:
        original = getattr(sys.modules.get(module_name), function, None)
        if original is None:
            missing.append(f"{module_name}.{function}")
            continue
        wrapper = make_wrapper(original, span, units)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    swaps.append((module, attr, value))
                    setattr(module, attr, wrapper)
    try:
        yield missing
    finally:
        for module, attr, value in reversed(swaps):
            setattr(module, attr, value)


def _gen0() -> int:
    return gc.get_stats()[0]["collections"]


# Span record fields; records are lists so that close() can fill them in.
NAME, LAYER, START, END, PARENT, JOB, GC0, UNITS = range(8)
FIELDS = ("name", "layer", "start", "end", "parent", "job", "gc_gen0", "units")


class Tracer:
    """Keeps every span in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, name.split(".")[0], 0.0, 0.0, parent, self._job, _gen0(), 0]
        self.spans.append(record)
        self._stack.append(index)
        record[START] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        record = self.spans[index]
        record[END] = perf_counter()
        record[GC0] = _gen0() - record[GC0]
        self._stack.pop()

    @contextmanager
    def job(self, job_id):
        """Root span of one job; spans opened inside carry its id."""
        self._job = job_id
        index = self._open("job")
        try:
            yield
        finally:
            self._close(index)
            self._job = None

    def wrapper(self, function, name, units):
        layer = name.split(".")[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            # A call made from inside the same layer stays in its caller's span.
            if stack and spans[stack[-1]][LAYER] == layer:
                return function(*args, **kwargs)
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            spans[index][UNITS] = units(args, result)
            return result

        return traced


class ShapeClock:
    """Seconds spent per shape inside kernel and oracle calls, with no
    spans kept: splits a verify trial by shape in the untraced run."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    def wrapper(self, function, name, units):
        if not name.startswith(("kernel.", "oracle.")):
            return function
        shape = name.split(".")[1]
        seconds = self.seconds

        @functools.wraps(function)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[shape] += perf_counter() - start

        return timed


def span_totals(spans) -> dict[str, dict]:
    """Per span name: calls, self seconds (duration minus the time its
    child spans cover), self gen-0 collections, work units, and total
    seconds."""
    child_seconds = [0.0] * len(spans)
    child_gc = [0] * len(spans)
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            child_seconds[parent] += record[END] - record[START]
            child_gc[parent] += record[GC0]
    totals: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "gc0": 0, "units": 0, "total_s": 0.0}
    )
    for index, record in enumerate(spans):
        row = totals[record[NAME]]
        duration = record[END] - record[START]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_seconds[index]
        row["gc0"] += record[GC0] - child_gc[index]
        row["units"] += record[UNITS]
    return totals


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer table of a traced phase."""
    totals = span_totals(spans)
    wall = totals["job"]["total_s"]

    def sum_of(layer, key):
        return sum(row[key] for name, row in totals.items() if name.split(".")[0] == layer)

    def rate(units, seconds):
        return units / seconds if seconds > 0 else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        self_s = sum_of(layer, "self_s")
        out[f"{layer}.calls"] = sum_of(layer, "calls")
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = rate(self_s, wall)
    for shape in ("curve", "tpb", "tb"):
        out[f"kernel.{shape}.self_s"] = totals[f"kernel.{shape}"]["self_s"]
    out["kernel.points_per_s"] = rate(sum_of("kernel", "units"), out["kernel.self_s"])
    out["kernel.gc_gen0"] = sum_of("kernel", "gc0")
    out["mesh.gc_gen0"] = sum_of("mesh", "gc0")
    out["mesh.vertices_per_s"] = rate(sum_of("mesh", "units"), out["mesh.self_s"])
    out["parse.mb_per_s"] = rate(sum_of("parse", "units") / 1e6, out["parse.self_s"])
    out["serialize.mb_per_s"] = rate(sum_of("serialize", "units") / 1e6, out["serialize.self_s"])
    out["oracle.points_per_s"] = rate(sum_of("oracle", "units"), out["oracle.self_s"])
    return out
