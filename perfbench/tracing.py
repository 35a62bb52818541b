"""Span tracer for the benchmark's traced runs.

Each module of ``src/torusiso`` is one layer. The tracer wraps, from the
outside, the public functions and methods each layer defines, and patches
every module-level name that refers to them, so a call that crosses from
one layer (or from the benchmark) into another opens a span. A call that
stays inside its own layer passes straight through, so a layer's counts are
counts of entries into it.

Spans are kept in memory (compact arrays) and written out when the run
ends. Self time is a span's duration minus the time its child spans cover.
Names the tracer is asked to wrap but cannot resolve report zero calls.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "torusiso"
BENCH = "bench"
LAYERS = ("mensuration", "profiles", "roots", "criticals", "bounds", "oracle", "cli")
ALL_LAYERS = (BENCH, *LAYERS)
_BENCH, _ROOTS, _BOUNDS = (ALL_LAYERS.index(name) for name in (BENCH, "roots", "bounds"))

# Cross-module names the per-layer metrics are defined on. Discovery wraps
# them anyway while they exist; listing them keeps a per-name count that
# reads zero, instead of failing, once a refactor removes one.
NAMED_TARGETS = (
    "torusiso.bounds.envelope_profile",
    "torusiso.bounds.band",
    "torusiso.bounds.read_curve",
    "torusiso.bounds.tangent_bound",
    "torusiso.bounds.chord_bound",
    "torusiso.bounds.cylinder_offset_bound",
    "torusiso.criticals.solve_increasing",
    "torusiso.criticals.solve_piecewise_gap",
    "torusiso.criticals.full_report",
    "torusiso.oracle.verify_spec",
    "torusiso.cli.main",
)

# Dunder methods worth a span: construction and profile evaluation.
_WRAPPED_DUNDERS = ("__init__", "__call__")

# Spans kept for the written trace; later spans are counted but not stored.
MAX_STORED_SPANS = 100_000


def _resolve(dotted: str):
    """Object named by a dotted path, or None when any part is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def discover_targets() -> list[str]:
    """Public functions and methods defined in each layer module."""
    targets = []
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append(f"{module.__name__}.{name}")
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (
                        not attr.startswith("_") or attr in _WRAPPED_DUNDERS
                    ):
                        targets.append(f"{module.__name__}.{name}.{attr}")
    return targets


class Tracer:
    """Wraps layer entry points and aggregates spans while a section is open.

    Outside ``section()`` the wrappers pass calls straight through, so the
    benchmark's own correctness checks never show up in the trace.
    """

    def __init__(self, targets=()):
        self.targets = list(dict.fromkeys([*discover_targets(), *NAMED_TARGETS, *targets]))
        n = len(ALL_LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.edge_calls = Counter()  # (parent layer, layer) -> spans
        self.target_calls = Counter()  # requested dotted name -> spans
        self.target_s = Counter()
        self.iterations = 0
        self.band_rows = Counter()  # lower_source -> rows
        self.missing: list[str] = []
        self.wall_s = 0.0
        self.cold_start_s = 0.0  # traced children's wall time outside their root span
        self.children: list[dict] = []  # summaries of traced child processes
        self.dropped = 0
        self.names: list[str] = []
        self.sp_op = array.array("i")
        self.sp_parent = array.array("i")
        self.sp_layer = array.array("b")
        self.sp_name = array.array("i")
        self.sp_start = array.array("d")
        self.sp_end = array.array("d")
        self.op = -1
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        wrappers = {}  # id(original) -> wrapper
        for dotted in self.targets:
            fn = _resolve(dotted)
            layer_name = getattr(fn, "__module__", "").rpartition(".")[2]
            if not inspect.isfunction(fn) or layer_name not in LAYERS:
                self.missing.append(dotted)
                continue
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                wrapper = self._wrap(fn, ALL_LAYERS.index(layer_name))
                wrappers[id(fn)] = wrapper
            wrapper._perfbench_names.append(dotted)
            owner_path, _, attr = dotted.rpartition(".")
            owner = _resolve(owner_path)
            if inspect.isclass(owner) and owner.__dict__.get(attr) is fn:
                self._patch(owner, attr, wrapper)
        # Re-point every module-level alias (``from .profiles import beta``).
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, name, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer: int):
        tracer = self
        name_id = len(self.names)
        self.names.append(f"{fn.__module__}.{fn.__qualname__}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return tracer._span(fn, layer, name_id, wrapper._perfbench_names, args, kwargs)

        wrapper._perfbench_names = []
        return wrapper

    # -- recording ----------------------------------------------------------

    def _span(self, fn, layer, name_id, dotted_names, args, kwargs):
        parent = self._stack[-1]
        start = time.perf_counter()
        frame = [layer, self._store(parent[1], layer, name_id, start), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if frame[1] >= 0:
                self.sp_end[frame[1]] = end
            self.calls[layer] += 1
            self.self_s[layer] += duration - frame[2]
            parent[2] += duration
            self.edge_calls[(parent[0], layer)] += 1
            for dotted in dotted_names:
                self.target_calls[dotted] += 1
                self.target_s[dotted] += duration
        iterations = getattr(result, "iterations", None)
        if layer == _ROOTS and isinstance(iterations, int):
            self.iterations += iterations
        rows = getattr(result, "rows", None)
        if layer == _BOUNDS and isinstance(rows, tuple):
            self.band_rows.update(getattr(row, "lower_source", "?") for row in rows)
        return result

    def _store(self, parent_id, layer, name_id, start, end=0.0) -> int:
        """Append one span in start order; returns its id, or -1 once full."""
        if len(self.sp_start) >= MAX_STORED_SPANS:
            self.dropped += 1
            return -1
        self.sp_op.append(self.op)
        self.sp_parent.append(parent_id)
        self.sp_layer.append(layer)
        self.sp_name.append(name_id)
        self.sp_start.append(start)
        self.sp_end.append(end)
        return len(self.sp_start) - 1

    @contextlib.contextmanager
    def section(self):
        """The benchmark's own root span; layer spans opened inside nest under it."""
        if self._stack:
            raise RuntimeError("tracer sections do not nest")
        frame = [_BENCH, -1, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield self
        finally:
            wall = time.perf_counter() - start
            self._stack.pop()
            self.wall_s += wall
            self.self_s[_BENCH] += wall - frame[2]

    # -- child processes ----------------------------------------------------

    def summary(self) -> dict:
        """Counts, self times and stored spans, for a parent process to merge."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "edge_calls": [[p, c, n] for (p, c), n in self.edge_calls.items()],
            "target_calls": dict(self.target_calls),
            "target_s": dict(self.target_s),
            "iterations": self.iterations,
            "band_rows": dict(self.band_rows),
            "wall_s": self.wall_s,
            "names": self.names,
            "spans": [
                self.sp_parent.tolist(),
                self.sp_layer.tolist(),
                self.sp_name.tolist(),
                self.sp_start.tolist(),
                self.sp_end.tolist(),
            ],
        }

    def book_child(self, child_wall_s: float, summary: dict) -> None:
        """Account for one traced child process run inside the open section.

        The child's layers and its own root span are merged; the rest of its
        wall time (interpreter start, imports, exit) is booked as cold start.
        """
        self._stack[-1][2] += child_wall_s
        self.cold_start_s += child_wall_s - summary["wall_s"]
        self.children.append(summary)
        name_ids = []
        for name in summary["names"]:
            if name not in self.names:
                self.names.append(name)
            name_ids.append(self.names.index(name))
        offset = len(self.sp_start)
        for parent, layer, name, start, end in zip(*summary["spans"]):
            self._store(parent + offset if parent >= 0 else -1, layer, name_ids[name], start, end)
        for i in range(len(ALL_LAYERS)):
            self.calls[i] += summary["calls"][i]
            self.self_s[i] += summary["self_s"][i]
        for parent, child, count in summary["edge_calls"]:
            self.edge_calls[(parent, child)] += count
        self.target_calls.update(summary["target_calls"])
        self.target_s.update(summary["target_s"])
        self.iterations += summary["iterations"]
        self.band_rows.update(summary["band_rows"])

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the stored spans (and the name table) as JSON."""
        payload = {
            "layers": list(ALL_LAYERS),
            "names": self.names,
            "dropped": self.dropped,
            "spans": {
                "op": self.sp_op.tolist(),
                "parent": self.sp_parent.tolist(),
                "layer": self.sp_layer.tolist(),
                "name": self.sp_name.tolist(),
                "start_s": self.sp_start.tolist(),
                "end_s": self.sp_end.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import time in seconds per module, from ``-X importtime`` output."""
    selfs: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header line
        name = fields[2].strip()
        selfs[name] = selfs.get(name, 0.0) + int(fields[0]) * 1e-6
    return selfs


def import_share(selfs: dict[str, float], top: str) -> float:
    """Summed self import time of a top-level package and its submodules."""
    return sum(t for name, t in selfs.items() if name == top or name.startswith(top + "."))
