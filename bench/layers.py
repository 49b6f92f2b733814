"""Per-layer host time, measured by wrapping layer entry points from outside.

The traced child calls :func:`install` before it builds the VM.  A
wrapped call that crosses into a layer records its elapsed host time,
minus the time of the layer crossings nested inside it, so each layer's
``self_s`` is the time spent in its own code and the self times of all
layers plus ``other.self_s`` add up to the traced wall exactly.  Calls
of at least ``MIN_SPAN_S`` are also kept as spans with their parent's id
and written out as a Chrome trace.

Spans sit at layer boundaries instead of coming from cProfile: cProfile
charges every Python call and inflated these jobs about 4x.

A wrapped call made from inside its own layer is not a crossing: it runs
untimed and its time stays with the enclosing call.  This keeps the
overhead off intra-layer helpers (the OOC scheduler calls
GiraphJob.offload_edges millions of times) and makes ``<layer>.calls``
count entries into the layer.  Some entry points open a sub-layer
(``gc.minor``, ``gc.major``, ``giraph.ooc``); calls of the same layer
inside them fold into the sub-layer, so GCTaskEngine.run inside a
scavenge counts as ``gc.minor``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = (
    "runtime", "heap", "gc", "teraheap", "devices", "serdes", "spark",
    "giraph", "clock",
)

#: sub-layers reported beside their layer's total, as ``<layer>.<sub>_self_s``
SUBLAYERS = (("gc", "minor"), ("gc", "major"), ("giraph", "ooc"))

#: (module, class, methods, layer, sub-layer).  ``None`` for methods
#: wraps every public function the class itself defines (generator
#: functions excluded: their body runs after the call returns).
#: HeapObject's column properties are deliberately not wrapped: they are
#: the hottest calls in the simulator and are charged to their caller.
ENTRY_POINTS: Sequence[Tuple[str, str, Optional[Tuple[str, ...]], str, Optional[str]]] = (
    ("repro.runtime", "JavaVM", (
        "allocate", "allocate_array", "allocate_temp", "read_object",
        "write_ref", "compute",
    ), "runtime", None),
    ("repro.heap.store", "HeapStore", (
        "new_object", "edge_csr", "dfs_closure", "dfs_reachable",
        "mark_batch", "set_space_batch", "age_increment", "sum_sizes",
        "live_mask", "gather_targets", "bfs_closure_csr",
    ), "heap", None),
    ("repro.heap.heap", "ManagedHeap", ("try_allocate",), "heap", None),
    ("repro.heap.barriers", "WriteBarrier", ("on_reference_store",), "heap", None),
    ("repro.gc.parallel_scavenge", "ParallelScavenge", ("minor_gc",), "gc", "minor"),
    ("repro.gc.parallel_scavenge", "ParallelScavenge", ("major_gc",), "gc", "major"),
    ("repro.gc.engine.engine", "GCTaskEngine", ("run",), "gc", None),
    ("repro.teraheap.collector", "TeraHeapCollector", None, "teraheap", None),
    ("repro.teraheap.h2_heap", "H2Heap", None, "teraheap", None),
    ("repro.teraheap.h2_card_table", "H2CardTable", None, "teraheap", None),
    ("repro.teraheap.thresholds", "ThresholdPolicy", ("decide",), "teraheap", None),
    ("repro.devices.base", "Device", ("read", "write", "read_modify_write"), "devices", None),
    ("repro.devices.page_cache", "PageCache", None, "devices", None),
    ("repro.devices.mmap", "MappedFile", None, "devices", None),
    ("repro.serdes.serializer", "Serializer", None, "serdes", None),
    ("repro.frameworks.spark.rdd", "RDD", (
        "evaluate", "evaluate_streaming", "foreach_cached", "compute_partition",
    ), "spark", None),
    ("repro.frameworks.spark.block_manager", "BlockManager", None, "spark", None),
    ("repro.frameworks.spark.shuffle", "ShuffleManager", None, "spark", None),
    # Only the entry points other code calls: the offload helpers behind
    # them run millions of times per job inside their own layer.
    ("repro.frameworks.giraph.job", "GiraphJob", ("load_graph", "run"), "giraph", None),
    ("repro.frameworks.giraph.ooc", "OOCScheduler", (
        "maybe_offload", "reload", "note_gc",
    ), "giraph", "ooc"),
    ("repro.clock", "Clock", ("charge",), "clock", None),
)

#: calls at least this long are kept as spans for the Chrome trace
MIN_SPAN_S = 1e-3


class Tracer:
    """Self-time accounting over layer crossings, plus coarse spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 min_span_s: float = MIN_SPAN_S):
        self.clock = clock
        self.min_span_s = min_span_s
        #: accounting key (``gc``, ``gc.minor``, ...) -> [self seconds, calls]
        self.totals: Dict[str, List[float]] = {}
        #: (id, parent id, name, key, start, elapsed); parent 0 = top level
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        #: open crossings as [seconds covered by nested crossings, id, layer, key]
        self._stack: List[list] = []
        self._ids = itertools.count(1)

    def wrap(self, fn: Callable, name: str, layer: str,
             sub: Optional[str] = None) -> Callable:
        """``fn`` with its self time charged to ``layer`` (or ``layer.sub``)."""
        key = f"{layer}.{sub}" if sub else layer
        self.totals.setdefault(key, [0.0, 0])
        clock, stack, totals, spans = self.clock, self._stack, self.totals, self.spans
        ids, min_span = self._ids, self.min_span_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                top = stack[-1]
                if top[2] == layer and (sub is None or top[3] == key):
                    return fn(*args, **kwargs)
            frame = [0.0, next(ids), layer, key]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                total = totals[key]
                total[0] += elapsed - frame[0]
                total[1] += 1
                parent = 0
                if stack:
                    stack[-1][0] += elapsed
                    parent = stack[-1][1]
                if elapsed >= min_span:
                    spans.append((frame[1], parent, name, key, start, elapsed))

        return traced

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """``<layer>.self_s``/``.calls``, sub-layer self times, ``other.self_s``."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            keys = [k for k in self.totals if k.split(".")[0] == layer]
            out[f"{layer}.self_s"] = sum(self.totals[k][0] for k in keys)
            out[f"{layer}.calls"] = sum(self.totals[k][1] for k in keys)
        for layer, sub in SUBLAYERS:
            out[f"{layer}.{sub}_self_s"] = self.totals.get(
                f"{layer}.{sub}", [0.0])[0]
        covered = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["other.self_s"] = wall_s - covered
        out["trace.wall_s"] = wall_s
        return out

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Write the kept spans as Chrome trace-event JSON (times from ``origin``)."""
        events = [
            {
                "name": name, "cat": key, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": elapsed * 1e6,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, key, start, elapsed in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS`."""
    for module, cls_name, methods, layer, sub in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        if methods is None:
            methods = tuple(
                name for name, fn in vars(cls).items()
                if not name.startswith("_") and inspect.isfunction(fn)
                and not inspect.isgeneratorfunction(fn)
            )
        for name in methods:
            fn = vars(cls)[name]
            setattr(cls, name, tracer.wrap(fn, f"{cls_name}.{name}", layer, sub))
