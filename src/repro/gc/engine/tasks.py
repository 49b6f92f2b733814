"""GC task decomposition: the units of work GC workers claim.

A GC cycle is broken into :class:`GCTask` items — root-set partitions,
dirty-card chunks, H2 card slices, object-scan batches, copy batches and
compaction regions — each carrying a cost computed from the existing
cost model.  The decomposition mirrors Parallel Scavenge's task queues
(``GCTaskQueue``) and TeraHeap's striped H2 card table: tasks that model
stripe-owned work carry an *affinity* so they start on the owning
worker's deque and only migrate by stealing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np


@dataclass
class GCTask:
    """One schedulable unit of GC work."""

    name: str
    cost: float  # simulated seconds of CPU work
    kind: str = "scan"
    #: preferred worker (stripe/chunk ownership); ``None`` = round-robin
    affinity: Optional[int] = None


class TaskBag:
    """Accumulates the tasks of one parallel GC phase."""

    def __init__(self) -> None:
        self.tasks: List[GCTask] = []

    def add(
        self,
        name: str,
        cost: float,
        kind: str = "scan",
        affinity: Optional[int] = None,
    ) -> None:
        if cost < 0:
            raise ValueError(f"task {name!r} has negative cost {cost}")
        self.tasks.append(GCTask(name, cost, kind, affinity))

    def add_batches(
        self, name: str, kind: str, costs: Sequence[float], k: int
    ) -> None:
        """Fold per-object ``costs`` into one task per ``k`` objects.

        Object scanning and copying are too fine-grained to schedule one
        object at a time; real collectors claim them in chunks (promotion
        buffers, PLAB-sized copy batches).  Task ``i`` is named
        ``f"{name}-{i}"`` and costs the sum of its batch, added strictly
        left to right from 0.0 — the float a ``+=`` loop would give.
        ``np.cumsum`` accumulates sequentially; ``np.sum`` (pairwise) and
        the builtin ``sum`` (compensated since Python 3.12) would round
        differently.  The tail batch may hold fewer than ``k`` costs.
        """
        if k < 1:
            raise ValueError(f"batch size must be >=1, got {k}")
        costs = np.asarray(costs, dtype=np.float64)
        if not costs.size:
            return
        negative = costs < 0
        if negative.any():
            raise ValueError(
                f"task {name!r} has negative cost "
                f"{costs[negative.argmax()]}"
            )
        full = costs.size // k
        totals = np.cumsum(costs[: full * k].reshape(full, k), axis=1)[:, -1]
        if full * k < costs.size:
            tail = np.cumsum(costs[full * k:])[-1:]
            totals = np.concatenate((totals, tail))
        # ``+ 0.0`` turns an all-negative-zero batch into the loop's 0.0.
        self.tasks.extend(
            GCTask(f"{name}-{i}", cost, kind)
            for i, cost in enumerate((totals + 0.0).tolist())
        )

    @property
    def serial_seconds(self) -> float:
        return sum(t.cost for t in self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __bool__(self) -> bool:
        return bool(self.tasks)

    def __iter__(self) -> Iterator[GCTask]:
        return iter(self.tasks)


def chunked_sweep(
    bag: TaskBag,
    name: str,
    num_items: int,
    per_item_cost: float,
    chunk_items: int,
    kind: str = "cards",
    extra: Optional[Dict[int, float]] = None,
) -> None:
    """Decompose a conceptual-table sweep into chunk tasks.

    One task per ``chunk_items`` entries, each costing the flat per-entry
    sweep plus any ``extra`` cost attributed to entries in that chunk
    (e.g. scanning the objects of a dirty card).  Chunk index doubles as
    worker affinity, modelling striped table ownership.
    """
    if num_items <= 0:
        return
    if chunk_items < 1:
        raise ValueError(f"chunk size must be >=1, got {chunk_items}")
    extra_by_chunk: Dict[int, float] = {}
    if extra:
        for idx, cost in extra.items():
            cid = idx // chunk_items
            extra_by_chunk[cid] = extra_by_chunk.get(cid, 0.0) + cost
    num_chunks = (num_items + chunk_items - 1) // chunk_items
    for cid in range(num_chunks):
        items = min(chunk_items, num_items - cid * chunk_items)
        cost = items * per_item_cost + extra_by_chunk.get(cid, 0.0)
        bag.add(f"{name}-{cid}", cost, kind=kind, affinity=cid)
