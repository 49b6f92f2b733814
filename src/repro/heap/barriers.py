"""Post-write barriers.

Parallel Scavenge pairs every reference store into the old generation with
a card-table mark.  TeraHeap extends the barrier (in the interpreter and
the C1/C2 JIT templates) with a reference range check that selects the H1
or the H2 card table (Section 4).  The paper measures the extra check at
<=3% on DaCapo and exactly zero when ``EnableTeraHeap`` is off; the
``barrier`` experiment (``python -m repro barrier``) reproduces that.
"""

from __future__ import annotations

from typing import Optional

from ..clock import Clock
from ..config import CostModel
from .heap import ManagedHeap
from .object_model import HeapObject, SpaceId


class WriteBarrier:
    """Post-write barrier with the optional TeraHeap range check."""

    def __init__(
        self,
        heap: ManagedHeap,
        clock: Clock,
        cost: CostModel,
        h2_card_table=None,
        enable_teraheap: bool = False,
    ):
        self.heap = heap
        self.clock = clock
        self.cost = cost
        self.h2_card_table = h2_card_table
        self.enable_teraheap = enable_teraheap
        self.barrier_count = 0
        self.h2_marks = 0

    @property
    def store_cost(self) -> float:
        """Seconds the barrier charges per reference store."""
        extra = (
            self.cost.teraheap_barrier_extra if self.enable_teraheap else 0.0
        )
        return self.cost.barrier_cost + extra

    def on_reference_store(
        self, src: HeapObject, target: Optional[HeapObject]
    ) -> None:
        """Run after ``src.field = target``.

        Dirty the H1 card when an old-generation object is updated, or the
        H2 card when an H2-resident object is updated by a mutator thread
        (the H2 dirty state, Section 3.4).
        """
        self.barrier_count += 1
        self.clock.charge(self.store_cost)
        if self.enable_teraheap and src.space is SpaceId.H2:
            if self.h2_card_table is not None:
                self.h2_card_table.mark_dirty(src.address)
                self.h2_marks += 1
            return
        if src.space is SpaceId.OLD:
            self.heap.card_table.mark(src.address)

    def on_reference_stores(self, src: HeapObject, n: int) -> None:
        """The counter and card effects of ``n`` :meth:`on_reference_store`
        calls on one H1 ``src``; the caller charges :attr:`store_cost`
        per store."""
        self.barrier_count += n
        if src.space is SpaceId.OLD:
            self.heap.card_table.mark(src.address)
