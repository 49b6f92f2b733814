"""Master aggregators: per-superstep global values (e.g. the
dangling-rank sum in PageRank) maintained by the master between
barriers."""

from __future__ import annotations

from typing import Dict


class AggregatorRegistry:
    """Master-side global aggregates, one value per name per superstep.

    Values live on the master's heap as small objects; the previous
    superstep's aggregate becomes read-only once the barrier passes, the
    current one is mutable — miniature versions of the message-store
    lifecycle.
    """

    #: simulated size of one aggregate value object
    VALUE_BYTES = 64

    def __init__(self, vm, master_root) -> None:
        self.vm = vm
        self.master_root = master_root
        self._current: Dict[str, float] = {}
        self._previous: Dict[str, float] = {}
        self._current_objs: Dict[str, object] = {}

    def aggregate(self, name: str, value: float) -> None:
        """Accumulate into the current superstep's value."""
        if name not in self._current:
            self._current[name] = 0.0
            obj = self.vm.allocate(self.VALUE_BYTES, name=f"agg-{name}")
            self.vm.write_ref(self.master_root, obj)
            self._current_objs[name] = obj
        self._current[name] += value

    def get(self, name: str) -> float:
        """The previous superstep's aggregated value (BSP semantics)."""
        return self._previous.get(name, 0.0)

    def barrier(self) -> None:
        """Superstep boundary: current values become readable, old ones die."""
        for obj in list(self._current_objs.values()):
            self.vm.write_ref(self.master_root, None, remove=obj)
        self._previous = self._current
        self._current = {}
        self._current_objs = {}
