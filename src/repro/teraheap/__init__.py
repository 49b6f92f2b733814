"""TeraHeap: the paper's contribution.

A second, high-capacity managed heap (H2) memory-mapped over a fast
storage device, coexisting with the DRAM-backed H1:

- :mod:`.hints` — the ``h2_tag_root`` / ``h2_move`` hint interface built on
  key-object opportunism (Section 3.2);
- :mod:`.regions` — region-based H2 organisation with per-region DRAM
  metadata, dependency lists and lazy bulk reclamation (Section 3.3).
  The region groups the paper evaluates and rejects are the same lists
  with direction dropped (``TeraHeapConfig.region_policy="groups"``): a
  group is a connected component of the dependency edges;
- :mod:`.h2_card_table` — the four-state card table, organised in slices
  and stripes, tracking backward (H2 to H1) references (Section 3.4);
- :mod:`.thresholds` — the high/low threshold policy that bounds H1
  pressure between ``h2_move`` hints (Section 3.2);
- :mod:`.promotion` — 2 MB promotion buffers batching object writes;
- :mod:`.h2_heap` — the H2 allocator over a mapped device file;
- :mod:`.collector` — the TeraHeap extension of Parallel Scavenge
  (Section 4).
"""

from .h2_card_table import CardState, H2CardTable
from .h2_heap import H2_BASE, H2Heap
from .hints import HintInterface
from .regions import PER_REGION_METADATA_BYTES, Region, metadata_bytes_per_tb
from .thresholds import ThresholdPolicy

__all__ = [
    "CardState",
    "H2CardTable",
    "H2_BASE",
    "H2Heap",
    "HintInterface",
    "PER_REGION_METADATA_BYTES",
    "Region",
    "ThresholdPolicy",
    "metadata_bytes_per_tb",
]
