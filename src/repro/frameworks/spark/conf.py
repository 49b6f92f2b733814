"""Spark executor configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ...devices.base import Device
from ...units import KiB


class CachePolicy(enum.Enum):
    """How the block manager handles cached partitions (Table 2)."""

    #: Spark-SD: on-heap up to the storage fraction, the rest serialized to
    #: the off-heap store on NVMe SSD or NVM (App Direct)
    SD = "sd"
    #: Spark-MO: heap sized to fit all cached data (NVM Memory mode)
    MO = "mo"
    #: TeraHeap: cached partitions tagged and migrated to H2
    TERAHEAP = "teraheap"


@dataclass
class SparkConf:
    """Executor-level knobs used by the paper's configurations."""

    cache_policy: CachePolicy = CachePolicy.SD
    #: device backing the off-heap store and shuffle spills
    offheap_device: Optional[Device] = None
    num_partitions: int = 64
    #: fraction of the heap the on-heap cache may occupy (Section 6: 50%)
    storage_fraction: float = 0.5

    # --- Streaming execution (block-streaming executor) ----------------
    #: execution slots of the streaming executor; the bounded in-flight
    #: budget is ``max_inflight_blocks x target_block_bytes`` (Ray Data's
    #: ``num_execution_slots x max_block_size`` formula)
    max_inflight_blocks: int = 4
    #: target size of one streamed block; partitions larger than this are
    #: split into multiple blocks, smaller partitions stream as one
    target_block_bytes: int = 256 * KiB

    @property
    def inflight_budget_bytes(self) -> int:
        """The streaming executor's bounded in-flight byte budget."""
        return self.max_inflight_blocks * self.target_block_bytes
