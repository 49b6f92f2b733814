"""Storage and memory device models.

The paper evaluates TeraHeap with H2 backed by an NVMe SSD (block
addressable, page-granularity transfers) and by Intel Optane NVM (byte
addressable, higher latency than DRAM).  This package models both, plus
DRAM, a kernel page cache, and memory-mapped file regions with page faults
and optional huge pages (HugeMap, Section 6).
"""

from .base import AccessPattern, Device, DeviceTraffic
from .dram import DRAM
from .durability import DurableImage, image_of
from .mmap import MappedFile
from .nvm import NVM
from .nvme import NVMeSSD
from .page_cache import PageCache

__all__ = [
    "AccessPattern",
    "Device",
    "DeviceTraffic",
    "DRAM",
    "DurableImage",
    "image_of",
    "MappedFile",
    "NVM",
    "NVMeSSD",
    "PageCache",
]
