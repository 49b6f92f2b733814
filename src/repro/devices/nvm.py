"""Intel Optane DC persistent memory model (App Direct and Memory modes)."""

from __future__ import annotations

from ..clock import Clock
from ..units import GB, MiB
from .base import AccessPattern, Device
from .dram import DRAM


class NVM(Device):
    """Byte-addressable NVM in App Direct mode (Section 6, Table 2).

    Mounted on ext4-DAX with direct load/store mappings: H2's backing
    device and Spark-SD's off-heap store.  Ratios follow the Optane
    characterisation literature cited by the paper (Izraelevitz et al.
    2019, Yang et al. 2020): reads ~2-3x slower than DRAM, writes ~5x
    slower, no page-granularity amplification.
    """

    def __init__(
        self, clock: Clock, capacity: int = 3072 * GB, name: str = "nvm"
    ):
        super().__init__(
            name=name,
            capacity=capacity,
            read_latency=300e-9,
            write_latency=500e-9,
            read_bw=4.0 * MiB,
            write_bw=1.6 * MiB,
            page_size=1,
            random_penalty=1.3,
            clock=clock,
        )


class NVMMemoryMode(NVM):
    """NVM in Memory mode with DRAM acting as a direct-mapped cache.

    The CPU memory controller moves data between DRAM and NVM with no
    software control over placement; the paper shows this produces 5.3x /
    11.8x more NVM reads/writes than TeraHeap (Section 7.5).  We model it
    as a device whose effective cost blends DRAM and NVM according to a
    hit ratio that degrades as the working set exceeds the DRAM cache.
    """

    def __init__(
        self,
        clock: Clock,
        dram_cache_size: int = 192 * GB,
        capacity: int = 1024 * GB,
        name: str = "nvm-memmode",
    ):
        super().__init__(clock, capacity, name)
        self.dram_cache_size = dram_cache_size
        self.working_set = 0
        #: hit ratio for GC accesses: collectors stream through the whole
        #: heap with no temporal locality, defeating the direct-mapped
        #: hardware cache (the paper measures 5.3x/11.8x more NVM
        #: reads/writes than TeraHeap, Section 7.5)
        self.gc_hit_ratio = 0.15
        #: upper bound on the mutator hit ratio — Memory mode's
        #: direct-mapped cache suffers conflict misses even when the
        #: working set nominally fits
        self.mutator_hit_cap = 0.80

    def hit_ratio(self) -> float:
        """Fraction of mutator accesses served from the DRAM cache."""
        if self.working_set <= 0:
            return self.mutator_hit_cap
        ratio = self.dram_cache_size / self.working_set
        return max(0.10, min(self.mutator_hit_cap, self.mutator_hit_cap * ratio))

    def _blend(
        self,
        write: bool,
        nbytes: int,
        pattern: AccessPattern,
        requests: int,
        hit: float,
    ) -> float:
        """Serve the ``hit`` fraction of ``nbytes`` from the DRAM cache
        (one DRAM latency, whatever ``requests``) and the rest from NVM."""
        dram_part = int(nbytes * hit)
        nvm_part = nbytes - dram_part
        cost = 0.0
        if dram_part:
            bw = DRAM.WRITE_BW if write else DRAM.READ_BW
            piece = DRAM.LATENCY + dram_part / bw
            self.clock.charge(piece)
            cost += piece
        if nvm_part:
            cost += super()._transfer(write, nvm_part, pattern, requests)
        return cost

    def _transfer(self, write, nbytes, pattern, requests, share=1.0):
        """Mutator access at the working set's hit ratio.  An empty
        request touches neither memory but still counts as issued."""
        if not nbytes:
            if write:
                self.traffic.write_ops += requests
            else:
                self.traffic.read_ops += requests
            return 0.0
        return self._blend(write, nbytes, pattern, requests, self.hit_ratio())

    # -- GC access path (streaming, low cache hit ratio) ----------------
    def gc_read(
        self,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.RANDOM,
        requests: int = 1,
    ) -> float:
        return self._blend(False, nbytes, pattern, requests, self.gc_hit_ratio)

    def gc_write(
        self,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.RANDOM,
        requests: int = 1,
    ) -> float:
        return self._blend(True, nbytes, pattern, requests, self.gc_hit_ratio)
