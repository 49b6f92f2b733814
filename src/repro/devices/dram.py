"""DRAM device model: byte-addressable, low latency, pattern-insensitive."""

from __future__ import annotations

from ..clock import Clock
from ..units import GB, MiB
from .base import Device


class DRAM(Device):
    """DDR4 DRAM as in the paper's servers (Table 1).

    Bandwidths are expressed at simulation scale (see ``units.SCALE``):
    the absolute numbers are synthetic but the DRAM : NVM : NVMe ratios
    match published measurements (Izraelevitz et al., Yang et al.).
    Memory-mode NVM's DRAM cache charges the same timings.
    """

    LATENCY = 100e-9
    READ_BW = 10.0 * MiB
    WRITE_BW = 8.0 * MiB

    def __init__(self, clock: Clock, capacity: int = 256 * GB, name: str = "dram"):
        super().__init__(
            name=name,
            capacity=capacity,
            read_latency=self.LATENCY,
            write_latency=self.LATENCY,
            read_bw=self.READ_BW,
            write_bw=self.WRITE_BW,
            page_size=1,
            random_penalty=1.0,
            clock=clock,
        )
