"""Size and scale units used throughout the simulator.

The simulator accounts for space in *simulated bytes*.  Workload and heap
sizes in the paper are quoted in GB; to keep simulated object populations
tractable (tens of thousands of objects rather than billions) the experiment
drivers scale a "paper GB" down to :data:`GB` = 1 MiB of simulated bytes.
All ratios (dataset/heap, live/heap, region/segment) are preserved, which is
what the GC and I/O dynamics depend on.
"""

from __future__ import annotations

# Real byte units (used for device pages, card segments, object sizes).
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

# One "paper gigabyte" at simulation scale.  Heap sizes, DRAM sizes and
# dataset sizes quoted from the paper's tables are multiplied by this.
SCALE = 1.0 / 1024.0
GB = int(GiB * SCALE)  # = 1 MiB of simulated bytes
MB = int(MiB * SCALE)  # = 1 KiB of simulated bytes
TB = 1024 * GB


def gb(n: float) -> int:
    """Convert a paper-scale GB figure to simulated bytes."""
    return int(n * GB)


def mb(n: float) -> int:
    """Convert a paper-scale MB figure to simulated bytes."""
    return int(n * MB)


def fmt_bytes(n: float) -> str:
    """Render a simulated byte count using paper-scale units."""
    if n >= TB:
        return f"{n / TB:.1f} TB"
    if n >= GB:
        return f"{n / GB:.1f} GB"
    if n >= MB:
        return f"{n / MB:.1f} MB"
    return f"{int(n)} B"
