"""Table 5: H2 metadata size in DRAM per TB of H2 space.

Purely analytic: metadata is the per-region Figure 2 structures times the
region count, so doubling the region size halves it.  Paper values:
417 MB at 1 MB regions down to 2 MB at 256 MB regions.  Both matrices
are the paper's nine region sizes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..faults.session import RunSession
from ..teraheap.regions import metadata_bytes_per_tb
from ..units import MiB
from .harness import Cell, Params, Spec, nest

#: the paper's Table 5 region sizes (real MB) and metadata MB values
PAPER_TABLE5 = {1: 417, 2: 209, 4: 104, 8: 52, 16: 26, 32: 13, 64: 7, 128: 3, 256: 2}


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    return [(f"{size}MB", dict(region_size_mb=size)) for size in PAPER_TABLE5]


def run_cell(
    region_size_mb: int, session: Optional[RunSession] = None
) -> float:
    """Metadata MB per TB of H2 at one region size."""
    return metadata_bytes_per_tb(region_size_mb * MiB) / MiB


def check(cells: List[Cell]) -> List[str]:
    """Every size within 25% of the paper; 1 MB rounds to exactly 417 and
    256 MB needs at most 2 MB."""
    failures = []
    table = nest(cells, "region_size_mb")
    for size, meta in table.items():
        paper = PAPER_TABLE5[size]
        if abs(meta - paper) > 0.25 * paper:
            failures.append(f"{size} MB: {meta:.1f} MB/TB vs paper {paper}")
    if 1 in table and round(table[1]) != 417:
        failures.append(f"1 MB: {table[1]:.1f} MB/TB does not round to 417")
    if 256 in table and table[256] > 2.0:
        failures.append(f"256 MB: {table[256]:.2f} MB/TB exceeds 2")
    return failures


def format_results(results: Dict[int, float]) -> str:
    lines = ["Region (MB)  Metadata (MB/TB)  Paper (MB/TB)"]
    for size, meta in results.items():
        paper = PAPER_TABLE5.get(size, float("nan"))
        lines.append(f"{size:>10d}  {meta:>16.1f}  {paper:>13.1f}")
    return "\n".join(lines)


SPEC = Spec(
    name="table5",
    description="Table 5: H2 metadata per TB by region size",
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=lambda cells: format_results(nest(cells, "region_size_mb")),
)
