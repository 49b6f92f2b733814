"""The paper's experiment configurations (Tables 1-4, Figure 6 sweeps).

DRAM figures are the paper's GB values (converted to simulated bytes by
the runner).  Spark reserves 16 GB of DRAM for the driver + kernel page
cache (DR2); Giraph's DR2 is per-workload (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: DRAM reserved for system use (driver + page cache) in Spark runs (§6)
SPARK_DR2_GB = 16


@dataclass
class SparkWorkloadConfig:
    """One Table 3 row plus its Figure 6 DRAM sweep."""

    name: str
    dataset_gb: int
    #: Figure 6 x-axis DRAM points for Spark-SD (smallest ones OOM)
    sd_drams: List[int]
    #: Figure 6 DRAM points for TeraHeap
    th_drams: List[int]
    #: whether the ML streaming pattern gets huge pages in H2 (§6)
    huge_pages: bool = False


#: Table 3 / Figure 6 configurations (NVMe server)
SPARK_WORKLOADS_TABLE3: Dict[str, SparkWorkloadConfig] = {
    "PR": SparkWorkloadConfig("PR", 80, [32, 48, 80, 144], [32, 80]),
    "CC": SparkWorkloadConfig("CC", 84, [33, 50, 84, 152], [33, 84]),
    "SSSP": SparkWorkloadConfig("SSSP", 58, [27, 37, 58, 100], [37, 58]),
    "SVD": SparkWorkloadConfig("SVD", 40, [22, 28, 40, 64], [28, 40]),
    "TR": SparkWorkloadConfig("TR", 80, [59, 70, 80], [59, 80]),
    "LR": SparkWorkloadConfig(
        "LR", 70, [29, 43, 70, 124], [43, 70], huge_pages=True
    ),
    "LgR": SparkWorkloadConfig(
        "LgR", 70, [29, 43, 70, 124], [43, 70], huge_pages=True
    ),
    "SVM": SparkWorkloadConfig(
        "SVM", 48, [28, 32, 36, 48], [36, 48], huge_pages=True
    ),
    "BC": SparkWorkloadConfig("BC", 98, [53, 57, 98, 180], [57, 98]),
    "RL": SparkWorkloadConfig("RL", 63, [24, 37, 63], [37, 63]),
}


@dataclass
class GiraphWorkloadConfig:
    """One Table 4 row plus its Figure 6 DRAM points."""

    name: str
    dataset_gb: int
    drams: List[int]
    ooc_heap_gb: int
    ooc_dr2_gb: int
    th_h1_gb: int
    th_dr2_gb: int


#: Table 4 / Figure 6 configurations (NVMe server)
GIRAPH_WORKLOADS_TABLE4: Dict[str, GiraphWorkloadConfig] = {
    "PR": GiraphWorkloadConfig("PR", 85, [74, 85], 70, 15, 50, 35),
    "CDLP": GiraphWorkloadConfig("CDLP", 85, [74, 85], 70, 15, 60, 25),
    "WCC": GiraphWorkloadConfig("WCC", 85, [74, 85], 70, 15, 60, 25),
    "BFS": GiraphWorkloadConfig("BFS", 65, [57, 65], 48, 17, 35, 30),
    "SSSP": GiraphWorkloadConfig("SSSP", 90, [78, 90], 75, 15, 50, 40),
}

#: dataset GB of the Giraph cells in the figures' smoke matrices; their
#: DRAM shrinks by the same ratio (Figure 13b's rule), which keeps every
#: direction the smoke checks assert at about a quarter of the run time
SMOKE_GIRAPH_DATASET_GB = 25


def giraph_size(
    workload: str, smoke: bool, dram_gb: Optional[int] = None
) -> Dict[str, Optional[int]]:
    """A Giraph cell's ``dram_gb``/``dataset_gb`` parameters: Table 4's
    (``dram_gb`` defaults to the largest point), or scaled down to
    :data:`SMOKE_GIRAPH_DATASET_GB`."""
    cfg = GIRAPH_WORKLOADS_TABLE4[workload]
    dram = cfg.drams[-1] if dram_gb is None else dram_gb
    if not smoke:
        return dict(dram_gb=dram, dataset_gb=None)
    dataset = SMOKE_GIRAPH_DATASET_GB
    return dict(dram_gb=int(dataset * dram / cfg.dataset_gb), dataset_gb=dataset)


#: Figure 12(c): Panthera comparison configuration (§7.5) — 64 GB heap,
#: 16 GB DRAM component, young gen 1/6 on DRAM, old gen 6 GB DRAM + 48 GB
#: NVM; TeraHeap gets a 16 GB H1 and H2 on NVM.
PANTHERA_HEAP_GB = 64
PANTHERA_DRAM_GB = 16
PANTHERA_DRAM_OLD_GB = 6
TERAHEAP_H1_VS_PANTHERA_GB = 16

#: Figure 12(c) workload list (KMeans appears here only)
PANTHERA_WORKLOADS = ["PR", "CC", "SSSP", "SVD", "LR", "LgR", "KM", "SVM", "BC"]

#: Figure 13(a): thread counts
SCALING_THREADS = [4, 8, 16]

#: Figure 13(b): small vs large dataset GB per workload
DATASET_SCALING: Dict[str, Tuple[int, int]] = {
    "CC": (32, 73),
    "LR": (64, 256),
    "CDLP": (25, 91),
}
