"""Synthetic dataset generators.

Stand-ins for the paper's graph inputs, the LDBC Graphalytics
``datagen`` graphs (Giraph workloads), plus the DaCapo profiles of the
barrier experiment.  Generators are deterministic per seed and produce
*descriptors* — sizes and graph topology — that frameworks materialise
as heap objects through the VM.
"""

from .generators import (
    GraphDataset,
    make_graph,
)

__all__ = [
    "GraphDataset",
    "make_graph",
]
