"""Deterministic synthetic data generators (graph, ML, tabular)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..units import KiB


@dataclass
class GraphDataset:
    """A directed graph with a power-law degree distribution.

    Models the LDBC ``datagen`` social-network graphs: few very-high-degree
    hubs, many low-degree vertices.  ``out_edges[v]`` lists target vertex
    ids.  ``bytes_per_edge`` calibrates the simulated size of per-vertex
    edge arrays so the dataset's total simulated footprint matches the GB
    figure quoted in the paper's tables.
    """

    num_vertices: int
    out_edges: List[np.ndarray]
    bytes_per_edge: int
    vertex_value_size: int
    seed: int

    @property
    def num_edges(self) -> int:
        return int(sum(len(e) for e in self.out_edges))

    def edge_array_size(self, vertex: int) -> int:
        """Simulated size of a vertex's serialized out-edge array."""
        return max(64, len(self.out_edges[vertex]) * self.bytes_per_edge)

    def total_bytes(self) -> int:
        return (
            sum(self.edge_array_size(v) for v in range(self.num_vertices))
            + self.num_vertices * self.vertex_value_size
        )


def make_graph(
    target_bytes: int,
    num_vertices: int = 4000,
    avg_degree: float = 8.0,
    power: float = 2.1,
    vertex_value_size: int = 96,
    seed: int = 42,
) -> GraphDataset:
    """Generate a power-law graph sized to ``target_bytes`` (simulated).

    Degrees follow a truncated zipf; edge targets are uniform with a bias
    toward low vertex ids (hubs attract edges), giving the skewed message
    volumes that stress Giraph's message stores.
    """
    rng = np.random.default_rng(seed)
    raw = rng.zipf(power, size=num_vertices).astype(np.int64)
    raw = np.minimum(raw, num_vertices // 4)
    degrees = np.maximum(
        1, (raw * (avg_degree / max(raw.mean(), 1e-9))).astype(np.int64)
    )
    out_edges: List[np.ndarray] = []
    for v in range(num_vertices):
        d = int(degrees[v])
        # Bias: half of the edges go to the lowest-id (hub) decile.
        hubs = rng.integers(0, max(num_vertices // 10, 1), size=d // 2)
        rest = rng.integers(0, num_vertices, size=d - d // 2)
        targets = np.unique(np.concatenate([hubs, rest]))
        targets = targets[targets != v]
        if len(targets) == 0:
            targets = np.array([(v + 1) % num_vertices])
        out_edges.append(targets)
    total_edges = int(sum(len(e) for e in out_edges))
    budget = target_bytes - num_vertices * vertex_value_size
    bytes_per_edge = max(8, budget // max(total_edges, 1))
    return GraphDataset(
        num_vertices=num_vertices,
        out_edges=out_edges,
        bytes_per_edge=bytes_per_edge,
        vertex_value_size=vertex_value_size,
        seed=seed,
    )


@dataclass
class MLDataset:
    """A labelled-point dataset for the MLlib-style workloads.

    Materialised as ``num_chunks`` chunk objects of ``chunk_size`` bytes,
    each holding ``records_per_chunk`` points — mirroring Spark's row-batch
    representation of cached training data.
    """

    num_chunks: int
    chunk_size: int
    records_per_chunk: int
    num_features: int
    seed: int

    @property
    def total_bytes(self) -> int:
        return self.num_chunks * self.chunk_size


def make_ml_dataset(
    target_bytes: int,
    chunk_size: int = 8 * KiB,
    num_features: int = 100,
    seed: int = 7,
) -> MLDataset:
    """Size a chunked labelled-point dataset to ``target_bytes``."""
    num_chunks = max(8, target_bytes // chunk_size)
    record_bytes = 16 + 8 * num_features
    return MLDataset(
        num_chunks=num_chunks,
        chunk_size=chunk_size,
        records_per_chunk=max(1, chunk_size // record_bytes),
        num_features=num_features,
        seed=seed,
    )


@dataclass
class TableDataset:
    """A key/value table for the SQL-style RL (relational) workload."""

    num_chunks: int
    chunk_size: int
    rows_per_chunk: int
    key_cardinality: int
    seed: int

    @property
    def total_bytes(self) -> int:
        return self.num_chunks * self.chunk_size


def make_table(
    target_bytes: int,
    chunk_size: int = 8 * KiB,
    row_bytes: int = 128,
    key_cardinality: int = 1000,
    seed: int = 11,
) -> TableDataset:
    num_chunks = max(8, target_bytes // chunk_size)
    return TableDataset(
        num_chunks=num_chunks,
        chunk_size=chunk_size,
        rows_per_chunk=max(1, chunk_size // row_bytes),
        key_cardinality=key_cardinality,
        seed=seed,
    )
