"""Deterministic synthetic graph generator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


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
