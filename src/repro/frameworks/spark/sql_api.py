"""DataFrame and Dataset veneers over RDDs.

Spark abstracts intermediate results as immutable collections through
three APIs — RDDs, DataFrames and Datasets (Section 5) — and the paper's
block-manager integration tags cached partitions of *all three* as root
key-objects.  These veneers give the mini-framework the same API surface:
a DataFrame is a schema'd RDD of row batches; a Dataset adds a typed
element view.  Caching, tagging and H2 migration are inherited unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ...units import KiB
from .rdd import RDD

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkContext


@dataclass
class Schema:
    """Column names and per-row byte widths."""

    columns: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def row_bytes(self) -> int:
        return max(16, sum(width for _, width in self.columns))

    def column_names(self) -> List[str]:
        return [name for name, _ in self.columns]

    def project(self, names: List[str]) -> "Schema":
        keep = set(names)
        return Schema([c for c in self.columns if c[0] in keep])


class DataFrame:
    """A schema'd, partitioned, optionally cached collection."""

    def __init__(self, rdd: RDD, schema: Schema):
        self.rdd = rdd
        self.schema = schema

    # -- relational operators ------------------------------------------
    def select(self, *names: str) -> "DataFrame":
        """Column projection: shrinks every row to the kept columns."""
        projected = self.schema.project(list(names))
        factor = projected.row_bytes / self.schema.row_bytes
        return DataFrame(
            self.rdd.map(
                ops_per_chunk=24,
                size_factor=max(factor, 0.05),
                name=f"{self.rdd.name}-select",
            ),
            projected,
        )

    def where(self, selectivity: float) -> "DataFrame":
        """Row filter keeping ``selectivity`` of the rows."""
        if not 0.0 < selectivity <= 1.0:
            raise ValueError("selectivity must be in (0, 1]")
        return DataFrame(
            self.rdd.map(
                ops_per_chunk=32,
                size_factor=selectivity,
                name=f"{self.rdd.name}-where",
            ),
            self.schema,
        )

    def join(self, other: "DataFrame", output_factor: float = 1.0) -> "DataFrame":
        """Hash join: shuffles both sides, produces a combined schema."""
        ctx = self.rdd.ctx
        ctx.shuffle(self.rdd.size_bytes)
        ctx.shuffle(other.rdd.size_bytes)
        joined_schema = Schema(self.schema.columns + other.schema.columns)
        factor = output_factor * (
            joined_schema.row_bytes / self.schema.row_bytes
        )
        return DataFrame(
            self.rdd.map(
                ops_per_chunk=96,
                size_factor=factor,
                name=f"{self.rdd.name}-join",
            ),
            joined_schema,
        )

    def group_by(self, reduction: float = 0.1) -> "DataFrame":
        """Aggregation: shuffles and shrinks to ``reduction`` of the rows."""
        self.rdd.ctx.shuffle(int(self.rdd.size_bytes * 0.8))
        return DataFrame(
            self.rdd.map(
                ops_per_chunk=64,
                size_factor=reduction,
                name=f"{self.rdd.name}-groupby",
            ),
            self.schema,
        )

    # -- caching / actions ----------------------------------------------
    def persist(self) -> "DataFrame":
        """Cached partitions are tagged exactly like RDD partitions."""
        self.rdd.persist()
        return self

    def unpersist(self) -> "DataFrame":
        self.rdd.unpersist()
        return self

    def count(self) -> int:
        return self.rdd.evaluate()

    @property
    def cache_label(self) -> str:
        return self.rdd.cache_label


class Dataset(DataFrame):
    """A typed view over a DataFrame (Spark's ``Dataset[T]``).

    Typed lambda operators cannot be optimised away, so per-element work
    is charged at the deserialized-object rate rather than the columnar
    one — the practical difference between the two APIs.
    """

    #: extra per-chunk work for typed (non-codegen) operators
    TYPED_OVERHEAD = 2

    def map_elements(self, ops_per_element: int = 1) -> "Dataset":
        rdd = self.rdd.map(
            ops_per_chunk=ops_per_element * self.TYPED_OVERHEAD * 16,
            size_factor=1.0,
            name=f"{self.rdd.name}-mapelems",
        )
        return Dataset(rdd, self.schema)


def read_table(
    ctx: "SparkContext",
    total_bytes: int,
    schema: Optional[Schema] = None,
    name: str = "table",
) -> DataFrame:
    """Entry point: a source DataFrame of ``total_bytes``."""
    schema = schema or Schema([("key", 8), ("value", 120)])
    rdd = ctx.range_rdd(total_bytes, chunk_size=8 * KiB, name=name)
    return DataFrame(rdd, schema)
