"""RDDs: lazily evaluated, partitioned, optionally cached collections."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ...heap.object_model import HeapObject
from ...units import KiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import SparkContext


@dataclass
class PartitionSpec:
    """Static description of one partition's materialised shape."""

    index: int
    num_chunks: int
    chunk_size: int
    #: GC scan-cost multiplier for this data's chunks: fine-grained
    #: record types (vertex-pair wedges, boxed tuples) pack many more
    #: paper-scale objects per byte than row batches do
    scan_factor: float = 1.0

    @property
    def size_bytes(self) -> int:
        return self.num_chunks * self.chunk_size

    def block_specs(self, target_block_bytes: int) -> List["BlockSpec"]:
        """Split this partition into streaming blocks of bounded size.

        Blocks are chunk-aligned runs of at most ``target_block_bytes``
        (but always at least one chunk); a partition smaller than the
        target streams as a single block.  The split is the streaming
        executor's unit of admission, spill and retirement.
        """
        per_block = max(1, target_block_bytes // max(self.chunk_size, 1))
        return [
            BlockSpec(
                partition=self.index,
                block=b,
                num_chunks=min(per_block, self.num_chunks - b * per_block),
                chunk_size=self.chunk_size,
                scan_factor=self.scan_factor,
            )
            for b in range((self.num_chunks + per_block - 1) // per_block)
        ]


@dataclass(frozen=True)
class BlockSpec:
    """Static shape of one streamed block: a chunk run of a partition."""

    partition: int
    block: int
    num_chunks: int
    chunk_size: int
    scan_factor: float = 1.0

    @property
    def size_bytes(self) -> int:
        return self.num_chunks * self.chunk_size


@dataclass
class MaterializedPartition:
    """A partition resident on the managed heap (H1 or H2)."""

    root: HeapObject
    chunks: List[HeapObject]

    @property
    def size_bytes(self) -> int:
        root = self.root
        size = root._store.size
        return size[root.oid] + sum([size[c.oid] for c in self.chunks])


@dataclass(frozen=True)
class Lineage:
    """An RDD's durable recipe: how to rebuild any partition after loss.

    Driver-side metadata (it survives an executor crash), enough to
    recompute a partition without the materialized objects: the parent
    RDD (by id, resolved through the context's registry so the record
    stays valid across VM incarnations), the transform that produced
    this RDD, and the per-chunk compute cost.  The partition *shape*
    lives in the RDD's :class:`PartitionSpec` list, which the block
    manager also uses to validate recovered H2 objects against the
    partition they claim to be.
    """

    op: str  # "source" | "map"
    parent_id: Optional[int]
    compute_ops_per_chunk: int
    size_factor: float = 1.0

    # -- streaming-aware chunk specs -----------------------------------
    def output_chunks(self, input_chunks: int) -> int:
        """Chunks one stage emits for an ``input_chunks``-chunk block.

        The streaming executor applies lineage at *block* granularity:
        a map stage transforms each in-flight block independently, so
        the per-partition ``size_factor`` applies per block (at least
        one chunk — a block never vanishes).
        """
        if self.parent_id is None:
            return input_chunks
        return max(1, int(input_chunks * self.size_factor))

    def ops_for_chunks(self, num_chunks: int) -> int:
        """Compute operations to process a block of ``num_chunks``."""
        return num_chunks * self.compute_ops_per_chunk


def block_label(cache_label: str, index: int) -> str:
    """The H2 label of one cached partition (``<rdd-label>.p<index>``).

    Labels are per *block* — the unit the block manager caches, evicts
    and (after a crash) re-adopts — so recovery can validate and adopt
    each partition independently: one quarantined region loses one
    block, not the whole RDD.
    """
    return f"{cache_label}.p{index}"


def root_size_for(spec: PartitionSpec) -> int:
    """The descriptor-root allocation size for a partition spec."""
    return max(64, 8 * spec.num_chunks)


class RDD:
    """A resilient distributed dataset.

    Partitions materialise as one descriptor root object referencing
    ``num_chunks`` row-batch chunk objects — the "group of objects with a
    single-entry root reference" structure the paper's hint interface
    exploits (Section 3.1).
    """

    def __init__(
        self,
        ctx: "SparkContext",
        partitions: List[PartitionSpec],
        parent: Optional["RDD"] = None,
        compute_ops_per_chunk: int = 64,
        name: str = "",
        lineage: Optional[Lineage] = None,
    ):
        self.ctx = ctx
        self.rdd_id = ctx.next_rdd_id()
        self.partitions = partitions
        self.parent = parent
        self.compute_ops_per_chunk = compute_ops_per_chunk
        self.name = name or f"rdd-{self.rdd_id}"
        self.persisted = False
        #: registry generation stamped by :meth:`SparkContext.register_rdd`
        self.generation = 1
        self.lineage = lineage or Lineage(
            op="map" if parent is not None else "source",
            parent_id=parent.rdd_id if parent is not None else None,
            compute_ops_per_chunk=compute_ops_per_chunk,
        )
        ctx.register_rdd(self)

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def size_bytes(self) -> int:
        return sum(p.size_bytes for p in self.partitions)

    @property
    def cache_label(self) -> str:
        """TeraHeap label: the RDD id (Section 5, Figure 4).

        Labels are namespaced by the registry generation the RDD was
        registered under: generation 1 (no restart has rebuilt the
        driver-side graph) keeps the paper's plain ``rdd-<id>`` form,
        while RDDs registered after an executor restart embed the
        generation — so a recomputed RDD whose registry happens to
        reuse an earlier incarnation's numeric id can never match (and
        adopt) that incarnation's stale H2 blocks.
        """
        if self.generation <= 1:
            return f"rdd-{self.rdd_id}"
        return f"rdd-{self.rdd_id}~g{self.generation}"

    def block_label(self, index: int) -> str:
        """Per-partition H2 label used by the block manager."""
        return block_label(self.cache_label, index)

    def lineage_stages(self) -> List["RDD"]:
        """The operator chain ``source -> ... -> self``, via lineage.

        Resolved through the registry like :meth:`_compute` does, so the
        chain stays valid across executor incarnations.  This is the
        operator pipeline the streaming executor drives blocks through.
        """
        stages: List[RDD] = []
        rdd: Optional[RDD] = self
        while rdd is not None:
            stages.append(rdd)
            parent_id = rdd.lineage.parent_id
            rdd = (
                self.ctx.rdd(parent_id) if parent_id is not None else None
            )
        stages.reverse()
        return stages

    # ------------------------------------------------------------------
    # Transformations (lazy)
    # ------------------------------------------------------------------
    def map(
        self,
        ops_per_chunk: int = 64,
        size_factor: float = 1.0,
        name: str = "",
        scan_factor: Optional[float] = None,
    ) -> "RDD":
        """A narrow transformation producing ``size_factor`` x the bytes."""
        children = [
            PartitionSpec(
                index=p.index,
                num_chunks=max(1, int(p.num_chunks * size_factor)),
                chunk_size=p.chunk_size,
                scan_factor=(
                    p.scan_factor if scan_factor is None else scan_factor
                ),
            )
            for p in self.partitions
        ]
        return RDD(
            self.ctx,
            children,
            parent=self,
            compute_ops_per_chunk=ops_per_chunk,
            name=name,
            lineage=Lineage(
                op="map",
                parent_id=self.rdd_id,
                compute_ops_per_chunk=ops_per_chunk,
                size_factor=size_factor,
            ),
        )

    def persist(self) -> "RDD":
        """Mark for caching — the unmodified application-level call."""
        self.persisted = True
        return self

    def unpersist(self) -> "RDD":
        self.persisted = False
        self.ctx.block_manager.evict_rdd(self)
        return self

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def compute_partition(self, index: int) -> MaterializedPartition:
        """Materialise one partition, honouring the cache."""
        if self.persisted:
            return self.ctx.block_manager.get_or_compute(
                self, index, self._compute
            )
        return self._compute(index)

    def _compute(self, index: int) -> MaterializedPartition:
        vm = self.ctx.vm
        spec = self.partitions[index]
        # Resolve the parent through the lineage record, not the object
        # reference: the record is the durable recipe a restarted driver
        # recomputes from (self.parent is kept as a convenience alias).
        parent = (
            self.ctx.rdd(self.lineage.parent_id)
            if self.lineage.parent_id is not None
            else None
        )
        with vm.roots.frame() as frame:
            if parent is not None:
                parent_part = parent.compute_partition(index)
                # The task holds its input partition on the stack while
                # producing this one; with a batch frame active, all
                # concurrent tasks' inputs stay pinned together.
                holder = self.ctx.batch_frame or frame
                holder.push(parent_part.root)
                holder.push_all(parent_part.chunks)
                self.ctx.read_partition(parent_part)
                vm.compute(
                    len(parent_part.chunks) * self.compute_ops_per_chunk
                )
            else:
                # Source partition: records stream in from external storage.
                vm.compute(spec.num_chunks * self.compute_ops_per_chunk)
            count = spec.num_chunks
            chunks = vm.allocate_many(
                [spec.chunk_size] * count,
                [f"{self.name}-p{index}-c{i}" for i in range(count)],
                frame,
                scan_factor=spec.scan_factor,
            )
            root = vm.allocate(
                root_size_for(spec),
                refs=chunks,
                name=f"{self.name}-p{index}",
            )
        return MaterializedPartition(root=root, chunks=chunks)

    def _task_batches(self):
        """Partition indices grouped by executor task slots.

        The executor runs ``mutator_threads`` tasks concurrently; each
        in-flight task pins its partition (and any deserialized copy of
        it) on the mutator stack.  This concurrent working set is what
        overflows the survivor spaces and drives promotion — the memory
        pressure the paper's Section 7.6 thread-scaling experiment probes.
        """
        threads = self.ctx.vm.config.mutator_threads
        indices = list(range(self.num_partitions))
        for i in range(0, len(indices), threads):
            yield indices[i : i + threads]

    def evaluate(self) -> int:
        """Action: materialise every partition (e.g. ``count()``).

        Uncached partitions become garbage as soon as their task batch
        completes — the allocation churn that pressures the young gen.
        """
        total = 0
        vm = self.ctx.vm
        for batch in self._task_batches():
            with vm.roots.frame() as frame:
                self.ctx.batch_frame = frame
                try:
                    for index in batch:
                        self.ctx.task_start(self, index)
                        part = self.compute_partition(index)
                        frame.push(part.root)
                        frame.push_all(part.chunks)
                        total += part.size_bytes
                finally:
                    self.ctx.batch_frame = None
        self.ctx.task_end()
        return total

    def evaluate_streaming(self) -> int:
        """Action: stream every partition through the operator chain.

        The streaming sibling of :meth:`evaluate`: blocks flow through
        the lineage stages under the context's bounded in-flight budget
        instead of materializing whole RDDs.  Returns the same byte
        total an :meth:`evaluate` of this RDD would.
        """
        from .streaming import StreamingExecutor

        return StreamingExecutor(self.ctx).run(self).total_bytes

    #: temporary bytes allocated per cached byte processed in an epoch
    #: (gradient vectors, boxed intermediates)
    EPOCH_TEMP_RATIO = 0.3
    #: per-task partial aggregates that stay live for the task's duration
    #: and therefore survive (and get copied by) intervening minor GCs
    EPOCH_PARTIAL_RATIO = 0.12

    def foreach_cached(self, ops_per_chunk: int) -> None:
        """Iterate the cached data (one ML training epoch)."""
        vm = self.ctx.vm
        for batch in self._task_batches():
            with vm.roots.frame() as frame:
                for index in batch:
                    self.ctx.task_start(self, index)
                    part = self.compute_partition(index)
                    frame.push(part.root)
                    frame.push_all(part.chunks)
                    self.ctx.read_partition(part)
                    vm.compute(len(part.chunks) * ops_per_chunk)
                    partial = int(part.size_bytes * self.EPOCH_PARTIAL_RATIO)
                    if partial >= 16:
                        frame.push(
                            vm.allocate(partial, name="task-partial")
                        )
                    vm.allocate_temp(
                        int(part.size_bytes * self.EPOCH_TEMP_RATIO)
                    )
        self.ctx.task_end()


def make_partitions(
    total_bytes: int,
    num_partitions: int,
    chunk_size: int = 8 * KiB,
    scan_factor: float = 1.0,
) -> List[PartitionSpec]:
    """Split ``total_bytes`` into equal partitions of equal-size chunks."""
    per_part = max(chunk_size, total_bytes // max(num_partitions, 1))
    chunks = max(1, per_part // chunk_size)
    return [
        PartitionSpec(
            index=i,
            num_chunks=chunks,
            chunk_size=chunk_size,
            scan_factor=scan_factor,
        )
        for i in range(num_partitions)
    ]
