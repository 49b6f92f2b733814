"""Block-streaming execution: bounded in-flight memory instead of RDDs.

Whole-RDD evaluation (:meth:`~repro.frameworks.spark.rdd.RDD.evaluate`)
materialises every partition of every lineage stage per task batch, so
the executor's live set grows with the *input*, not with the machine —
the memory pressure that drives the paper's GC wall.  The streaming
executor replaces that with the model popularised by Ray Data and
Spark's own pipelined scans: partition-sized **blocks** flow through the
operator chain one at a time, and the executor never holds more than

    ``max_inflight_blocks * target_block_bytes``

bytes of in-flight data (:attr:`SparkConf.inflight_budget_bytes`).

Admission control: before a new source block is produced, the executor
checks the budget and the memory-pressure signals (H1 occupancy past
:data:`STREAM_PRESSURE_WATERMARK`, or the H2 governor reporting an
emergency).  Under pressure it applies **operator backpressure**: the
producing slot parks (charged to ``Bucket.ALLOC_STALL``) and one
in-flight block is *spilled* rather than dropped — a raw copy to the H2
device (no S/D; this is TeraHeap's whole point) or, while the governor
circuit is OPEN, a serialized-on-heap holder.  Spilled blocks are read
back at partition assembly; nothing is ever recomputed from lineage.

The trade-off is deliberate and measurable (the ``streamscale``
experiment): per-block dispatch costs are pure overhead when the input
is small enough to fit comfortably, and the win only appears once the
whole-RDD live set starts drowning the collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...clock import Bucket
from ...heap.object_model import HeapObject
from ...heap.roots import StackFrame
from .rdd import RDD, BlockSpec, MaterializedPartition

#: H1 occupancy at which the streaming executor applies operator
#: backpressure (spill-then-stall) even with a healthy device
STREAM_PRESSURE_WATERMARK = 0.85
#: simulated seconds one streaming backpressure stall parks the
#: operator pipeline before rechecking admission
STREAM_STALL_WAIT = 1e-3
#: stall rounds per admission before the executor force-admits (the
#: block is coming either way; bounded stalling keeps progress)
STREAM_MAX_STALL_ROUNDS = 4

#: per-block CSV/trace row fates
FATE_CONSUMED = "consumed"
FATE_PERSISTED = "persisted"
FATE_SPILLED_H2 = "spilled-h2"
FATE_SPILLED_SER = "spilled-ser"


@dataclass
class StreamBlock:
    """One in-flight block: the chunks of a partition slice, pinned."""

    partition: int
    block: int
    num_chunks: int
    chunk_size: int
    scan_factor: float
    frame: Optional[StackFrame]
    chunks: List[HeapObject]
    #: "" while live on-heap, else "h2" (raw device copy) or "ser"
    #: (serialized-on-heap holder)
    spilled: str = ""
    holder: Optional[HeapObject] = None
    #: the executor's per-block report row, updated in place
    row: Optional[dict] = None

    @property
    def size_bytes(self) -> int:
        return self.num_chunks * self.chunk_size


@dataclass
class StreamResult:
    """What one streaming action did, for metrics and acceptance gates."""

    total_bytes: int = 0
    blocks: int = 0
    stages: int = 0
    inflight_bytes: int = 0
    peak_inflight_bytes: int = 0
    backpressure_stalls: int = 0
    stall_seconds: float = 0.0
    forced_admissions: int = 0
    spills_h2: int = 0
    spills_serialized: int = 0
    spill_bytes: int = 0
    unspills: int = 0
    #: downstream dispatch seconds hidden behind mutator progress
    hidden_seconds: float = 0.0
    #: per-block report rows (partition, block, bytes, stalls, fate)
    block_rows: List[dict] = field(default_factory=list)
    #: (sim time, inflight bytes, cumulative spill bytes, cumulative
    #: stalls) samples at every in-flight transition, for trace counters
    counter_samples: List[Tuple[float, int, int, int]] = field(
        default_factory=list
    )

    @property
    def spills(self) -> int:
        return self.spills_h2 + self.spills_serialized


class StreamingExecutor:
    """Drives blocks through an RDD's operator chain under a byte budget."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.vm = ctx.vm
        self.conf = ctx.conf
        self.result = StreamResult()
        #: ``Bucket.OTHER`` total when each downstream stage last ran a
        #: block: the overlap budget — mutator progress the stage's slot
        #: sat idle through — that its next dispatch can hide behind,
        #: exactly like concurrent marking's budget window
        self._stage_other: Dict[int, float] = {}
        #: frames currently open (closed unconditionally on exit)
        self._open_frames: List[StackFrame] = []

    # ------------------------------------------------------------------
    def run(self, rdd: RDD) -> StreamResult:
        """Stream every partition of ``rdd`` through its lineage chain."""
        stages = rdd.lineage_stages()
        self.result.stages = len(stages)
        self._sample()
        try:
            for p_index in range(rdd.num_partitions):
                self.ctx.task_start(rdd, p_index)
                self._run_partition(rdd, stages, p_index)
            self.ctx.task_end()
        finally:
            for frame in list(self._open_frames):
                self._close(frame)
        self._sample()
        return self.result

    def _run_partition(
        self, rdd: RDD, stages: List[RDD], p_index: int
    ) -> None:
        outputs: List[StreamBlock] = []
        source_spec = stages[0].partitions[p_index]
        for bspec in source_spec.block_specs(self.conf.target_block_bytes):
            stalls = self._admit(bspec.size_bytes, outputs)
            blk = self._run_block(stages, p_index, bspec, outputs)
            blk.row = {
                "partition": p_index,
                "block": bspec.block,
                "chunks": blk.num_chunks,
                "bytes": blk.size_bytes,
                "admit_stalls": stalls,
                "fate": FATE_PERSISTED if rdd.persisted else FATE_CONSUMED,
            }
            self.result.block_rows.append(blk.row)
            self.result.blocks += 1
            if rdd.persisted:
                outputs.append(blk)
            else:
                self.result.total_bytes += blk.size_bytes
                self._retire(blk)
        if rdd.persisted:
            part = self._assemble(rdd, p_index, outputs)
            self.ctx.block_manager.store_partition(rdd, p_index, part)
            for blk in outputs:
                self._retire(blk)
            self.result.total_bytes += part.size_bytes
        else:
            # Parity with evaluate(): count the partition descriptor
            # root a whole-RDD materialisation would have produced.
            self.result.total_bytes += max(
                64, 8 * rdd.partitions[p_index].num_chunks
            )

    # ------------------------------------------------------------------
    # Admission control and backpressure
    # ------------------------------------------------------------------
    def _under_pressure(self) -> bool:
        vm = self.vm
        if vm.in_emergency():
            return True
        if vm.heap.capacity <= 0:
            return False
        occupancy = vm.heap.used() / vm.heap.capacity
        return occupancy >= STREAM_PRESSURE_WATERMARK

    def _admit(self, est_bytes: int, outputs: List[StreamBlock]) -> int:
        """Block the producer until ``est_bytes`` fit, spilling as needed.

        Each backpressure round parks the producing slot for
        :data:`STREAM_STALL_WAIT` (charged to ``Bucket.ALLOC_STALL``), spills
        the oldest spillable in-flight block, and scavenges the freed
        chunks.  A stall round is only charged when it can buy something
        — a spill of our own blocks, a shed through the VM's shared
        pressure path under a governor emergency, or a scavenge when the
        budget itself is exceeded; pure occupancy pressure with nothing
        left to shed returns immediately (the allocator's own slow path
        is the backstop).  After :data:`STREAM_MAX_STALL_ROUNDS` rounds the
        block is force-admitted.  Returns the stall rounds taken.
        """
        conf = self.conf
        result = self.result
        vm = self.vm
        rounds = 0
        while True:
            over = (
                result.inflight_bytes + est_bytes
                > conf.inflight_budget_bytes
            )
            if not over and not self._under_pressure():
                return rounds
            can_spill = any(
                b.frame is not None and not b.spilled for b in outputs
            )
            emergency = vm.in_emergency()
            if not over and not can_spill and not emergency:
                return rounds
            if rounds >= STREAM_MAX_STALL_ROUNDS:
                result.forced_admissions += 1
                return rounds
            rounds += 1
            result.backpressure_stalls += 1
            result.stall_seconds += STREAM_STALL_WAIT
            vm.clock.charge(STREAM_STALL_WAIT, Bucket.ALLOC_STALL)
            vm.clock.record_event("stream_stall", STREAM_STALL_WAIT)
            if can_spill and self._spill_one(outputs):
                # The spilled chunks are garbage now; a scavenge turns
                # them back into allocatable space.
                vm.minor_gc()
            elif emergency:
                # Nothing of ours left to spill: hand the pressure to
                # the VM's shared backpressure path (cache shedding).
                vm.stall_for_capacity(est_bytes)
            else:
                # Over budget with nothing spillable (a block bigger
                # than the budget): scavenge and retry, then force.
                vm.minor_gc()
            self._sample()

    def _spill_one(self, outputs: List[StreamBlock]) -> bool:
        """Spill the oldest live in-flight block; False if none left."""
        for blk in outputs:
            if blk.spilled or blk.frame is None:
                continue
            vm = self.vm
            size = blk.size_bytes
            governor = getattr(vm, "governor", None)
            circuit_open = (
                governor is not None and governor.blocks_h2_caching()
            )
            if vm.h2 is not None and not circuit_open:
                # Raw copy to the device: H2 objects need no S/D, so the
                # cost is a sequential write (plus faults on read-back).
                with vm.clock.context(Bucket.SD_IO):
                    vm.h2.spill_write(size)
                blk.spilled = "h2"
                self.result.spills_h2 += 1
                if blk.row is not None:
                    blk.row["fate"] = FATE_SPILLED_H2
            else:
                # Circuit OPEN (or no H2): the device must not absorb
                # new bytes, so trade GC scan cost for S/D instead —
                # one serialized holder replaces num_chunks live objects.
                vm.serializer.charge_serialize(blk.num_chunks, size)
                blk.holder = vm.allocate(
                    size, name=f"stream-spill-p{blk.partition}-b{blk.block}"
                )
                blk.frame.push(blk.holder)
                blk.spilled = "ser"
                self.result.spills_serialized += 1
                if blk.row is not None:
                    blk.row["fate"] = FATE_SPILLED_SER
            self.result.spill_bytes += size
            if blk.spilled == "h2":
                self._close(blk.frame)
                blk.frame = None
            else:
                # Keep only the holder pinned; the object-graph chunks die.
                blk.frame.objects = [blk.holder]
            blk.chunks = []
            self.result.inflight_bytes -= size
            return True
        return False

    # ------------------------------------------------------------------
    # Block execution
    # ------------------------------------------------------------------
    def _open(self) -> StackFrame:
        frame = self.vm.roots.open_frame()
        self._open_frames.append(frame)
        return frame

    def _close(self, frame: StackFrame) -> None:
        self.vm.roots.close_frame(frame)
        if frame in self._open_frames:
            self._open_frames.remove(frame)

    def _sample(self) -> None:
        result = self.result
        result.counter_samples.append(
            (
                self.vm.clock.now,
                result.inflight_bytes,
                result.spill_bytes,
                result.backpressure_stalls,
            )
        )

    def _alloc_chunks(
        self,
        frame: StackFrame,
        count: int,
        chunk_size: int,
        scan_factor: float,
        name: str,
    ) -> List[HeapObject]:
        return self.vm.allocate_many(
            [chunk_size] * count,
            [f"{name}-c{i}" for i in range(count)],
            frame,
            scan_factor=scan_factor,
        )

    def _run_block(
        self,
        stages: List[RDD],
        p_index: int,
        bspec: BlockSpec,
        outputs: List[StreamBlock],
    ) -> StreamBlock:
        """Drive one source block through every stage of the chain."""
        vm = self.vm
        clock = vm.clock
        cost = vm.cost
        result = self.result
        source = stages[0]
        # Source stage: dispatch is on the critical path (the pipeline
        # cannot start before its first operator does).
        clock.charge(cost.stream_block_dispatch_cost, Bucket.OTHER)
        vm.compute(source.lineage.ops_for_chunks(bspec.num_chunks))
        frame = self._open()
        chunks = self._alloc_chunks(
            frame,
            bspec.num_chunks,
            bspec.chunk_size,
            bspec.scan_factor,
            f"{source.name}-p{p_index}-b{bspec.block}",
        )
        size = bspec.size_bytes
        result.inflight_bytes += size
        result.peak_inflight_bytes = max(
            result.peak_inflight_bytes, result.inflight_bytes
        )
        self._sample()
        for si in range(1, len(stages)):
            stage = stages[si]
            # Downstream dispatch overlaps mutator progress the stage's
            # slot sat through since its previous block — the pipelined
            # share of the per-block tax (clock.overlap, the scalar
            # sibling of the concurrent-marking budget).
            other_now = clock.total(Bucket.OTHER)
            budget = max(
                0.0, other_now - self._stage_other.get(si, other_now)
            )
            result.hidden_seconds += clock.overlap(
                cost.stream_block_dispatch_cost, budget
            )
            vm.read_objects(chunks)
            vm.compute(stage.lineage.ops_for_chunks(len(chunks)))
            out_spec = stage.partitions[p_index]
            n_out = stage.lineage.output_chunks(len(chunks))
            # The stage's output block must also fit the budget: the
            # input block stays pinned until the output exists, so this
            # is the two-blocks-per-slot moment the budget must cover.
            self._admit(n_out * out_spec.chunk_size, outputs)
            new_frame = self._open()
            out_chunks = self._alloc_chunks(
                new_frame,
                n_out,
                out_spec.chunk_size,
                out_spec.scan_factor,
                f"{stage.name}-p{p_index}-b{bspec.block}",
            )
            self._stage_other[si] = clock.total(Bucket.OTHER)
            out_size = n_out * out_spec.chunk_size
            result.inflight_bytes += out_size
            result.peak_inflight_bytes = max(
                result.peak_inflight_bytes, result.inflight_bytes
            )
            # The upstream block is consumed: retire it immediately —
            # this is the whole trick; evaluate() would have pinned it
            # until the task batch ended.
            self._close(frame)
            result.inflight_bytes -= size
            frame, chunks, size = new_frame, out_chunks, out_size
            self._sample()
        final = stages[-1]
        out_spec = final.partitions[p_index]
        return StreamBlock(
            partition=p_index,
            block=bspec.block,
            num_chunks=len(chunks),
            chunk_size=out_spec.chunk_size,
            scan_factor=out_spec.scan_factor,
            frame=frame,
            chunks=chunks,
        )

    def _retire(self, blk: StreamBlock) -> None:
        if blk.frame is not None:
            self._close(blk.frame)
            blk.frame = None
            if not blk.spilled:
                self.result.inflight_bytes -= blk.size_bytes
        blk.chunks = []
        self._sample()

    # ------------------------------------------------------------------
    # Partition assembly (persisted RDDs)
    # ------------------------------------------------------------------
    def _assemble(
        self, rdd: RDD, p_index: int, outputs: List[StreamBlock]
    ) -> MaterializedPartition:
        """Reunite a partition's blocks (unspilling as needed) for caching.

        Spilled blocks come back without lineage recompute: a raw device
        read for H2 spills, a deserialize for serialized holders.  The
        read-back of both overlaps the assembly's own allocation work
        only implicitly (it is charged in full) — spills are meant to be
        rare, and their visible cost is part of the streaming story.
        """
        vm = self.vm
        result = self.result
        frame = self._open()
        all_chunks: List[HeapObject] = []
        for blk in outputs:
            if blk.spilled == "h2":
                with vm.clock.context(Bucket.SD_IO):
                    vm.h2.spill_read(blk.size_bytes)
                result.unspills += 1
            elif blk.spilled == "ser":
                vm.serializer.charge_deserialize(
                    blk.num_chunks, blk.size_bytes
                )
                result.unspills += 1
            else:
                # Still live: move the chunks to the assembly frame.
                frame.push_all(blk.chunks)
                all_chunks.extend(blk.chunks)
                self._close(blk.frame)
                blk.frame = None
                result.inflight_bytes -= blk.size_bytes
                continue
            chunks = self._alloc_chunks(
                frame,
                blk.num_chunks,
                blk.chunk_size,
                blk.scan_factor,
                f"{rdd.name}-p{p_index}-b{blk.block}-u",
            )
            all_chunks.extend(chunks)
            if blk.frame is not None:
                # Serialized holder: its frame dies with the unspill.
                self._close(blk.frame)
                blk.frame = None
        root = vm.allocate(
            max(64, 8 * len(all_chunks)),
            refs=all_chunks,
            name=f"{rdd.name}-p{p_index}",
        )
        frame.push(root)
        part = MaterializedPartition(root=root, chunks=all_chunks)
        # Safe to unpin here: no allocation happens between returning and
        # the caller's store_partition(), which re-pins under its own frame.
        self._close(frame)
        self._sample()
        return part
