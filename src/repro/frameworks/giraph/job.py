"""The Giraph worker: graph loading, BSP supersteps, message stores.

Execution follows Figure 5:

1. *input superstep* — vertices and their out-edge byte arrays are loaded
   into the partition store; under TeraHeap each edge array is tagged
   (``h2_tag_root``) and the move is advised at the end of loading;
2. each superstep consumes the *incoming* message store (immutable) and
   fills the *current* one (mutable); the current store's root is tagged
   as it is created and its move advised at the start of the *next*
   superstep, once the barrier has made it immutable;
3. consumed message stores are dropped at the barrier — under TeraHeap
   their H2 regions die and are reclaimed in bulk at the next major GC.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set

import numpy as np

from ...clock import Bucket
from ...devices.base import AccessPattern
from ...faults.injector import FaultInjector
from ...heap.barriers import WriteBarrier
from ...heap.object_model import HeapObject, SpaceId
from ...heap.store import (
    FLAG_SERIALIZABLE,
    SPACE_FREED,
    SPACE_H2,
    SPACE_OLD,
)
from ...units import KiB
from ...workloads.generators import GraphDataset
from ...runtime import JavaVM
from .aggregators import AggregatorRegistry
from .conf import GiraphConf, GiraphMode
from .ooc import OOCScheduler
from .programs import VertexProgram

#: byte arrays above this are split across several heap objects, as
#: Giraph pages very large edge lists (also keeps every object smaller
#: than an H2 region)
MAX_ARRAY_OBJECT = 12 * KiB

#: message batches allocated between two OOC pressure checks
MESSAGE_BLOCK = 256

#: label of the out-edge arrays' object group
EDGES_LABEL = "edges-input"

#: mutator operations per active vertex per superstep.  One simulated
#: vertex stands for thousands of paper-scale vertices (the graph is
#: coarsened like every other size), so this carries the coarsening.
OPS_PER_VERTEX = 800

#: active vertices an OOC reload stretch plans at first; the window
#: doubles while stretches fill it
STRETCH_WINDOW = 16

#: partitions of the worker's partition store (vertex ``v`` lives in
#: partition ``v % NUM_PARTITIONS``)
NUM_PARTITIONS = 8


def _piece_sizes(nbytes: int) -> List[int]:
    """Sizes of the pieces a byte array over MAX_ARRAY_OBJECT splits into."""
    full, tail = divmod(nbytes, MAX_ARRAY_OBJECT)
    sizes = [MAX_ARRAY_OBJECT] * full
    if tail:
        sizes.append(max(tail, 64))
    return sizes


class GiraphJob:
    """One Giraph worker executing a vertex program."""

    def __init__(self, vm: JavaVM, conf: GiraphConf, graph: GraphDataset):
        self.vm = vm
        self.conf = conf
        self.graph = graph
        #: pins the partition store and the live message stores
        self.runtime_root = vm.allocate(512, name="giraph-runtime")
        vm.roots.add(self.runtime_root)
        n = graph.num_vertices
        self.vertex_objs: List[Optional[HeapObject]] = [None] * n
        self.edge_roots: List[Optional[HeapObject]] = [None] * n
        #: edge arrays are immutable after loading: once written to the
        #: out-of-core store they never need re-writing
        self.edges_on_disk: List[bool] = [False] * n
        #: OOC mode: per partition, the vertices whose edge array / vertex
        #: object is on-heap; victim selection walks these, not whole
        #: partitions.  Nothing offloads in the other modes, so the sets
        #: stay empty there rather than holding every vertex.
        self.resident_edges: List[Set[int]] = [
            set() for _ in range(NUM_PARTITIONS)
        ]
        self.resident_vertices: List[Set[int]] = [
            set() for _ in range(NUM_PARTITIONS)
        ]
        #: partition currently being computed (OOC eviction skips it)
        self.current_partition: Optional[int] = None
        self._edge_sizes = [graph.edge_array_size(v) for v in range(n)]
        self.partition_roots: List[HeapObject] = []
        self.incoming_root: Optional[HeapObject] = None
        self.incoming_msgs: Dict[int, HeapObject] = {}
        #: message sizes for incoming messages offloaded by the OOC
        #: scheduler; reads pay a device round trip
        self.offloaded_msgs: Dict[int, int] = {}
        self.bytes_per_message = max(16, graph.bytes_per_edge // 5)
        self.aggregators = AggregatorRegistry(vm, self.runtime_root)
        self.ooc = OOCScheduler(self) if conf.mode is GiraphMode.OOC else None
        self.supersteps_run = 0
        self.messages_sent = 0
        #: cumulative bytes of message-store objects allocated
        self.message_store_bytes = 0

    # ==================================================================
    # Graph loading (input superstep)
    # ==================================================================
    def load_graph(self) -> None:
        vm = self.vm
        n = self.graph.num_vertices
        parts = NUM_PARTITIONS
        # The partition store exists before loading begins; every vertex is
        # inserted (and thereby rooted) as soon as it is read.
        for pid in range(parts):
            root = vm.allocate(
                max(64, 8 * (n // parts + 1)), name=f"partition-{pid}"
            )
            vm.write_ref(self.runtime_root, root)
            self.partition_roots.append(root)
        for v in range(n):
            with vm.roots.frame() as frame:
                edges = self._allocate_array(
                    self._edge_sizes[v], f"edges-{v}", frame
                )
                vertex = vm.allocate(
                    self.graph.vertex_value_size,
                    refs=[edges],
                    name=f"vertex-{v}",
                )
                vm.write_ref(self.partition_roots[v % parts], vertex)
                self.vertex_objs[v] = vertex
                self.edge_roots[v] = edges
                if self.ooc is not None:
                    self.resident_vertices[v % parts].add(v)
                    self.resident_edges[v % parts].add(v)
                if self.conf.mode is GiraphMode.TERAHEAP:
                    # Mark the out-edges map as a root key-object (step 1
                    # in Figure 5).
                    vm.h2_tag_root(edges, EDGES_LABEL)
            vm.compute(4)
            # Input splits deliver a vertex's edges in pieces: loading
            # keeps appending fragments to recently loaded vertices'
            # edge maps.  If an aggressive pressure transfer has already
            # pushed those maps to H2, every append becomes a device
            # read-modify-write — the traffic the low threshold avoids
            # by holding recently marked objects back (Section 7.2).
            if v >= 64 and v % 2 == 0:
                recent = v - 1 - (v % 29)
                target = self.edge_roots[recent]
                if target is not None and target.space is not SpaceId.FREED:
                    with vm.roots.frame() as frame:
                        fragment = frame.push(
                            vm.allocate(64, name=f"edge-frag-{v}")
                        )
                        vm.write_ref(target, fragment)
            if self.ooc is not None and v % 32 == 31:
                # The OOC scheduler watches pressure during loading too —
                # without it, graphs larger than the heap cannot load.
                self.ooc.maybe_offload()
        if self.conf.mode is GiraphMode.TERAHEAP and self.conf.use_move_hint:
            # Step 2 in Figure 5: edges move at the next major GC.
            vm.h2_move(EDGES_LABEL)
        if self.ooc is not None:
            self.ooc.maybe_offload()

    def _allocate_array(self, nbytes: int, name: str, frame) -> HeapObject:
        """Allocate a byte array, split into <= MAX_ARRAY_OBJECT pieces."""
        vm = self.vm
        if nbytes <= MAX_ARRAY_OBJECT:
            return frame.push(vm.allocate(max(nbytes, 64), name=name))
        sizes = _piece_sizes(nbytes)
        pieces = vm.allocate_many(
            sizes, [f"{name}.{i}" for i in range(len(sizes))], frame
        )
        return frame.push(
            vm.allocate(max(64, 8 * len(pieces)), refs=pieces, name=name)
        )

    # ==================================================================
    # Accessors used by the OOC scheduler
    # ==================================================================
    def offload_edges(self, v: int) -> "tuple[int, int]":
        """Drop vertex ``v``'s edge array from the heap.

        Returns ``(bytes_freed, bytes_to_write)`` — immutable edge arrays
        already resident in the out-of-core store need no device write.
        """
        edges = self.edge_roots[v]
        vertex = self.vertex_objs[v]
        if edges is None or vertex is None or edges.space is SpaceId.FREED:
            return 0, 0
        size = self._edge_sizes[v]
        self.vm.write_ref(vertex, None, remove=edges)
        self.edge_roots[v] = None
        self.resident_edges[v % NUM_PARTITIONS].discard(v)
        to_write = 0 if self.edges_on_disk[v] else size
        self.edges_on_disk[v] = True
        return size, to_write

    def offload_partition_edges(self, pid: int) -> "tuple[int, int]":
        """Drop every on-heap edge array of partition ``pid``.

        Walks the partition's resident set in ascending vertex id.
        Returns ``(bytes_freed, bytes_to_write)``.
        """
        freed = 0
        to_write = 0
        for v in sorted(self.resident_edges[pid]):
            f, w = self.offload_edges(v)
            freed += f
            to_write += w
        return freed, to_write

    def offload_vertices(self, pid: int) -> "tuple[int, int]":
        """Drop a partition's vertex objects (and their edge arrays).

        Giraph's OOC scheduler offloads whole vertex partitions (Table 2);
        vertex values are mutable, so they must be rewritten every time.
        Returns ``(bytes_freed, bytes_to_write)``.
        """
        freed = 0
        to_write = 0
        root = self.partition_roots[pid]
        resident = self.resident_vertices[pid]
        for v in sorted(resident):
            vertex = self.vertex_objs[v]
            if vertex is None or vertex.space is SpaceId.FREED:
                continue
            edge_freed, edge_write = self.offload_edges(v)
            freed += edge_freed
            to_write += edge_write
            self.vm.write_ref(root, None, remove=vertex)
            self.vertex_objs[v] = None
            resident.discard(v)
            freed += self.graph.vertex_value_size
            to_write += self.graph.vertex_value_size  # values are mutable
        return freed, to_write

    def _vertex_for_compute(self, v: int) -> HeapObject:
        """The vertex object, reloading its partition entry if offloaded."""
        vertex = self.vertex_objs[v]
        if vertex is not None and vertex.space is not SpaceId.FREED:
            return vertex
        if self.ooc is not None:
            self.ooc.maybe_offload()
            self.ooc.reload(self.graph.vertex_value_size, key=("vtx", v))
        vertex = self.vm.allocate(
            self.graph.vertex_value_size, name=f"vertex-{v}-reload"
        )
        pid = v % NUM_PARTITIONS
        self.vm.write_ref(self.partition_roots[pid], vertex)
        self.vertex_objs[v] = vertex
        self.resident_vertices[pid].add(v)
        return vertex

    def offload_incoming_messages(self) -> int:
        """Move the (immutable) incoming message store off-heap."""
        if self.incoming_root is None or not self.incoming_msgs:
            return 0
        freed = 0
        vm = self.vm
        for v, msg in list(self.incoming_msgs.items()):
            if msg.space is SpaceId.FREED:
                continue
            freed += msg.size
            self.offloaded_msgs[v] = msg.size
        vm.clear_refs(self.incoming_root)
        self.incoming_msgs = {}
        return freed

    def _edges_for_compute(self, v: int) -> Optional[HeapObject]:
        """The edge array, reloading it from the device if offloaded."""
        edges = self.edge_roots[v]
        if edges is not None:
            return edges
        # Offloaded: read back and reallocate on-heap — making room first
        # if the heap is under pressure.
        size = self._edge_sizes[v]
        if self.ooc is not None:
            self.ooc.maybe_offload()
            self.ooc.reload(size, key=("edges", v))
        vm = self.vm
        with vm.roots.frame() as frame:
            edges = self._allocate_array(size, f"edges-{v}-reload", frame)
            vertex = self.vertex_objs[v]
            vm.write_ref(vertex, edges)
        self.edge_roots[v] = edges
        self.resident_edges[v % NUM_PARTITIONS].add(v)
        if self.ooc is not None:
            self.ooc.dropped_estimate = max(
                0, self.ooc.dropped_estimate - size
            )
        return edges

    # ==================================================================
    # BSP execution
    # ==================================================================
    def run(self, program: VertexProgram) -> int:
        """Execute supersteps until convergence; returns supersteps run."""
        vm = self.vm
        senders = program.initial_senders()
        for step in range(program.max_supersteps):
            received = program._messages_from(senders)
            # --- current message store (mutable during this superstep) --
            current_root, current_msgs = self._fill_message_store(
                step, senders, received
            )
            # --- compute phase over the sending vertices -----------------
            self._compute_phase(step, senders)
            next_senders, done = program.superstep(step, received, senders)
            # Master-side aggregation (e.g. convergence statistics).
            self.aggregators.aggregate("active_vertices", int(senders.sum()))
            # --- synchronisation barrier --------------------------------
            self.aggregators.barrier()
            self._retire_incoming()
            self.incoming_root = current_root
            self.incoming_msgs = current_msgs
            if (
                self.conf.mode is GiraphMode.TERAHEAP
                and self.conf.use_move_hint
            ):
                # Step 4 in Figure 5: last superstep's messages are now
                # immutable; advise their move.
                vm.h2_move(f"msgs-{step}")
            if self.ooc is not None:
                self.ooc.maybe_offload()
            self.supersteps_run += 1
            senders = next_senders
            if done:
                break
        self._retire_incoming()
        return self.supersteps_run

    # ------------------------------------------------------------------
    def _fill_message_store(
        self, step: int, senders: np.ndarray, received: np.ndarray
    ):
        """Allocate the superstep's aggregated per-target message batches."""
        vm = self.vm
        mask = senders[self._edge_sources]
        counts = np.bincount(
            self._edge_targets[mask], minlength=self.graph.num_vertices
        )
        current_root = vm.allocate(1024, name=f"msgstore-{step}")
        vm.write_ref(self.runtime_root, current_root)
        if self.conf.mode is GiraphMode.TERAHEAP:
            # Step 3 in Figure 5: tag the store as it is produced.
            vm.h2_tag_root(current_root, f"msgs-{step}")
        targets = np.flatnonzero(received)
        batch_counts = counts[targets]
        sizes = 64 + batch_counts * self.bytes_per_message
        msgs: Dict[int, HeapObject] = {}
        for start in range(0, len(targets), MESSAGE_BLOCK):
            block = slice(start, start + MESSAGE_BLOCK)
            self._store_messages(
                step,
                current_root,
                targets[block].tolist(),
                sizes[block].tolist(),
                msgs,
            )
            if self.ooc is not None and len(msgs) % MESSAGE_BLOCK == 0:
                self.ooc.maybe_offload()
        self.messages_sent += int(batch_counts.sum())
        self.message_store_bytes += int(sizes.sum())
        vm.compute(len(targets))
        return current_root, msgs

    def _store_messages(
        self,
        step: int,
        store_root: HeapObject,
        targets: List[int],
        sizes: List[int],
        msgs: Dict[int, HeapObject],
    ) -> None:
        """Allocate per-target batches of ``sizes`` bytes into the store.

        Appending to the (possibly H2-resident) store is the
        mutable-object update the transfer hint protects against.  Each
        run of single-object batches is allocated and stored in one
        :meth:`~repro.runtime.JavaVM.allocate_many` call; a batch split
        into pieces is allocated on its own and then stored.
        """
        vm = self.vm
        i, n = 0, len(targets)
        while i < n:
            j = i
            while j < n and sizes[j] <= MAX_ARRAY_OBJECT:
                j += 1
            if j > i:
                names = [f"msg-{step}-{t}" for t in targets[i:j]]
                objs = vm.allocate_many(sizes[i:j], names, into=store_root)
                msgs.update(zip(targets[i:j], objs))
            if j < n:
                t = targets[j]
                with vm.roots.frame() as frame:
                    msg = self._allocate_array(
                        sizes[j], f"msg-{step}-{t}", frame
                    )
                    vm.write_ref(store_root, msg)
                msgs[t] = msg
                j += 1
            i = j

    @property
    def _edge_sources(self) -> np.ndarray:
        if not hasattr(self, "_src_cache"):
            lengths = [len(e) for e in self.graph.out_edges]
            self._src_cache = np.repeat(
                np.arange(self.graph.num_vertices, dtype=np.int64), lengths
            )
            self._tgt_cache = (
                np.concatenate(self.graph.out_edges).astype(np.int64)
                if self.graph.num_vertices
                else np.zeros(0, dtype=np.int64)
            )
        return self._src_cache

    @property
    def _edge_targets(self) -> np.ndarray:
        self._edge_sources  # ensure caches
        return self._tgt_cache

    def _compute_phase(self, step: int, senders: np.ndarray) -> None:
        vm = self.vm
        active = np.flatnonzero(senders)
        vm.compute(len(active) * OPS_PER_VERTEX)
        # Giraph processes one partition at a time; grouping accesses by
        # partition keeps the out-of-core working set coherent instead of
        # thrashing every partition on every vertex.
        active = active[
            np.argsort(active % NUM_PARTITIONS, kind="stable")
        ].tolist()
        if self.ooc is None or not self._stretches_apply():
            if not (self._bulk_applies() and self._compute_bulk(active)):
                for i, v in enumerate(active):
                    self._compute_vertex(step, i, v)
        else:
            i, window = 0, STRETCH_WINDOW
            while i < len(active):
                done = self._compute_stretch(step, active, i, window)
                i += done
                if done == window:
                    # The stretch may go on: plan twice as far.
                    window *= 2
                    continue
                # The stretch stopped before vertex i, which acts or
                # collects.  The next stretch plans one vertex if this
                # one was empty (the check is likely to act again).
                window = STRETCH_WINDOW if done else 1
                if i < len(active):
                    self._compute_vertex(step, i, active[i])
                    i += 1
        self.current_partition = None

    def _compute_vertex(self, step: int, i: int, v: int) -> None:
        """Compute active vertex ``v``, the ``i``-th of the superstep."""
        vm = self.vm
        self.current_partition = v % NUM_PARTITIONS
        vertex = self._vertex_for_compute(v)
        edges = self.edge_roots[v]
        if edges is None:
            # An edge reload charges device time and can collect, so
            # the vertex is read before it, one object at a time.
            vm.read_object(vertex)
            reads = [self._edges_for_compute(v)]
        else:
            reads = [vertex, edges]
        msg = self.incoming_msgs.get(v)
        if msg is not None:
            reads.append(msg)
        vm.read_objects(reads)
        in_ooc_store = self.ooc is not None and v in self.offloaded_msgs
        if msg is None and in_ooc_store:
            # The store was pushed out-of-core mid-superstep; pay the
            # device round trip for this vertex's batch.
            self.ooc.reload(
                self.offloaded_msgs.pop(v), key=("msg", step, v)
            )
        # Vertex value update: a primitive write, plus its barrier.
        vm.write_ref(vertex, None)
        if self.ooc is not None and i % 128 == 127:
            self.ooc.maybe_offload()

    # ------------------------------------------------------------------
    # TeraHeap bulk compute phases
    # ------------------------------------------------------------------
    def _bulk_applies(self) -> bool:
        """Whether a compute phase may run as one bulk pass: in TeraHeap
        mode, where nothing offloads.

        The pass replays the per-vertex path's charges and barrier
        effects for the plain card-marking barrier and an H2 heap read
        through its mapping.  Memory-mode and Panthera heaps read through
        NVM and G1's barrier keeps remembered sets.  A resilience policy,
        a mapping fault plan or a fault-injecting device can fail an H2
        read part-way, so those keep the per-vertex path too, as does a
        phase charged to a context other than ``OTHER``.
        """
        vm, h2 = self.vm, self.vm.h2
        return (
            self.ooc is None
            and vm.config.collector not in ("memmode", "panthera")
            and type(vm.barrier) is WriteBarrier
            and vm.clock.current is Bucket.OTHER
            and (
                h2 is None
                or (
                    h2.resilience is None
                    and h2.mapping.fault_plan is None
                    and not isinstance(h2.device, FaultInjector)
                )
            )
        )

    def _compute_bulk(self, active: List[int]) -> bool:
        """Compute the partition-ordered ``active`` vertices in one pass;
        returns False, having changed nothing, if a vertex value or edge
        array is not loaded, a vertex value is not in H1, or a read
        object is freed.

        Nothing in a TeraHeap compute phase allocates or collects, so the
        per-vertex path's reads and value-update barriers reduce to clock
        charges, H2 page loads, barrier counts and card marks.  The
        ``OTHER`` charges (DRAM reads, then the barrier's store cost, per
        vertex) are collected in order and flushed before each H2 object
        is loaded, so device reads and dirty writebacks reach the clock
        where the per-vertex path charges them.
        """
        vm = self.vm
        vertex_objs, edge_roots = self.vertex_objs, self.edge_roots
        incoming = self.incoming_msgs
        # The objects each vertex reads, in order, and where each
        # vertex's reads end.
        oids: List[int] = []
        ends: List[int] = []
        for v in active:
            vertex, edges = vertex_objs[v], edge_roots[v]
            if vertex is None or edges is None:
                return False
            oids += (vertex.oid, edges.oid)
            msg = incoming.get(v)
            if msg is not None:
                oids.append(msg.oid)
            ends.append(len(oids))
        if not oids:
            return True
        store = vm.store
        rows = np.array(oids, dtype=np.int64)
        space = store.space_view()[rows]
        firsts = np.array([0] + ends[:-1], dtype=np.int64)
        value_space = space[firsts]
        if (value_space > SPACE_OLD).any() or (space == SPACE_FREED).any():
            return False
        cost = vm.cost
        size = store.size_view()[rows]
        charges = cost.dram_latency + size / cost.dram_read_bw
        # The value update's barrier charge follows each vertex's reads.
        # Each flush converts only its own slice to floats: a list for
        # the whole phase would hold every charge as an object at once.
        charges = np.insert(charges, ends, vm.barrier.store_cost)
        loads = np.flatnonzero(space == SPACE_H2)
        spans = loads + np.searchsorted(ends, loads, side="right")
        charge_each, other = vm.clock.charge_each, Bucket.OTHER
        if loads.size:
            load = vm.h2.mapping.load
            addresses = store.address_view()[rows[loads]].tolist()
            start = 0
            for at, address, nbytes in zip(
                spans.tolist(), addresses, size[loads].tolist()
            ):
                if at > start:
                    charge_each(charges[start:at].tolist(), other)
                load(address, nbytes, AccessPattern.SEQUENTIAL)
                start = at + 1
            charges = charges[start:]
        charge_each(charges.tolist(), other)
        vm.barrier.barrier_count += len(active)
        old = rows[firsts][value_space == SPACE_OLD]
        vm.heap.card_table.mark_many(store.address_view()[old])
        return True

    # ------------------------------------------------------------------
    # OOC reload stretches
    # ------------------------------------------------------------------
    def _stretches_apply(self) -> bool:
        """Whether OOC compute phases may run in reload stretches.

        A stretch replays the per-vertex path's charges and barrier
        effects for a DRAM heap with the plain card-marking barrier.
        Memory-mode and Panthera heaps read through NVM, G1's barrier
        keeps remembered sets, and an H2 heap adds its own barrier and
        read paths.  A stretch also creates its rows before its reloads
        run, so a fault plan on the out-of-core cache, whose faults can
        raise mid-reload, keeps the per-vertex path as well.
        """
        vm, cache = self.vm, self.ooc.cache
        return (
            vm.h2 is None
            and vm.config.collector not in ("memmode", "panthera")
            and type(vm.barrier) is WriteBarrier
            and (
                cache is None
                or (
                    cache.fault_plan is None
                    and not isinstance(cache.device, FaultInjector)
                )
            )
        )

    def _compute_stretch(
        self, step: int, active: List[int], start: int, window: int
    ) -> int:
        """Compute the longest stretch of ``active[start:start + window]``
        in which no :meth:`OOCScheduler.maybe_offload` check would act and
        every reload allocation fits in eden back to back; returns its
        length.

        The stretch ends before the first vertex that would run an
        acting check (before its vertex reload, before its edge reload,
        or after it as the 128th vertex) or that would collect, so that
        vertex takes :meth:`_compute_vertex` and every offload and
        collection happens where the per-vertex path has it.  Inside the
        stretch everything the per-vertex path does happens in bulk,
        with the same rows, oids, names, addresses, references, barrier
        counts and cards, LRU order, offsets and clock totals.
        """
        vm, ooc = self.vm, self.ooc
        if vm.clock.current is not Bucket.OTHER:
            return 0
        vertex_objs, edge_roots = self.vertex_objs, self.edge_roots
        edge_sizes = self._edge_sizes
        value_size = self.graph.vertex_value_size
        # Plan the window: every allocation, in order, and every check
        # with the bytes allocated and dropped from the estimate before
        # it (both counted from the stretch start).
        sizes: List[int] = []
        names: List[str] = []
        grown: List[int] = []
        shrunk: List[int] = []
        check_owner: List[int] = []
        alloc_ends: List[int] = []
        allocated = dropped = 0
        planned = active[start : start + window]
        for k, v in enumerate(planned):
            if vertex_objs[v] is None:
                grown.append(allocated)
                shrunk.append(dropped)
                check_owner.append(k)
                sizes.append(value_size)
                names.append(f"vertex-{v}-reload")
                allocated += value_size
            if edge_roots[v] is None:
                grown.append(allocated)
                shrunk.append(dropped)
                check_owner.append(k)
                nbytes = edge_sizes[v]
                name = f"edges-{v}-reload"
                if nbytes <= MAX_ARRAY_OBJECT:
                    rows = [max(nbytes, 64)]
                else:
                    rows = _piece_sizes(nbytes)
                    names += [f"{name}.{p}" for p in range(len(rows))]
                    rows.append(max(64, 8 * len(rows)))
                names.append(name)
                sizes += rows
                allocated += sum(rows)
                dropped += nbytes
            if (start + k) % 128 == 127:
                grown.append(allocated)
                shrunk.append(dropped)
                check_owner.append(k)
            alloc_ends.append(len(sizes))
        count = bisect_right(alloc_ends, vm.heap.eden_room(sizes))
        passed = ooc.room(grown, shrunk)
        if passed < len(grown):
            count = min(count, check_owner[passed])
        if not count:
            return 0
        end = alloc_ends[count - 1]
        dropped = self._run_stretch(
            step, planned[:count], sizes[:end], names[:end]
        )
        if bisect_left(check_owner, count):
            ooc.pass_checks(dropped)
        return count

    def _run_stretch(
        self,
        step: int,
        vertices: List[int],
        sizes: List[int],
        names: List[str],
    ) -> int:
        """Compute ``vertices`` in bulk; ``sizes`` and ``names`` are their
        reload allocations in order.  Returns the bytes of edge arrays
        reloaded, which the scheduler's estimate drops by."""
        vm, ooc = self.vm, self.ooc
        store, heap, barrier = vm.store, vm.heap, vm.barrier
        parts = NUM_PARTITIONS
        vertex_objs, edge_roots = self.vertex_objs, self.edge_roots
        incoming, offloaded = self.incoming_msgs, self.offloaded_msgs
        value_size = self.graph.vertex_value_size
        objs = store.new_objects(sizes, names, FLAG_SERIALIZABLE)
        if objs:
            heap.allocate_run(objs[0].oid, sizes)
        cost = vm.cost
        alloc, stored = cost.alloc_cost, barrier.store_cost
        latency, bandwidth = cost.dram_latency, cost.dram_read_bw
        size_of, space_of, refs = store.size, store.space, store.refs
        writable_refs = store.writable_refs
        # Per vertex, in the per-vertex path's order: the vertex reload's
        # allocation and barrier, the vertex read, the edge reload's
        # allocations and barrier, the edge and message reads, and the
        # value update's barrier.
        charges: List[float] = []
        reload_sizes: List[int] = []
        reload_keys: List[tuple] = []
        old_sources = set()
        links = 0
        dropped = 0
        row = 0
        for v in vertices:
            pid = v % parts
            vertex = vertex_objs[v]
            if vertex is None:
                reload_sizes.append(value_size)
                reload_keys.append(("vtx", v))
                vertex = objs[row]
                row += 1
                root = self.partition_roots[pid].oid
                writable_refs(root).append(vertex.oid)
                links += 1
                if space_of[root] == SPACE_OLD:
                    old_sources.add(root)
                charges += (alloc, stored)
                vertex_objs[v] = vertex
                self.resident_vertices[pid].add(v)
            oid = vertex.oid
            charges.append(latency + size_of[oid] / bandwidth)
            edges = edge_roots[v]
            if edges is None:
                nbytes = self._edge_sizes[v]
                reload_sizes.append(nbytes)
                reload_keys.append(("edges", v))
                if nbytes <= MAX_ARRAY_OBJECT:
                    edges = objs[row]
                    row += 1
                    charges.append(alloc)
                else:
                    pieces = objs[row].oid
                    row += len(_piece_sizes(nbytes))
                    edges = objs[row]
                    refs[edges.oid] = list(range(pieces, edges.oid))
                    row += 1
                    charges += [alloc] * (edges.oid - pieces + 1)
                writable_refs(oid).append(edges.oid)
                links += 1
                charges.append(stored)
                edge_roots[v] = edges
                self.resident_edges[pid].add(v)
                dropped += nbytes
            charges.append(latency + size_of[edges.oid] / bandwidth)
            msg = incoming.get(v)
            if msg is not None:
                charges.append(latency + size_of[msg.oid] / bandwidth)
            elif v in offloaded:
                reload_sizes.append(offloaded.pop(v))
                reload_keys.append(("msg", step, v))
            charges.append(stored)
            if space_of[oid] == SPACE_OLD:
                old_sources.add(oid)
        self.current_partition = vertices[-1] % parts
        store.edge_version += links
        barrier.barrier_count += links + len(vertices)
        heap.card_table.mark_many([store.address[oid] for oid in old_sources])
        vm.clock.charge_each(charges, Bucket.OTHER)
        if reload_sizes:
            ooc.reload_many(reload_sizes, reload_keys)
        return dropped

    def _retire_incoming(self) -> None:
        """Drop the consumed message store (post-barrier)."""
        if self.incoming_root is not None:
            self.vm.write_ref(
                self.runtime_root, None, remove=self.incoming_root
            )
            if self.ooc is not None:
                self.ooc.note_gc()
        self.incoming_root = None
        self.incoming_msgs = {}
        self.offloaded_msgs = {}
