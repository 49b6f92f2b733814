"""Struct-of-arrays backing store for the simulated object heap.

Instead of one Python ``HeapObject`` instance per simulated object — a
header's worth of interpreter overhead chased one reference at a time —
every per-object field lives in a flat parallel array indexed by oid,
each only as wide as its values:

- ``array('q')`` columns for size and address, and ``array('d')`` for
  the GC scan-cost multiplier;
- ``array('i')`` columns for the region id and the mark epoch
  (:data:`MAX_EPOCH` bounds the epoch; a 2 TiB H2 of 16 KiB regions has
  2^27 regions);
- ``array('b')`` columns for the GC age (collectors promote at age 2;
  :meth:`age_increment` raises rather than wrap), the space and
  forward-space codes and the boolean flag bitfield (metadata /
  reference / serializable / h2-candidate);
- list columns of labels and names; names are interned when a row is
  created, so the many rows that share a name share one string;
- the outgoing references (``refs[oid]`` is a sequence of target oids),
  from which a CSR-style edge table (``ref_offsets``/``ref_targets``) is
  snapshotted on demand for the vectorized kernels.  A row with no
  references holds the shared immutable ``()``; :meth:`writable_refs`
  turns it into a list on the row's first in-place write, so every
  in-place writer goes through it;
- a list column of handles, built on demand and dropped (pointed at row
  0) once the row is FREED.

Every column is zero-copy viewable from ``numpy`` through the buffer
protocol.  So a row costs 36 bytes of array columns plus four list
slots: no per-row empty list, no per-row copy of a repeated name, no
handle unless a caller asked for one, and once the row is FREED
(:meth:`free_rows`) neither a handle nor references.  Nothing reads a
FREED row's columns other than ``space``: the marking ceiling skips
FREED rows, extents drop them at GC and every mutator path faults on
them first.

:class:`~repro.heap.object_model.HeapObject` is a thin handle (oid +
store pointer) over one row, so the object-graph API survives unchanged.
Row 0 is a sentinel; oids start at 1 and double as row indices.

An oid is a row's rank, not a lifelong name.  At the end of a Parallel
Scavenge collection (PS, PS11, TeraHeap, Panthera, memory mode), once
the FREED rows are at least twice the live ones, :meth:`compact` slides
the live rows down in oid order and truncates every column, the way the
PS major GC slides live objects down the heap; the collector then
renumbers every extent with the map it returns.  Order among live rows
holds, so sorts, scans and contiguous runs by oid keep their meaning.
So a caller that keeps an object across a collection keeps its handle:
the compaction renumbers canonical handles in place, and a FREED row's
handle points at row 0, so it still faults once another row takes its
old number.  :attr:`object_count` counts every allocation, not the rows
left.  G1 never compacts: its young trace visits its remembered set, a
``set`` of oids, in the order of their values, which renumbering would
change.

The program's collectors and auditor use :meth:`sum_sizes`,
:meth:`live_mask`, :meth:`set_space_batch`, :meth:`age_increment`,
:meth:`gather_targets` and :meth:`scan_costs` over column views.  Every
collector marks through :meth:`dfs_closure`, the epoch-marked stack-pop
walk bounded by a space-code ceiling.  Three kernels have no caller in
the program: :meth:`dfs_reachable` (order-free DFS), :meth:`mark_batch`
and :meth:`bfs_closure_csr` (vectorized).  Only
``tests/test_store_equivalence.py`` calls them, and the bench harness's
``ENTRY_POINTS`` names them; they can go once a benchmark change drops
them from that list.

Each :class:`~repro.runtime.JavaVM` owns one store, so oids start at 1
in every VM and never alias across co-located VMs.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, compress, repeat
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: size of the TeraHeap label word added to every object header (Section 3.2)
LABEL_WORD_SIZE = 8
#: minimum plausible Java object size (header + one field)
MIN_OBJECT_SIZE = 16

# Space codes (row values of the ``space`` column).  Kept in sync with
# the SpaceId enum in object_model, which carries the public API.
SPACE_EDEN = 0
SPACE_FROM = 1
SPACE_TO = 2
SPACE_OLD = 3
SPACE_H2 = 4
SPACE_FREED = 5
#: ``forward_space`` code meaning "no forwarding decision"
NO_SPACE = -1
#: largest mark epoch the ``array('i')`` column holds
MAX_EPOCH = 2**31 - 1
#: largest GC age the ``array('b')`` column holds
MAX_AGE = 127

# Flag bits of the ``flags`` column.
FLAG_METADATA = 1
FLAG_REFERENCE = 2
FLAG_SERIALIZABLE = 4
FLAG_H2_CANDIDATE = 8

_YOUNG_CODES = (SPACE_EDEN, SPACE_FROM, SPACE_TO)

#: the ``array`` columns, which :meth:`HeapStore.compact` gathers in place
_ARRAY_COLUMNS = (
    "size", "space", "address", "age", "region_id", "mark_epoch",
    "forward_space", "scan_factor", "flags",
)


def check_object_size(size: int) -> None:
    """Reject sizes no Java object can have."""
    if size < MIN_OBJECT_SIZE:
        raise ValueError(
            f"object size {size} below minimum {MIN_OBJECT_SIZE}"
        )

_H1_CODES = (SPACE_EDEN, SPACE_FROM, SPACE_TO, SPACE_OLD)


class HeapStore:
    """Columnar storage for every simulated object of one VM generation."""

    def __init__(self) -> None:
        # Row 0 is a sentinel so oid == row index with oids starting at 1.
        self.size = array("q", [0])
        self.space = array("b", [SPACE_FREED])
        self.address = array("q", [-1])
        self.age = array("b", [0])
        self.region_id = array("i", [-1])
        self.mark_epoch = array("i", [0])
        self.forward_space = array("b", [NO_SPACE])
        self.scan_factor = array("d", [0.0])
        self.flags = array("b", [0])
        self.label: List[Optional[str]] = [None]
        #: interned on row creation
        self.name: List[str] = [""]
        #: adjacency: refs[oid] -> target oids; ``()`` until first written
        self.refs: List[Sequence[int]] = [()]
        #: canonical handle per oid while the row is not FREED
        #: (identity-stable: ``a is b`` works); None until a caller asks
        #: for one and once the row is FREED
        self.handles: List[object] = [None]
        #: bumped on any edge mutation; invalidates the CSR snapshot
        self.edge_version = 0
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._csr_version = -1
        #: rows ever created, sentinel excluded (:attr:`object_count`)
        self._allocated = 0
        #: FREED rows, sentinel excluded (:meth:`freed_rows`)
        self._freed = 0

    # -- rows ----------------------------------------------------------
    def __len__(self) -> int:
        """Number of rows, sentinel included."""
        return len(self.size)

    @property
    def object_count(self) -> int:
        """Objects ever allocated; :meth:`compact` does not lower it."""
        return self._allocated

    def new_object(
        self,
        size: int,
        ref_oids: Sequence[int],
        name: str,
        flags: int,
        scan_factor: float,
    ) -> int:
        oid = len(self.size)
        self.size.append(size)
        self.space.append(SPACE_EDEN)
        self.address.append(-1)
        self.age.append(0)
        self.region_id.append(-1)
        self.mark_epoch.append(0)
        self.forward_space.append(NO_SPACE)
        self.scan_factor.append(scan_factor)
        self.flags.append(flags)
        self.label.append(None)
        self.name.append(sys.intern(name))
        self.refs.append(list(ref_oids) if ref_oids else ())
        self.handles.append(None)
        self.edge_version += 1
        self._allocated += 1
        return oid

    def new_rows(
        self,
        sizes: Sequence[int],
        names: Sequence[str],
        flags: int,
        scan_factor: float = 1.0,
    ) -> int:
        """One reference-free row per entry of ``sizes``, in one pass,
        with no handle; returns the first row's oid.

        The rows, oids and edge version equal one :meth:`new_object` call
        per size with no references and ``scan_factor``.
        """
        count = len(sizes)
        first = len(self.size)
        self.size.extend(sizes)
        self.space.extend(array("b", [SPACE_EDEN]) * count)
        self.address.extend(array("q", [-1]) * count)
        self.age.extend(array("b", [0]) * count)
        self.region_id.extend(array("i", [-1]) * count)
        self.mark_epoch.extend(array("i", [0]) * count)
        self.forward_space.extend(array("b", [NO_SPACE]) * count)
        self.scan_factor.extend(array("d", [scan_factor]) * count)
        self.flags.extend(array("b", [flags]) * count)
        self.label.extend([None] * count)
        self.name.extend(map(sys.intern, names))
        self.refs.extend(repeat((), count))
        self.handles.extend(repeat(None, count))
        self.edge_version += count
        self._allocated += count
        return first

    def new_objects(
        self,
        sizes: Sequence[int],
        names: Sequence[str],
        flags: int,
        scan_factor: float = 1.0,
    ) -> List[object]:
        """:meth:`new_rows`, returning the rows' canonical handles in oid
        order."""
        from .object_model import HeapObject

        first = self.new_rows(sizes, names, flags, scan_factor)
        end = first + len(sizes)
        new = HeapObject.__new__
        handles = []
        for oid in range(first, end):
            h = new(HeapObject)
            h.oid = oid
            h._store = self
            handles.append(h)
        self.handles[first:end] = handles
        return handles

    def writable_refs(self, oid: int) -> List[int]:
        """``refs[oid]`` as a list the caller may change in place.

        A row with no references holds the shared ``()``; its first
        in-place write swaps in a list of its own.  The caller bumps
        :attr:`edge_version` for what it changes.
        """
        targets = self.refs[oid]
        if targets.__class__ is not list:
            targets = self.refs[oid] = list(targets)
        return targets

    def free_rows(self, oids) -> None:
        """Mark rows FREED and drop the store's handle and references for
        each.

        The dropped handle is pointed at row 0, the FREED sentinel, so
        access through a copy someone still holds sees the FREED space
        even after :meth:`compact` gives its old number to another row.
        Dropping the references leaves :attr:`edge_version` alone: no
        reader looks at a FREED row's references, so a CSR snapshot that
        still holds them is never asked for them.
        """
        idx = np.asarray(oids, dtype=np.int64)
        if idx.size:
            self.space_view()[idx] = SPACE_FREED
            self._freed += idx.size
            handles, refs = self.handles, self.refs
            for oid in idx.tolist():
                h = handles[oid]
                if h is not None:
                    h.oid = 0
                    handles[oid] = None
                refs[oid] = ()

    def freed_rows(self) -> int:
        """How many rows, sentinel excluded, are FREED.

        A count :meth:`free_rows` keeps, so every collection can ask for
        it; each caller frees a row once.
        """
        return self._freed

    def compact(self) -> np.ndarray:
        """Drop every FREED row and slide the others down in oid order.

        A kept row's new oid is its rank among the kept rows (row 0
        included), so oid order among them holds and every sort, scan
        and contiguous run by oid keeps its meaning.  Every column is
        gathered and truncated in place, the references are rewritten
        to the new oids and each canonical handle takes its row's new
        oid.  Returns the old -> new oid map, in which a FREED row maps
        to 0; the caller renumbers every other holder of an oid with it
        before the program reads an oid again.
        """
        mask = self.space_view() != SPACE_FREED
        mask[0] = True
        keep = np.flatnonzero(mask)
        count = keep.size
        new_of = np.zeros(mask.size, dtype=np.int64)
        new_of[keep] = np.arange(count)
        # Rows below the first FREED one keep their oids (long-lived
        # rows gather there), so only the rows past it move.
        first = int(np.argmin(mask)) if count < mask.size else count
        moved = keep[first:]
        for name in _ARRAY_COLUMNS:
            column = getattr(self, name)
            view = np.frombuffer(column, dtype=column.typecode)
            view[first:count] = view[moved]
            del view  # an exported buffer cannot be resized
            del column[count:]
        rows = moved.tolist()
        handles, refs = self.handles, self.refs
        for column in (self.label, self.name, refs, handles):
            column[first:] = list(map(column.__getitem__, rows))
        for oid in compress(range(first, count), handles[first:]):
            handles[oid].oid = oid
        linked = list(compress(range(count), refs))
        if linked:
            lengths = [len(refs[oid]) for oid in linked]
            flat = np.fromiter(
                chain.from_iterable(map(refs.__getitem__, linked)),
                dtype=np.int64,
                count=sum(lengths),
            )
            targets = new_of[flat].tolist()
            end = 0
            for oid, length in zip(linked, lengths):
                refs[oid] = targets[end:end + length]
                end += length
        # Same edges under new numbers: the snapshot is stale, though
        # no edge changed, so the edge version stays.
        self._csr = None
        self._freed = 0
        return new_of

    # -- column views --------------------------------------------------
    # array('q'/'i'/'d'/'b') exposes the buffer protocol, so these are
    # zero-copy; they must be re-taken after any append (realloc).
    def size_view(self) -> np.ndarray:
        return np.frombuffer(self.size, dtype=np.int64)

    def space_view(self) -> np.ndarray:
        return np.frombuffer(self.space, dtype=np.int8)

    def address_view(self) -> np.ndarray:
        return np.frombuffer(self.address, dtype=np.int64)

    def age_view(self) -> np.ndarray:
        return np.frombuffer(self.age, dtype=np.int8)

    def region_view(self) -> np.ndarray:
        return np.frombuffer(self.region_id, dtype=np.int32)

    def epoch_view(self) -> np.ndarray:
        return np.frombuffer(self.mark_epoch, dtype=np.int32)

    def forward_space_view(self) -> np.ndarray:
        return np.frombuffer(self.forward_space, dtype=np.int8)

    def flags_view(self) -> np.ndarray:
        return np.frombuffer(self.flags, dtype=np.int8)

    def scan_factor_view(self) -> np.ndarray:
        return np.frombuffer(self.scan_factor, dtype=np.float64)

    def scan_costs(
        self,
        oids: Sequence[int],
        visit_cost: float,
        ref_cost: float,
        scaled: bool = True,
    ) -> np.ndarray:
        """Per-object GC scan cost of ``oids``, in order.

        ``visit_cost * scan_factor + ref_cost * len(refs)``, or with
        ``scaled=False`` ``visit_cost + ref_cost * len(refs)``: the same
        float operations, element by element, as the scalar expression.
        """
        visit = visit_cost
        if scaled:
            idx = np.asarray(oids, dtype=np.int64)
            visit = visit_cost * self.scan_factor_view()[idx]
        ref_counts = np.fromiter(
            map(len, map(self.refs.__getitem__, oids)),
            dtype=np.int64,
            count=len(oids),
        )
        return visit + ref_cost * ref_counts

    # -- CSR edge table ------------------------------------------------
    def edge_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Snapshot the adjacency lists as (ref_offsets, ref_targets).

        ``ref_offsets`` has ``rows + 1`` entries; the targets of oid ``i``
        are ``ref_targets[ref_offsets[i]:ref_offsets[i + 1]]``.  Rebuilt
        lazily when the edge version moved.
        """
        if self._csr is not None and self._csr_version == self.edge_version:
            return self._csr
        counts = np.fromiter(
            (len(r) for r in self.refs), dtype=np.int64, count=len(self.refs)
        )
        offsets = np.zeros(len(self.refs) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        flat: List[int] = []
        for r in self.refs:
            flat.extend(r)
        targets = np.asarray(flat, dtype=np.int64)
        self._csr = (offsets, targets)
        self._csr_version = self.edge_version
        return self._csr

    # -- order-preserving kernels (digest-gated paths) -----------------
    def dfs_closure(
        self, stack: List[int], epoch: int, ceiling: int
    ) -> List[int]:
        """Mark everything reachable from ``stack`` at ``epoch``; return
        the marked oids in stack-pop (LIFO) order.

        The one marking walk of every collector.  It consumes ``stack``:
        an oid already marked at ``epoch`` or whose space code is above
        ``ceiling`` is skipped, anything else is marked, visited and has
        all its refs pushed.  Engine tasks batch scan costs in visit
        order, so the digests gate on this order.
        """
        space = self.space
        marks = self.mark_epoch
        refs = self.refs
        live: List[int] = []
        pop = stack.pop
        push = stack.extend
        visit = live.append
        while stack:
            oid = pop()
            if marks[oid] >= epoch or space[oid] > ceiling:
                continue
            marks[oid] = epoch
            visit(oid)
            push(refs[oid])
        return live

    def dfs_reachable(self, root_oids: Iterable[int]) -> set:
        """Reachable oid set (order-free users of the same traversal)."""
        refs = self.refs
        seen = set()
        stack = list(root_oids)
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            seen.add(oid)
            stack.extend(refs[oid])
        return seen

    # -- vectorized kernels (order-insensitive paths) ------------------
    def mark_batch(self, oids, epoch: int) -> None:
        """Set ``mark_epoch`` for a batch of oids in one vector store."""
        idx = np.asarray(oids, dtype=np.int64)
        if idx.size:
            self.epoch_view()[idx] = epoch

    def set_space_batch(self, oids, space_code: int) -> None:
        idx = np.asarray(oids, dtype=np.int64)
        if idx.size:
            self.space_view()[idx] = space_code

    def age_increment(self, oids) -> None:
        """Add one to the age of each oid; raise rather than wrap the
        int8 column past :data:`MAX_AGE`."""
        idx = np.asarray(oids, dtype=np.int64)
        if idx.size:
            view = self.age_view()
            ages = view[idx]
            if int(ages.max()) >= MAX_AGE:
                raise OverflowError(f"GC age would pass {MAX_AGE}")
            view[idx] = ages + 1

    def sum_sizes(self, oids) -> int:
        idx = np.asarray(oids, dtype=np.int64)
        if not idx.size:
            return 0
        return int(self.size_view()[idx].sum())

    def live_mask(self, oids, epoch: int) -> np.ndarray:
        """Boolean mask of which oids are marked at ``epoch``."""
        idx = np.asarray(oids, dtype=np.int64)
        return self.epoch_view()[idx] == epoch

    def gather_targets(self, oids) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten the out-edges of a batch of oids via the CSR snapshot.

        Returns ``(flat_targets, owner)``: every reference target of the
        batch, plus the *position in the batch* of the object it belongs
        to — ready for per-object reductions with ``np.bincount``.
        """
        offsets, targets = self.edge_csr()
        idx = np.asarray(oids, dtype=np.int64)
        if not idx.size:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        starts = offsets[idx]
        counts = offsets[idx + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        base = np.repeat(starts, counts)
        step = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        owner = np.repeat(np.arange(idx.size, dtype=np.int64), counts)
        return targets[base + step], owner

    def bfs_closure_csr(self, seed_oids) -> np.ndarray:
        """Vectorized frontier BFS over the CSR snapshot.

        Returns the reachable oids as a sorted unique array.  Each
        iteration gathers the whole frontier's out-edges in one shot and
        deduplicates them by scattering into a boolean mask (no sort, no
        per-object Python in the loop) — discovery order is *not*
        preserved; only order-insensitive callers (audit, bench,
        property tests) may use it.
        """
        offsets, targets = self.edge_csr()
        rows = len(self.refs)
        visited = np.zeros(rows, dtype=bool)
        frontier = np.asarray(seed_oids, dtype=np.int64)
        if frontier.size:
            visited[frontier] = True
        while frontier.size:
            starts = offsets[frontier]
            counts = offsets[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # Gather every out-edge of the frontier in one shot.
            base = np.repeat(starts, counts)
            step = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            neighbors = targets[base + step]
            # Mask-scatter dedup: much cheaper than sorting via unique.
            fresh = np.zeros(rows, dtype=bool)
            fresh[neighbors] = True
            fresh &= ~visited
            visited |= fresh
            frontier = np.nonzero(fresh)[0]
        return np.nonzero(visited)[0]

    # -- handles -------------------------------------------------------
    def handle(self, oid: int):
        """The canonical :class:`HeapObject` handle for ``oid``.

        One handle per row that is not FREED, created on demand, so
        handle identity (`is`) matches object identity for every live
        row.  A FREED row gets a fresh, uncached handle each time.
        """
        h = self.handles[oid]
        if h is None:
            from .object_model import HeapObject

            h = HeapObject.__new__(HeapObject)
            h._store = self
            if self.space[oid] != SPACE_FREED:
                h.oid = oid
                self.handles[oid] = h
            else:
                h.oid = 0
        return h
