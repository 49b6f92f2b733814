"""Struct-of-arrays backing store for the simulated object heap.

Instead of one Python ``HeapObject`` instance per simulated object — a
header's worth of interpreter overhead chased one reference at a time —
every per-object field lives in a flat parallel array indexed by oid:

- ``array('q')`` columns for size, address, age, region id, mark epoch
  and forwarding address (fast scalar access from Python *and* zero-copy
  ``numpy`` views via the buffer protocol);
- ``array('b')`` columns for the space/forward-space codes and the
  boolean flag bitfield (metadata / reference / serializable /
  h2-candidate);
- ``array('d')`` for the GC scan-cost multiplier;
- Python lists for the (rare, variable-width) label and name strings;
- an adjacency list of outgoing references (``refs[oid]`` is a list of
  target oids), from which a CSR-style edge table
  (``ref_offsets``/``ref_targets``) is snapshotted on demand for the
  vectorized kernels.

:class:`~repro.heap.object_model.HeapObject` is a thin handle (oid +
store pointer) over one row, so the object-graph API survives unchanged.
Row 0 is a sentinel; oids start at 1 and double as row indices.

Two kernel families coexist, on purpose:

- **order-preserving kernels** (:meth:`dfs_closure`,
  :meth:`dfs_reachable`) replicate the exact stack-pop discovery order
  of the old per-object traversals.  GC cost accounting folds per-visit
  costs into batch tasks *in visit order*, and batch boundaries feed the
  engine's schedule, so any reordering would shift the determinism
  digests the experiments gate on.  These run over the int adjacency
  lists — no numpy, no reordering, just no per-object attribute chasing.
- **vectorized kernels** (:meth:`mark_batch`, :meth:`bfs_closure_csr`,
  :meth:`sum_sizes`, the masked sweeps) use numpy over column views and
  the CSR snapshot.  They are order-insensitive by construction and back
  the audit sweeps, the bench harness and the property tests.

The store is process-global (one per "VM generation"): experiment
runners call :func:`reset_store` between configs — via
``repro.faults.reset_registries`` — which also restarts the oid counter,
so oids no longer depend on how many runs shared the process.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

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

# Flag bits of the ``flags`` column.
FLAG_METADATA = 1
FLAG_REFERENCE = 2
FLAG_SERIALIZABLE = 4
FLAG_H2_CANDIDATE = 8

_YOUNG_CODES = (SPACE_EDEN, SPACE_FROM, SPACE_TO)
_H1_CODES = (SPACE_EDEN, SPACE_FROM, SPACE_TO, SPACE_OLD)


class HeapStore:
    """Columnar storage for every simulated object of one VM generation."""

    def __init__(self) -> None:
        # Row 0 is a sentinel so oid == row index with oids starting at 1.
        self.size = array("q", [0])
        self.space = array("b", [SPACE_FREED])
        self.address = array("q", [-1])
        self.age = array("q", [0])
        self.region_id = array("q", [-1])
        self.mark_epoch = array("q", [0])
        self.forward_address = array("q", [-1])
        self.forward_space = array("b", [NO_SPACE])
        self.scan_factor = array("d", [0.0])
        self.flags = array("b", [0])
        self.label: List[Optional[str]] = [None]
        self.name: List[str] = [""]
        #: adjacency: refs[oid] -> list of target oids
        self.refs: List[List[int]] = [[]]
        #: canonical handle per oid (identity-stable: ``a is b`` works)
        self.handles: List[object] = [None]
        #: bumped on any edge mutation; invalidates the CSR snapshot
        self.edge_version = 0
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._csr_version = -1

    # -- rows ----------------------------------------------------------
    def __len__(self) -> int:
        """Number of rows, sentinel included."""
        return len(self.size)

    @property
    def object_count(self) -> int:
        return len(self.size) - 1

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
        self.forward_address.append(-1)
        self.forward_space.append(NO_SPACE)
        self.scan_factor.append(scan_factor)
        self.flags.append(flags)
        self.label.append(None)
        self.name.append(name)
        self.refs.append(list(ref_oids))
        self.handles.append(None)
        self.edge_version += 1
        return oid

    # -- column views --------------------------------------------------
    # array('q'/'d'/'b') exposes the buffer protocol, so these are
    # zero-copy; they must be re-taken after any append (realloc).
    def size_view(self) -> np.ndarray:
        return np.frombuffer(self.size, dtype=np.int64)

    def space_view(self) -> np.ndarray:
        return np.frombuffer(self.space, dtype=np.int8)

    def address_view(self) -> np.ndarray:
        return np.frombuffer(self.address, dtype=np.int64)

    def age_view(self) -> np.ndarray:
        return np.frombuffer(self.age, dtype=np.int64)

    def region_view(self) -> np.ndarray:
        return np.frombuffer(self.region_id, dtype=np.int64)

    def epoch_view(self) -> np.ndarray:
        return np.frombuffer(self.mark_epoch, dtype=np.int64)

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
        self,
        root_oids: Iterable[int],
        skip: Optional[Callable[[int], bool]] = None,
    ) -> List[int]:
        """Transitive closure in exact stack-pop (LIFO) discovery order.

        Replicates ``stack = list(roots); while stack: o = stack.pop();
        stack.extend(o.refs)`` over raw oids — the discovery order every
        per-object traversal in the simulator used, preserved because
        downstream cost batching is order-sensitive.  ``skip`` prunes an
        oid (and its out-edges) without visiting it.
        """
        refs = self.refs
        seen = set()
        order: List[int] = []
        stack = list(root_oids)
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            if skip is not None and skip(oid):
                continue
            seen.add(oid)
            order.append(oid)
            stack.extend(refs[oid])
        return order

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
        idx = np.asarray(oids, dtype=np.int64)
        if idx.size:
            view = self.age_view()
            view[idx] += 1

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

        One handle per row, created on demand, so handle identity (`is`)
        matches object identity everywhere.
        """
        h = self.handles[oid]
        if h is None:
            from .object_model import HeapObject

            h = HeapObject.__new__(HeapObject)
            h.oid = oid
            h._store = self
            self.handles[oid] = h
        return h


# ----------------------------------------------------------------------
# The *default* store: a convenience for single-VM experiments, which
# reset between configs via repro.faults.reset_registries ->
# reset_store().  Multi-tenant callers (the server layer) give each
# JavaVM its own private HeapStore instead, so one tenant's rows, oid
# counter and handles can never alias a sibling's and a reset of the
# default store cannot invalidate any co-located tenant's live handles.
_active_store: Optional[HeapStore] = None


def get_store() -> HeapStore:
    global _active_store
    if _active_store is None:
        _active_store = HeapStore()
    return _active_store


def reset_store() -> HeapStore:
    """Install a fresh store (and thereby restart the oid counter).

    Old handles keep their old store alive through their ``_store``
    pointer, so resetting between configs cannot corrupt a VM that is
    still referenced — it just stops new VMs from inheriting rows.
    """
    global _active_store
    _active_store = HeapStore()
    return _active_store
