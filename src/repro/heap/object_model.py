"""The simulated Java object model.

Each :class:`HeapObject` models one Java object: a header, a size, and
outgoing references.  The header carries the extra eight-byte TeraHeap
label word (Section 3.2) used by ``h2_tag_root`` — the paper chose a
header field over side metadata to avoid re-tracking addresses every GC.

Since the struct-of-arrays refactor the per-object state lives in flat
parallel columns of :class:`~repro.heap.store.HeapStore`; a
``HeapObject`` is a two-slot handle (oid + store pointer) whose
attributes are properties over its row.  The columns are as narrow as
their values: ``age`` is int8, ``region_id`` and ``mark_epoch`` int32,
so writing a value past their range raises ``OverflowError``.  Handles
are canonical while their row is not FREED (one per oid, so ``is``
works), and oids double as row indices.  An oid is the row's rank among
the live rows: a Parallel Scavenge collection that compacts the store
renumbers the rows and writes each canonical handle's new oid into it,
so a handle follows its object while a bare oid does not.  Once a row
is FREED the store drops its handle and its references, and points the
handle at row 0, the FREED sentinel; a copy still held elsewhere keeps
faulting, even after the row's old number goes to another object.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence

from .store import (
    FLAG_H2_CANDIDATE,
    FLAG_METADATA,
    FLAG_REFERENCE,
    FLAG_SERIALIZABLE,
    LABEL_WORD_SIZE,
    MIN_OBJECT_SIZE,
    NO_SPACE,
    check_object_size,
)

__all__ = [
    "LABEL_WORD_SIZE",
    "MIN_OBJECT_SIZE",
    "SpaceId",
    "HeapObject",
    "RefList",
]


class SpaceId(enum.Enum):
    """Where an object currently lives."""

    EDEN = "eden"
    FROM = "from"
    TO = "to"
    OLD = "old"
    H2 = "h2"
    #: the object's H2 region was reclaimed; any access is a bug
    FREED = "freed"


#: store space-code (int) -> SpaceId singleton, in code order
SPACE_BY_CODE = (
    SpaceId.EDEN,
    SpaceId.FROM,
    SpaceId.TO,
    SpaceId.OLD,
    SpaceId.H2,
    SpaceId.FREED,
)
SPACE_CODES = {space: code for code, space in enumerate(SPACE_BY_CODE)}


class RefList:
    """Mutable view of one object's outgoing references.

    Reads and writes go straight to the store's adjacency row (target
    oids; in-place writes through :meth:`HeapStore.writable_refs`, and
    :meth:`clear` puts back the shared ``()``); iteration and
    indexing hand back canonical handles, so the view is interchangeable
    with the old ``List[HeapObject]`` attribute.  The view holds its
    object's handle, not its oid, so it follows the row through a store
    compaction.
    """

    __slots__ = ("_store", "_obj")

    def __init__(self, obj: "HeapObject"):
        self._store = obj._store
        self._obj = obj

    def _targets(self) -> Sequence[int]:
        return self._store.refs[self._obj.oid]

    # -- mutation ------------------------------------------------------
    def append(self, obj: "HeapObject") -> None:
        self._store.writable_refs(self._obj.oid).append(obj.oid)
        self._store.edge_version += 1

    def extend(self, objs: Iterable["HeapObject"]) -> None:
        self._store.writable_refs(self._obj.oid).extend(o.oid for o in objs)
        self._store.edge_version += 1

    def remove(self, obj: "HeapObject") -> None:
        self._store.writable_refs(self._obj.oid).remove(obj.oid)
        self._store.edge_version += 1

    def clear(self) -> None:
        self._store.refs[self._obj.oid] = ()
        self._store.edge_version += 1

    # -- access --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._targets())

    def __bool__(self) -> bool:
        return bool(self._targets())

    def __iter__(self):
        handle = self._store.handle
        for oid in self._targets():
            yield handle(oid)

    def __reversed__(self):
        handle = self._store.handle
        for oid in reversed(self._targets()):
            yield handle(oid)

    def __getitem__(self, index):
        targets = self._targets()
        if isinstance(index, slice):
            handle = self._store.handle
            return [handle(oid) for oid in targets[index]]
        return self._store.handle(targets[index])

    def __contains__(self, obj) -> bool:
        return isinstance(obj, HeapObject) and obj.oid in self._targets()

    def __eq__(self, other) -> bool:
        if isinstance(other, RefList):
            return list(self._targets()) == list(other._targets())
        if isinstance(other, (list, tuple)):
            mine = self._targets()
            if len(mine) != len(other):
                return False
            return all(
                isinstance(o, HeapObject) and o.oid == oid
                for oid, o in zip(mine, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RefList of #{self._obj.oid}: {list(self._targets())}>"


def _flag_property(bit: int, doc: str):
    def get(self) -> bool:
        return bool(self._store.flags[self.oid] & bit)

    def set_(self, value: bool) -> None:
        if value:
            self._store.flags[self.oid] |= bit
        else:
            self._store.flags[self.oid] &= ~bit

    return property(get, set_, doc=doc)


def _int_column(column: str, doc: str):
    def get(self) -> int:
        return getattr(self._store, column)[self.oid]

    def set_(self, value: int) -> None:
        getattr(self._store, column)[self.oid] = value

    return property(get, set_, doc=doc)


class HeapObject:
    """One simulated Java object — a handle over one store row.

    Attributes mirror what the JVM keeps in or derives from the object
    header: mark/forwarding state, GC age, and the TeraHeap label.  The
    row is appended to ``store`` (normally the owning VM's ``vm.store``).
    """

    __slots__ = ("oid", "_store")

    def __init__(
        self,
        size: int,
        refs: Optional[Iterable["HeapObject"]] = None,
        name: str = "",
        is_metadata: bool = False,
        is_reference: bool = False,
        serializable: bool = True,
        scan_factor: float = 1.0,
        *,
        store,
    ):
        check_object_size(size)
        flags = 0
        if is_metadata:
            flags |= FLAG_METADATA
        if is_reference:
            flags |= FLAG_REFERENCE
        if serializable:
            flags |= FLAG_SERIALIZABLE
        oid = store.new_object(
            size,
            [o.oid for o in refs] if refs else (),
            name,
            flags,
            scan_factor,
        )
        self.oid = oid
        self._store = store
        store.handles[oid] = self

    # -- plain int columns --------------------------------------------
    size = _int_column("size", "object size in bytes")
    address = _int_column("address", "current address (-1 = unplaced)")
    age = _int_column("age", "number of scavenges survived")
    region_id = _int_column(
        "region_id", "H2 region index once resident in H2 (or G1 region)"
    )
    mark_epoch = _int_column(
        "mark_epoch",
        "mark bit, implemented as the epoch of the last marking cycle so "
        "marks never need explicit clearing",
    )

    # -- flag bits -----------------------------------------------------
    is_metadata = _flag_property(
        FLAG_METADATA,
        "JVM metadata (class objects, class loaders) — excluded from the "
        "H2 transitive closure (Section 3.2)",
    )
    is_reference = _flag_property(
        FLAG_REFERENCE,
        "java.lang.ref.Reference subclasses — also excluded (Section 3.2)",
    )
    serializable = _flag_property(
        FLAG_SERIALIZABLE,
        "whether Java serialization can handle this object (Section 2)",
    )
    h2_candidate = _flag_property(
        FLAG_H2_CANDIDATE,
        "set when the object has been selected for movement to H2",
    )

    # -- enum / optional columns --------------------------------------
    @property
    def space(self) -> SpaceId:
        return SPACE_BY_CODE[self._store.space[self.oid]]

    @space.setter
    def space(self, value: SpaceId) -> None:
        self._store.space[self.oid] = SPACE_CODES[value]

    @property
    def forward_space(self) -> Optional[SpaceId]:
        code = self._store.forward_space[self.oid]
        return None if code == NO_SPACE else SPACE_BY_CODE[code]

    @forward_space.setter
    def forward_space(self, value: Optional[SpaceId]) -> None:
        self._store.forward_space[self.oid] = (
            NO_SPACE if value is None else SPACE_CODES[value]
        )

    @property
    def label(self) -> Optional[str]:
        """TeraHeap label word; non-None marks the object (or a member
        of a tagged transitive closure) as an H2 candidate."""
        return self._store.label[self.oid]

    @label.setter
    def label(self, value: Optional[str]) -> None:
        self._store.label[self.oid] = value

    @property
    def scan_factor(self) -> float:
        """GC scan-cost multiplier: a coarse simulated object standing
        for many small paper-scale objects (e.g. triangle-counting
        wedges) costs proportionally more to mark per byte."""
        return self._store.scan_factor[self.oid]

    @scan_factor.setter
    def scan_factor(self, value: float) -> None:
        self._store.scan_factor[self.oid] = value

    @property
    def name(self) -> str:
        return self._store.name[self.oid]

    @name.setter
    def name(self, value: str) -> None:
        self._store.name[self.oid] = value

    # -- references ----------------------------------------------------
    @property
    def refs(self) -> RefList:
        return RefList(self)

    @refs.setter
    def refs(self, value: Iterable["HeapObject"]) -> None:
        store = self._store
        if isinstance(value, RefList):
            targets = list(value._targets())
        else:
            targets = [o.oid for o in value]
        store.refs[self.oid] = targets or ()
        store.edge_version += 1

    # ------------------------------------------------------------------
    @property
    def in_young(self) -> bool:
        return self._store.space[self.oid] <= 2  # EDEN/FROM/TO

    @property
    def in_h1(self) -> bool:
        return self._store.space[self.oid] <= 3  # EDEN/FROM/TO/OLD

    @property
    def in_h2(self) -> bool:
        return self._store.space[self.oid] == 4  # H2

    def end_address(self) -> int:
        store = self._store
        return store.address[self.oid] + store.size[self.oid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" label={self.label!r}" if self.label else ""
        name = f" {self.name}" if self.name else ""
        return (
            f"<HeapObject #{self.oid}{name} {self.size}B {self.space.value}"
            f"@{self.address:#x}{tag}>"
        )

