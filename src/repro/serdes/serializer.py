"""Object-graph serialization with the paper's cost structure.

Serialization cost is proportional to the volume of objects in the
transitive closure of the root (graph traversal + byte conversion), and
both directions allocate temporary objects on the managed heap — the
paper highlights these temporaries as a driver of extra GC cycles
(Section 2).  Objects referencing non-serializable state (JVM metadata,
transient-like fields) refuse to serialize, mirroring Java's constraint
that off-heap candidates be self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from ..clock import Bucket, Clock
from ..config import CostModel
from ..errors import SerializationError
from ..heap.object_model import HeapObject
from ..heap.store import FLAG_METADATA, FLAG_SERIALIZABLE


@dataclass
class SerializedBlob:
    """A serialized object group: what lands in an off-heap store."""

    size_bytes: int
    object_count: int
    #: where the blob lives (framework bookkeeping), e.g. "nvme"
    location: str = ""


class Serializer:
    """Base serializer: traversal + byte-stream conversion costs."""

    name = "java"
    #: multiplier over the Kryo-calibrated base costs
    overhead = 2.5

    def __init__(
        self,
        clock: Clock,
        cost: CostModel,
        allocate_temp: Optional[Callable[[int], None]] = None,
    ):
        self.clock = clock
        self.cost = cost
        #: callback allocating ``nbytes`` of short-lived temporaries on the
        #: managed heap (wired to the VM); None disables temp pressure
        self.allocate_temp = allocate_temp
        self.objects_serialized = 0
        self.objects_deserialized = 0
        self.bytes_serialized = 0
        self.bytes_deserialized = 0

    # ------------------------------------------------------------------
    def closure(self, root: HeapObject) -> List[HeapObject]:
        """The transitive closure the serializer must walk."""
        st = root._store
        refs_arr = st.refs
        flags_arr = st.flags
        handle = st.handle
        seen: Set[int] = set()
        stack = [root.oid]
        out: List[HeapObject] = []
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            seen.add(oid)
            flags = flags_arr[oid]
            if not flags & FLAG_SERIALIZABLE or flags & FLAG_METADATA:
                raise SerializationError(
                    f"object #{oid} ({st.name[oid] or 'unnamed'}) is not "
                    "serializable; off-heap groups must be self-contained"
                )
            out.append(handle(oid))
            stack.extend(refs_arr[oid])
        return out

    def charge_serialize(self, object_count: int, nbytes: int) -> None:
        """Charge serialization cost without walking a heap graph.

        Used for shuffle traffic, where the record stream is produced and
        consumed within one stage and never rooted.
        """
        with self.clock.context(Bucket.SD_IO):
            self.clock.charge(
                self.overhead
                * (
                    self.cost.serialize_obj_cost * object_count
                    + nbytes / self.cost.serialize_bw
                )
            )
        if self.allocate_temp is not None:
            self.allocate_temp(int(nbytes * self.cost.sd_temp_object_ratio))
        self.objects_serialized += object_count
        self.bytes_serialized += nbytes

    def charge_deserialize(self, object_count: int, nbytes: int) -> None:
        """Shuffle-read counterpart of :meth:`charge_serialize`."""
        with self.clock.context(Bucket.SD_IO):
            self.clock.charge(
                self.overhead
                * (
                    self.cost.deserialize_obj_cost * object_count
                    + nbytes / self.cost.deserialize_bw
                )
            )
        if self.allocate_temp is not None:
            self.allocate_temp(int(nbytes * self.cost.sd_temp_object_ratio))
        self.objects_deserialized += object_count
        self.bytes_deserialized += nbytes

    def serialize(self, root: HeapObject) -> SerializedBlob:
        """Walk the closure and produce a blob; charges S/D time."""
        objs = self.closure(root)
        nbytes = sum(o.size for o in objs)
        with self.clock.context(Bucket.SD_IO):
            seconds = self.overhead * (
                self.cost.serialize_obj_cost * len(objs)
                + nbytes / self.cost.serialize_bw
            )
            self.clock.charge(seconds)
        if self.allocate_temp is not None:
            self.allocate_temp(int(nbytes * self.cost.sd_temp_object_ratio))
        self.objects_serialized += len(objs)
        self.bytes_serialized += nbytes
        return SerializedBlob(size_bytes=nbytes, object_count=len(objs))

    def deserialize_cost(self, blob: SerializedBlob) -> None:
        """Charge the cost of reconstructing a blob's object graph.

        The caller (framework) re-allocates the actual objects on the
        heap; this method accounts for the byte-stream decoding work and
        the temporary objects it sprays.
        """
        with self.clock.context(Bucket.SD_IO):
            seconds = self.overhead * (
                self.cost.deserialize_obj_cost * blob.object_count
                + blob.size_bytes / self.cost.deserialize_bw
            )
            self.clock.charge(seconds)
        if self.allocate_temp is not None:
            self.allocate_temp(
                int(blob.size_bytes * self.cost.sd_temp_object_ratio)
            )
        self.objects_deserialized += blob.object_count
        self.bytes_deserialized += blob.size_bytes


class KryoSerializer(Serializer):
    """Kryo: the optimised serializer Spark recommends (Section 6)."""

    name = "kryo"
    overhead = 1.0
