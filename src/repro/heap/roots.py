"""GC root set: thread stacks, static fields, JNI handles.

Frameworks register the objects their driver/runtime structures pin
(partition stores, cache hash maps, executor state) as roots; everything
reachable from here survives collection.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List

from .object_model import HeapObject


class StackFrame:
    """A mutator stack frame: locals that pin objects during computation.

    The simulated GC cannot see Python local variables, so framework code
    that holds heap objects across a potential collection must push them
    into an active frame (the analogue of JVM stack scanning).
    """

    def __init__(self) -> None:
        self.objects: List[HeapObject] = []

    def push(self, obj: HeapObject) -> HeapObject:
        self.objects.append(obj)
        return obj

    def push_all(self, objs) -> None:
        self.objects.extend(objs)


class RootSet:
    """A named collection of GC roots, plus mutator stack frames."""

    def __init__(self) -> None:
        #: named roots in insertion order, keyed by handle: a handle
        #: follows its row through a store compaction, an oid would not
        self._roots: Dict[HeapObject, None] = {}
        self._frames: List[StackFrame] = []

    @contextmanager
    def frame(self) -> Iterator[StackFrame]:
        """Open a stack frame; its objects are roots until it closes."""
        frame = StackFrame()
        self._frames.append(frame)
        try:
            yield frame
        finally:
            self._frames.remove(frame)

    def open_frame(self) -> StackFrame:
        """Open a frame whose lifetime is not a lexical scope.

        The streaming executor's in-flight blocks live from admission to
        retirement (or spill) — lifetimes that interleave rather than
        nest, so the :meth:`frame` context manager cannot express them.
        The caller owns the frame and must :meth:`close_frame` it.
        """
        frame = StackFrame()
        self._frames.append(frame)
        return frame

    def close_frame(self, frame: StackFrame) -> None:
        """Close a frame opened with :meth:`open_frame` (idempotent)."""
        if frame in self._frames:
            self._frames.remove(frame)

    def add(self, obj: HeapObject) -> HeapObject:
        self._roots[obj] = None
        return obj

    def remove(self, obj: HeapObject) -> None:
        self._roots.pop(obj, None)

    def frame_pinned(self, obj: HeapObject) -> bool:
        """Is ``obj`` pinned by an active mutator stack frame?

        Distinct from :meth:`__contains__`: only the *frames* are
        consulted, not the named roots — "some task currently holds this
        object on its stack", the pin the block manager's eviction
        paths must honour.
        """
        return any(
            obj is pinned for f in self._frames for pinned in f.objects
        )

    def __contains__(self, obj: HeapObject) -> bool:
        if obj in self._roots:
            return True
        return any(
            obj is pinned for f in self._frames for pinned in f.objects
        )

    def __len__(self) -> int:
        return len(self._roots) + sum(len(f.objects) for f in self._frames)

    def __iter__(self) -> Iterator[HeapObject]:
        for obj in list(self._roots):
            yield obj
        for frame in self._frames:
            for obj in frame.objects:
                yield obj

    def oids(self) -> List[int]:
        """Root oids in iteration order — the seed of the trace kernels."""
        return [obj.oid for obj in self]

    def clear(self) -> None:
        self._roots.clear()
        self._frames.clear()
