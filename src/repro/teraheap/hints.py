"""The hint-based interface (Section 3.2).

Two calls, exported to frameworks (through ``Unsafe`` in the real JVM):

- ``h2_tag_root(obj, label)`` — tag a root key-object with a label.  The
  tag lives in the extra header word; during the next major GC the
  collector computes the transitive closure of tagged roots and labels
  every member.
- ``h2_move(label)`` — advise TeraHeap that the object group under
  ``label`` is ready (typically: has become immutable) so the next major
  GC moves it to H2.

Decoupling tagging from transfer lets frameworks delay movement of objects
that are still being updated, avoiding read-modify-write traffic on the
device (Section 7.2 shows a 29-55% win from this).
"""

from __future__ import annotations

from typing import Set

from ..errors import InvalidHintError
from ..heap.object_model import HeapObject


class HintInterface:
    """Runtime state of the hint interface: tagged roots + pending moves."""

    def __init__(self) -> None:
        self._tagged_roots: dict = {}
        self._pending_moves: Set[str] = set()
        self.tag_calls = 0
        self.move_calls = 0

    # ------------------------------------------------------------------
    def h2_tag_root(self, obj: HeapObject, label: str) -> None:
        """Tag ``obj`` as a root key-object for H2 placement."""
        if obj is None:
            raise InvalidHintError("h2_tag_root: object is None")
        if not label:
            raise InvalidHintError("h2_tag_root: empty label")
        if obj.in_h2:
            raise InvalidHintError(
                f"h2_tag_root: object #{obj.oid} already lives in H2"
            )
        obj.label = label
        self._tagged_roots[obj.oid] = obj
        self.tag_calls += 1

    def h2_move(self, label: str) -> None:
        """Advise that objects labelled ``label`` move at the next major GC."""
        if not label:
            raise InvalidHintError("h2_move: empty label")
        self._pending_moves.add(label)
        self.move_calls += 1

    # ------------------------------------------------------------------
    def tagged_roots(self):
        """Root key-objects still resident in H1 (H2 residents are done)."""
        return [o for o in self._tagged_roots.values() if o.in_h1]

    def is_move_pending(self, label: str) -> bool:
        return label in self._pending_moves

    def consume_moved(self, labels: Set[str]) -> None:
        """Forget labels whose groups have been transferred."""
        self._pending_moves -= labels
        self._tagged_roots = {
            oid: obj
            for oid, obj in self._tagged_roots.items()
            if obj.in_h1
        }
