"""Post-GC invariant auditing.

A :class:`HeapAuditor` re-derives, from first principles, the invariants
the heap and TeraHeap metadata are supposed to maintain, and raises
:class:`~repro.errors.InvariantViolation` with a diff-style report when
reality disagrees.  It runs after each minor/major/H2 cycle (wired up by
:class:`~repro.runtime.JavaVM` when auditing is enabled) and is pure
observation: it charges nothing to the simulated clock and mutates no
state.

Two levels:

- **cheap** — space/region accounting and address-map bijectivity: every
  object sits inside its space at a unique, in-bounds, non-overlapping
  address and the bump pointers agree with the object population.
- **full** — additionally cross-checks the card tables and the H2
  dependency metadata: old-to-young references are covered by dirty
  cards, H2 cross-region references are closed under the dependency
  lists (no H2→H1/H2 dangling refs), region live bits agree with
  the regions that survived the last major GC, and the H2 page cache's
  columns describe one LRU within its limit.  It also checks the
  store's rows: no FREED row keeps a store-held handle, and every
  reference row is a list or the shared empty ``()``.  And it checks
  every holder of an oid a store compaction renumbers: each extent's
  oids, each root's and tagged root's handle and each canonical handle
  name an in-range row that is not FREED, the handle being the one the
  store holds for that row (a tagged root that died points at row 0),
  the store's FREED-row count is right, and the allocation count
  covers the live rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..errors import InvariantViolation
from .heap import ManagedHeap
from .object_model import SPACE_CODES, SpaceId
from .roots import RootSet
from .spaces import Space
from .store import SPACE_FREED, SPACE_H2, SPACE_TO, HeapStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..teraheap.hints import HintInterface


class AuditLevel(enum.Enum):
    CHEAP = "cheap"
    FULL = "full"

    @classmethod
    def parse(cls, value) -> "AuditLevel":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown audit level {value!r}; expected 'cheap' or 'full'"
            ) from None


@dataclass
class Violation:
    """One failed invariant check."""

    check: str
    subject: str
    expected: str
    actual: str

    def lines(self) -> List[str]:
        return [
            f"[{self.check}] {self.subject}",
            f"  - expected: {self.expected}",
            f"  + actual:   {self.actual}",
        ]


@dataclass
class AuditTally:
    """An auditor's counters, held apart so a run summary can keep them
    without keeping the audited heap alive."""

    audits_run: int = 0
    violations_found: int = 0


class HeapAuditor:
    """Verifies heap/TeraHeap invariants after each GC cycle."""

    def __init__(
        self,
        heap: ManagedHeap,
        store: HeapStore,
        roots: RootSet,
        hints: HintInterface,
        h2=None,
        level: AuditLevel = AuditLevel.CHEAP,
    ):
        self.heap = heap
        self.h2 = h2
        self.store = store
        self.roots = roots
        self.hints = hints
        self.level = AuditLevel.parse(level)
        self.tally = AuditTally()

    @property
    def audits_run(self) -> int:
        return self.tally.audits_run

    @property
    def violations_found(self) -> int:
        return self.tally.violations_found

    # ------------------------------------------------------------------
    def audit(self, trigger: str, epoch: int) -> None:
        """Run all enabled checks; raise on any violation.

        ``trigger`` names the cycle that just finished ("minor"/"major");
        ``epoch`` is the collector's current mark epoch.
        """
        violations: List[Violation] = []
        for space in self.heap.spaces():
            self._check_space(space, violations)
        if self.h2 is not None:
            self._check_h2_regions(violations)
        if self.level is AuditLevel.FULL:
            self._check_store_rows(violations)
            self._check_oid_holders(violations)
            self._check_card_coverage(violations)
            if self.h2 is not None:
                self._check_h2_references(violations)
                self._check_page_cache(violations)
                if trigger == "major":
                    self._check_live_bits(violations, epoch)
        self.tally.audits_run += 1
        if violations:
            self.tally.violations_found += len(violations)
            raise InvariantViolation(self._report(trigger, violations), violations)

    @staticmethod
    def _report(trigger: str, violations: List[Violation]) -> str:
        lines = [
            f"post-{trigger}-GC audit found {len(violations)} "
            f"invariant violation(s):"
        ]
        for violation in violations:
            lines.extend(violation.lines())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Cheap checks: accounting and address-map bijectivity
    # ------------------------------------------------------------------
    @staticmethod
    def _extent_clean(
        store, oids: np.ndarray, code: int, base: int, top: int, used: int
    ) -> bool:
        """Vectorized membership/bounds/overlap/accounting sweep.

        One gather per column over the store's flat arrays replaces the
        per-object loop; a False return routes to the loop so violation
        reports stay byte-for-byte what they always were.
        """
        if not oids.size:
            return used == 0
        addr = store.address_view()[oids]
        sizes = store.size_view()[oids]
        ends = addr + sizes
        if not (store.space_view()[oids] == code).all():
            return False
        if int(addr.min()) < base or int(ends.max()) > top:
            return False
        if oids.size > 1 and bool((addr[1:] < ends[:-1]).any()):
            return False
        return int(sizes.sum()) == used

    def _check_space(self, space: Space, out: List[Violation]) -> None:
        if space.top > space.end:
            # Extents are checked against [base, top) below, so a bump
            # pointer past the space's end would otherwise go unnoticed.
            out.append(
                Violation(
                    "space-overrun",
                    f"{space.name} bump pointer",
                    f"top <= end == {space.end:#x}",
                    f"top == {space.top:#x}",
                )
            )
        store = space.store
        oids = space.oid_array()
        if self._extent_clean(
            store,
            oids,
            SPACE_CODES[space.space_id],
            space.base,
            space.top,
            space.used,
        ):
            return
        prev_end = space.base
        prev_obj = None
        total = 0
        for obj in map(store.handle, oids.tolist()):
            if obj.space is not space.space_id:
                out.append(
                    Violation(
                        "space-membership",
                        f"object #{obj.oid} listed in {space.name}",
                        f"space={space.space_id.value}",
                        f"space={obj.space.value}",
                    )
                )
            if obj.address < space.base or obj.end_address() > space.top:
                out.append(
                    Violation(
                        "address-bounds",
                        f"object #{obj.oid} in {space.name}",
                        f"extent within [{space.base:#x}, {space.top:#x})",
                        f"[{obj.address:#x}, {obj.end_address():#x})",
                    )
                )
            if obj.address < prev_end:
                out.append(
                    Violation(
                        "address-overlap",
                        f"objects #{prev_obj.oid} and #{obj.oid} "
                        f"in {space.name}",
                        f"#{obj.oid} starts at or after {prev_end:#x}",
                        f"starts at {obj.address:#x}",
                    )
                )
            prev_end = obj.end_address()
            prev_obj = obj
            total += obj.size
        if total != space.used:
            out.append(
                Violation(
                    "space-accounting",
                    f"{space.name} bump pointer vs object population",
                    f"used == sum(sizes) == {total}",
                    f"used == {space.used}",
                )
            )

    def _h2_region_clean(self, region) -> bool:
        """Vectorized twin of the per-object H2 region loop."""
        store = region.store
        oids = region.oid_array()
        if not oids.size:
            return region.used == 0
        if not self._extent_clean(
            store, oids, SPACE_H2, region.base, region.top, region.used
        ):
            return False
        if not (store.region_view()[oids] == region.index).all():
            return False
        # region_at() is pure arithmetic over the address, so in-bounds
        # objects resolve to this region iff the registry entry at this
        # index is the region itself.
        return self.h2.regions.get(region.index) is region

    def _check_h2_regions(self, out: List[Violation]) -> None:
        for index, reason in getattr(self.h2, "quarantined", {}).items():
            region = self.h2.regions.get(index)
            if region is not None and not region.is_empty:
                out.append(
                    Violation(
                        "h2-quarantine",
                        f"region {index} quarantined by recovery "
                        f"({reason})",
                        "no region allocated at a quarantined index",
                        f"region holds {len(region)} object(s)",
                    )
                )
        for region in self.h2.regions.values():
            if self._h2_region_clean(region):
                continue
            prev_end = region.base
            prev_obj = None
            total = 0
            for obj in map(region.store.handle, region.oid_array().tolist()):
                if obj.space is not SpaceId.H2:
                    out.append(
                        Violation(
                            "h2-membership",
                            f"object #{obj.oid} listed in region "
                            f"{region.index}",
                            "space=h2",
                            f"space={obj.space.value}",
                        )
                    )
                if obj.region_id != region.index:
                    out.append(
                        Violation(
                            "h2-region-id",
                            f"object #{obj.oid} in region {region.index}",
                            f"region_id={region.index}",
                            f"region_id={obj.region_id}",
                        )
                    )
                resolved = self.h2.region_at(obj.address)
                if resolved is not region:
                    out.append(
                        Violation(
                            "h2-address-map",
                            f"object #{obj.oid} at {obj.address:#x}",
                            f"address maps to region {region.index}",
                            "region "
                            + (
                                str(resolved.index)
                                if resolved is not None
                                else "<none>"
                            ),
                        )
                    )
                if obj.address < region.base or obj.end_address() > region.top:
                    out.append(
                        Violation(
                            "h2-bounds",
                            f"object #{obj.oid} in region {region.index}",
                            f"extent within [{region.base:#x}, "
                            f"{region.top:#x})",
                            f"[{obj.address:#x}, {obj.end_address():#x})",
                        )
                    )
                if obj.address < prev_end:
                    out.append(
                        Violation(
                            "h2-overlap",
                            f"objects #{prev_obj.oid} and #{obj.oid} in "
                            f"region {region.index}",
                            f"#{obj.oid} starts at or after {prev_end:#x}",
                            f"starts at {obj.address:#x}",
                        )
                    )
                prev_end = obj.end_address()
                prev_obj = obj
                total += obj.size
            if total != region.used:
                out.append(
                    Violation(
                        "h2-accounting",
                        f"region {region.index} top pointer vs objects",
                        f"used == sum(sizes) == {total}",
                        f"used == {region.used}",
                    )
                )

    # ------------------------------------------------------------------
    # Full checks: card tables, dependency closure, live bits
    # ------------------------------------------------------------------
    def _check_store_rows(self, out: List[Violation]) -> None:
        """FREED rows hold no handle and no references; reference rows
        are lists or ``()``.

        A handle or a reference left on a FREED row is memory the row
        should no longer cost; any other reference container is one an
        in-place writer could not go through
        :meth:`HeapStore.writable_refs` for.
        """
        store = self.store
        handles, refs = store.handles, store.refs
        freed = np.flatnonzero(store.space_view() == SPACE_FREED).tolist()
        held = [oid for oid in freed if handles[oid] is not None]
        if held:
            out.append(
                Violation(
                    "store-rows",
                    f"{len(held)} FREED row(s), first #{held[0]}",
                    "no store-held handle",
                    "a handle in store.handles",
                )
            )
        linked = [oid for oid in freed if refs[oid] != ()]
        if linked:
            out.append(
                Violation(
                    "store-rows",
                    f"{len(linked)} FREED row(s), first #{linked[0]}",
                    "references ()",
                    repr(refs[linked[0]]),
                )
            )
        odd = [
            oid
            for oid, targets in enumerate(store.refs)
            if targets.__class__ is not list and targets != ()
        ]
        if odd:
            out.append(
                Violation(
                    "store-rows",
                    f"{len(odd)} reference row(s), first #{odd[0]}",
                    "a list or ()",
                    repr(store.refs[odd[0]]),
                )
            )

    def _check_oid_holders(self, out: List[Violation]) -> None:
        """Every holder of an oid names a live row by its current number.

        A holder a store compaction failed to renumber names a row that
        now belongs to another object, is FREED or is past the end.
        """
        store = self.store
        rows = len(store)
        space, handles = store.space, store.handles

        def bad(holder: str, detail: str) -> None:
            out.append(
                Violation(
                    "oid-holders",
                    holder,
                    "an in-range row that is not FREED",
                    detail,
                )
            )

        extents = [(space.name, space) for space in self.heap.spaces()]
        if self.h2 is not None:
            extents += [
                (f"H2 region {index}", region)
                for index, region in self.h2.regions.items()
            ]
        for name, extent in extents:
            oids = extent.oid_array()
            if not oids.size:
                continue
            stray = (oids < 1) | (oids >= rows)
            if not stray.any():
                stray = store.space_view()[oids] == SPACE_FREED
            if stray.any():
                bad(
                    f"{name}'s oids",
                    f"{int(stray.sum())} stray oid(s), first "
                    f"#{int(oids[np.argmax(stray)])}",
                )

        def canonical(h) -> bool:
            return 0 < h.oid < rows and handles[h.oid] is h

        for obj in self.roots:
            if not canonical(obj):
                bad("root handle", f"#{obj.oid}, not the row's handle")
                break
        for obj in self.hints._tagged_roots:
            if obj.oid and not canonical(obj):
                bad("tagged-root handle", f"#{obj.oid}, not the row's handle")
                break
        renamed = [
            oid
            for oid, h in enumerate(handles)
            if h is not None and (h.oid != oid or space[oid] == SPACE_FREED)
        ]
        if renamed:
            bad(
                "store.handles",
                f"{len(renamed)} handle(s) naming another row or a FREED "
                f"one, first at row #{renamed[0]}",
            )
        freed = int(np.count_nonzero(store.space_view() == SPACE_FREED)) - 1
        if store.freed_rows() != freed:
            out.append(
                Violation(
                    "oid-holders",
                    "store.freed_rows()",
                    f"the {freed} FREED rows",
                    str(store.freed_rows()),
                )
            )
        live = rows - 1 - freed
        if store.object_count < live:
            out.append(
                Violation(
                    "oid-holders",
                    "store.object_count",
                    f"at least the {live} live rows",
                    str(store.object_count),
                )
            )

    def _check_card_coverage(self, out: List[Violation]) -> None:
        """Every old object with a young reference has a dirty card.

        A clean card over such an object would let the next scavenge miss
        an old-to-young root and free a live object.
        """
        table = self.heap.card_table
        store = self.store
        oids = self.heap.old.oid_array()
        flat, owner = store.gather_targets(oids)
        if not flat.size:
            return
        young_edges = store.space_view()[flat] <= SPACE_TO
        has_young = (
            np.bincount(owner[young_edges], minlength=oids.size) > 0
        )
        if not has_young.any():
            return
        flagged = oids[has_young]
        addr = store.address_view()[flagged]
        ends = addr + store.size_view()[flagged]
        first = (addr - table.base) // table.card_size
        last = (ends - 1 - table.base) // table.card_size
        covered = table.covered_mask(first, last)
        for i in np.nonzero(~covered)[0]:
            obj = store.handle(int(flagged[i]))
            young = [r.oid for r in obj.refs if r.in_young]
            out.append(
                Violation(
                    "card-coverage",
                    f"old object #{obj.oid} references young "
                    f"object(s) {young}",
                    f"a dirty card in cards [{int(first[i])}, "
                    f"{int(last[i])}]",
                    "all covering cards clean",
                )
            )

    def _check_h2_references(self, out: List[Violation]) -> None:
        """H2 references neither dangle nor escape the dependency lists.

        A reference to a FREED object means region reclamation freed a
        region that was still reachable; an unrecorded cross-region
        reference means the next reclamation could.
        """
        h2 = self.h2
        for region in h2.regions.values():
            if self._h2_refs_clean(region):
                continue
            for obj in map(region.store.handle, region.oid_array().tolist()):
                for ref in obj.refs:
                    if ref.space is SpaceId.FREED:
                        out.append(
                            Violation(
                                "h2-dangling-ref",
                                f"H2 object #{obj.oid} (region "
                                f"{region.index}) references #{ref.oid}",
                                "a live H1 or H2 object",
                                "a reclaimed (FREED) object",
                            )
                        )
                        continue
                    if (
                        ref.space is SpaceId.H2
                        and ref.region_id != region.index
                        and ref.region_id not in region.deps
                    ):
                        out.append(
                            Violation(
                                "h2-dependency-closure",
                                f"cross-region reference #{obj.oid} "
                                f"(region {region.index}) -> "
                                f"#{ref.oid} (region {ref.region_id})",
                                f"dependency edge {region.index} -> "
                                f"{ref.region_id}",
                                "no recorded edge",
                            )
                        )

    def _h2_refs_clean(self, region) -> bool:
        """Vectorized no-dangling / dependency-closure sweep of a region."""
        store = region.store
        flat, _ = store.gather_targets(region.oid_array())
        if not flat.size:
            return True
        codes = store.space_view()[flat]
        if bool((codes == SPACE_FREED).any()):
            return False
        h2_edges = codes == SPACE_H2
        if not h2_edges.any():
            return True
        target_regions = store.region_view()[flat[h2_edges]]
        cross = np.unique(target_regions[target_regions != region.index])
        if not cross.size:
            return True
        return all(int(r) in region.deps for r in cross)

    def _check_page_cache(self, out: List[Violation]) -> None:
        """The H2 page cache's columns describe one LRU within its limit.

        Its live count equals the number of live log entries, every
        cached page's position points at that page's own entry inside
        the log's live window, no uncached page keeps a dirty bit, and
        no more pages are cached than the cache may hold.
        """
        cache = self.h2.page_cache
        where, dirty, log = cache._where, cache._dirty, cache._log
        subject = "H2 page cache"
        listed = len(cache.lru())
        if listed != len(cache):
            out.append(
                Violation(
                    "page-cache",
                    subject,
                    f"{len(cache)} live log entries (its live count)",
                    f"{listed} live log entries",
                )
            )
        cached = np.flatnonzero(where)
        positions = where[cached]
        inside = (positions >= cache._head) & (positions < cache._tail)
        own = np.zeros(cached.size, dtype=bool)
        own[inside] = log[positions[inside]] == cached[inside]
        for page in cached[~own][:5].tolist():
            out.append(
                Violation(
                    "page-cache",
                    f"{subject} page {page}",
                    f"a position in [{cache._head}, {cache._tail}) whose "
                    "log entry is the page",
                    f"position {int(where[page])}",
                )
            )
        for page in np.flatnonzero(dirty & (where == 0))[:5].tolist():
            out.append(
                Violation(
                    "page-cache",
                    f"{subject} page {page}",
                    "no dirty bit on an uncached page",
                    "dirty bit set",
                )
            )
        if len(cache) > cache.max_pages:
            out.append(
                Violation(
                    "page-cache",
                    subject,
                    f"at most {cache.max_pages} pages cached",
                    f"{len(cache)} pages cached",
                )
            )

    def _check_live_bits(self, out: List[Violation], epoch: int) -> None:
        """After a major GC only live regions may hold objects.

        Regions first allocated during this very cycle (movers placed in
        pre-compaction, after the liveness pass reclaimed dead regions)
        are exempt: their live bits are set at the next marking.
        """
        for region in self.h2.regions.values():
            if region.is_empty or region.allocated_epoch >= epoch:
                continue
            if not region.live:
                out.append(
                    Violation(
                        "h2-live-bit",
                        f"region {region.index} "
                        f"({len(region)} objects, {region.used} B)",
                        "live bit set (survived this major GC)",
                        "live bit clear",
                    )
                )


def make_auditor(vm, level) -> Optional[HeapAuditor]:
    """Build an auditor for ``vm`` if its heap shape supports auditing."""
    heap = getattr(vm, "heap", None)
    if not isinstance(heap, ManagedHeap):
        return None
    return HeapAuditor(
        heap,
        vm.store,
        vm.roots,
        vm.hints,
        h2=vm.h2,
        level=AuditLevel.parse(level),
    )
