"""The durable image: what survives a kill of the simulated process.

H2's *data* lives on the device behind a file-backed mapping, but its
*metadata* (region array, dependency lists, live bits, card table) is
DRAM-only (Figure 2) — so process death erases everything except the
bytes that writeback actually pushed to the device.  This module models
that boundary explicitly.  A :class:`DurableImage` is the device-side
truth at any instant:

- **pages** — device pages that hold committed data, mapped to the
  monotonically increasing write sequence that last wrote them.  A page
  enters the image when the page cache writes it (write-through,
  msync/flush writeback, or dirty eviction); a *dirty page sitting in
  the cache is not durable*.
- **torn** — pages caught mid-write by a crash.  The torn-write model is
  page-granular: a crashed batch write lands a seeded prefix of its
  pages and tears the page at the cut; everything after the cut never
  reaches the device.
- **journal** — the per-region header journal TeraHeap persists into
  each H2 region (epoch, object summary, dependency info).  Header
  updates are shadow-written: the new entry is *staged* against its
  header page and installs only when that page's write commits; a tear
  loses the in-flight update but keeps the previous entry readable, the
  way a two-slot header with a flip word would.
- **superblock** — the commit record ``(committed_epoch, manifest,
  note)``: the region indices live at the last completed commit plus an
  opaque application checkpoint note.  The superblock is also two-slot:
  a crash mid-commit tears the in-flight slot and recovery falls back
  to the previous record.  Journal entries whose epoch differs from the
  committed epoch belong to a commit that never finished.

The image carries no simulated-clock state — it is pure bytes — so it
can be lifted out of a crashed VM and handed to a fresh one for
recovery.  :meth:`digest` renders the whole image canonically; byte
identity of digests across reruns is the determinism acceptance check.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: the superblock record: (committed_epoch, manifest, checkpoint note)
Superblock = Tuple[int, Tuple[int, ...], str]


class DurableImage:
    """Device-side durable state: committed pages, torn pages, journal."""

    def __init__(self, page_size: int = 4096):
        self.page_size = page_size
        #: page number -> write sequence of the last committed write
        self.pages: Dict[int, int] = {}
        #: pages caught mid-write by a crash
        self.torn: Set[int] = set()
        #: region index -> retained committed journal entries, oldest
        #: first.  Headers are two-slot: a commit installs into the
        #: free slot, so the previous epoch's entry stays readable until
        #: the *next* commit overwrites it.  Recovery picks the entry
        #: matching the superblock's committed epoch.
        self.journal: Dict[int, Tuple[object, ...]] = {}
        #: journal entries staged against a header page, installed when
        #: that page's write commits (shadow-write header model)
        self._staged: Dict[int, List[Tuple[int, object]]] = {}
        #: last completed commit record; ``None`` models an image whose
        #: every superblock slot is unreadable (only constructible by
        #: hand — one crash per run cannot tear both slots)
        self.superblock: Optional[Superblock] = (0, (), "")
        #: commit attempts torn mid-write (the fallback slot survived)
        self.superblock_tears = 0
        self._write_seq = 0
        #: completed msync/flush epochs (observability)
        self.sync_epochs = 0

    # ------------------------------------------------------------------
    # Write path (called by the page cache / mapping)
    # ------------------------------------------------------------------
    def stage_journal(self, page: int, slot: int, entry: object) -> None:
        """Stage ``entry`` to commit with the next write of ``page``."""
        self._staged.setdefault(page, []).append((slot, entry))

    def commit(self, pages: Sequence[int]) -> None:
        """Pages reached the device intact: install them and any staged
        journal entries riding on them.

        Equals installing the pages one by one in order: each takes the
        next write sequence (a repeated page keeps its first place in
        :attr:`pages` and its last sequence), leaves :attr:`torn`, and
        installs the entries staged against it.
        """
        seq = self._write_seq
        self.pages.update(zip(pages, range(seq + 1, seq + 1 + len(pages))))
        self._write_seq = seq + len(pages)
        if self.torn:
            self.torn.difference_update(pages)
        staged = self._staged
        if staged and not staged.keys().isdisjoint(pages):
            journal = self.journal
            for page in [p for p in pages if p in staged]:
                for slot, entry in staged.pop(page, ()):
                    retained = journal.get(slot, ())
                    journal[slot] = (retained + (entry,))[-2:]

    def tear(self, page: int) -> None:
        """A crash cut this page mid-write: neither its old nor its new
        content is fully readable.  Staged journal entries riding on the
        page are lost, but previously committed entries survive (headers
        are shadow-written, not overwritten in place)."""
        self._write_seq += 1
        self.pages.pop(page, None)
        self.torn.add(page)
        self._staged.pop(page, None)

    def drop_staged(self) -> None:
        """Forget staged journal entries whose page write never started."""
        self._staged.clear()

    def note_sync(self) -> None:
        self.sync_epochs += 1

    def commit_superblock(
        self, epoch: int, manifest: Iterable[int], note: str = ""
    ) -> None:
        self._write_seq += 1
        self.superblock = (epoch, tuple(sorted(manifest)), note)

    def tear_superblock(self) -> None:
        """A crash cut the superblock write: the in-flight slot is torn,
        the previous record remains the committed one."""
        self._write_seq += 1
        self.superblock_tears += 1

    # ------------------------------------------------------------------
    # Read path (recovery)
    # ------------------------------------------------------------------
    @property
    def committed_epoch(self) -> int:
        return self.superblock[0] if self.superblock is not None else -1

    @property
    def manifest(self) -> Tuple[int, ...]:
        return self.superblock[1] if self.superblock is not None else ()

    @property
    def checkpoint_note(self) -> str:
        return self.superblock[2] if self.superblock is not None else ""

    def is_durable(self, page: int) -> bool:
        return page in self.pages and page not in self.torn

    def journal_entries(self, index: int) -> Tuple[object, ...]:
        """Every readable journal entry of a region header, oldest first."""
        return self.journal.get(index, ())

    def journal_entry(self, index: int, epoch: int) -> Optional[object]:
        """The region's journal entry for ``epoch``, if a slot holds it."""
        for entry in reversed(self.journal.get(index, ())):
            if getattr(entry, "epoch", None) == epoch:
                return entry
        return None

    def torn_in(self, pages: Iterable[int]) -> List[int]:
        return [page for page in pages if page in self.torn]

    def missing_in(self, pages: Iterable[int]) -> List[int]:
        return [page for page in pages if page not in self.pages]

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Canonical text form of the image, for byte-identity checks."""
        lines = [f"page_size\t{self.page_size}"]
        if self.superblock is None:
            lines.append("superblock\tUNREADABLE")
        else:
            manifest = ",".join(str(i) for i in self.manifest)
            lines.append(
                f"superblock\tepoch={self.committed_epoch}"
                f"\tmanifest=[{manifest}]\tnote={self.checkpoint_note}"
                f"\ttears={self.superblock_tears}"
            )
        for page in sorted(self.pages):
            lines.append(f"page\t{page}\tseq={self.pages[page]}")
        for page in sorted(self.torn):
            lines.append(f"torn\t{page}")
        for slot in sorted(self.journal):
            for entry in self.journal[slot]:
                text = (
                    entry.line() if hasattr(entry, "line") else repr(entry)
                )
                lines.append(f"journal\t{slot}\t{text}")
        return "\n".join(lines)


def image_of(mapping) -> Optional[DurableImage]:
    """The durable image behind a mapping, if its cache tracks one."""
    cache = getattr(mapping, "cache", None)
    return getattr(cache, "durable_image", None)
