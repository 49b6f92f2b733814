"""Chaos-kill matrix: crash at every safepoint, recover, prove it.

The crash-consistency claim is only as good as its worst safepoint, so
this experiment kills the simulated process at *each* named crash point
(mid promotion-buffer flush, mid coalesced h2 flush, mid region-header
batch, between major-GC copy batches, mid epoch commit, mid msync) under
each writeback policy, then:

1. lifts the durable image out of the dead VM,
2. recovers it into a fresh VM (``JavaVM.recover_h2``),
3. asserts a full :class:`~repro.heap.audit.HeapAuditor` pass is clean,
4. resumes the workload from the committed checkpoint note, and
5. reconciles the final H2 population against a crash-free baseline:
   every label matches exactly unless recovery quarantined (part of) it,
   and nothing appears that the baseline does not have.

The experiment harness runs every cell twice: its whole result — the
durable-image digest at crash time, the recovery-report digest, and the
final population — must be byte-identical across the two runs.

The workload is a phased group lifecycle: each phase creates a labelled
object group, moves it to H2, drops the group created ``LIVE_WINDOW``
phases ago, dirties one committed page (so msync has work), and runs a
minor plus a major GC.  The checkpoint note names the phase, so recovery
knows exactly where to resume.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import TeraHeapConfig, VMConfig
from ..devices.durability import image_of
from ..errors import InvariantViolation, SimulatedCrash, UnrecoverableCrash
from ..faults.plan import FaultConfig
from ..runtime import JavaVM
from ..units import KiB, gb
from .harness import Cell, Params, Spec

#: safepoints swept, each with the visit count that fires the kill —
#: chosen so at least one durable epoch usually precedes the crash
CRASH_POINTS: Tuple[Tuple[str, int], ...] = (
    ("promotion_flush", 4),
    ("h2_flush", 2),
    ("region_metadata_update", 2),
    ("major_compact", 5),
    ("epoch_commit", 2),
    ("msync", 2),
)
POLICIES: Tuple[str, ...] = ("commit", "flush")

#: workload shape (sizes are simulated bytes — the repo's scaled units)
PHASES = 6
LIVE_WINDOW = 3
MEMBERS = 12
REGION_SIZE = 64 * KiB
PROMOTION_BUFFER = 32 * KiB
WORKLOAD_SEED = 11
FAULT_SEED = 1302


def make_vm(policy: str, fault: Optional[FaultConfig] = None) -> JavaVM:
    return JavaVM(
        VMConfig(
            heap_size=gb(8),
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(64),
                region_size=REGION_SIZE,
                promotion_buffer_size=PROMOTION_BUFFER,
                writeback_policy=policy,
            ),
            page_cache_size=gb(8),
            faults=fault,
            audit="full",
        )
    )


class Workload:
    """The phased group lifecycle, resumable at any phase boundary.

    Phase content is a pure function of ``(seed, phase)``, so a run
    resumed on a fresh VM after recovery replays the exact phases the
    crashed process never completed.  Group handles recovered from the
    durable image surface as ``vm.h2_recovery_anchors`` rather than
    live allocation handles; drops and touches look in both places.
    """

    def __init__(self, vm: JavaVM, seed: int):
        self.vm = vm
        self.seed = seed
        self.table = vm.roots.add(vm.allocate(16 * KiB, name="chaos-table"))
        self.handles: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def has(self, label: str) -> bool:
        return label in self.handles or label in self.vm.h2_recovery_anchors

    def drop(self, label: str) -> None:
        """Unroot a group so the next major GC reclaims its regions."""
        key = self.handles.pop(label, None)
        if key is not None:
            self.vm.write_ref(self.table, None, remove=key)
        anchor = self.vm.h2_recovery_anchors.pop(label, None)
        if anchor is not None:
            self.vm.roots.remove(anchor)

    def touch(self, label: str) -> None:
        """Mutator store into a committed H2 page (dirties it)."""
        obj = self.handles.get(label)
        if obj is None:
            anchor = self.vm.h2_recovery_anchors.get(label)
            if anchor is None or not anchor.refs:
                return
            obj = anchor.refs[0]
        if obj.in_h2:
            self.vm.write_ref(obj, None)

    # ------------------------------------------------------------------
    def run_phase(self, i: int) -> None:
        vm = self.vm
        rng = Random(self.seed * 1_000_003 + i)
        label = f"g{i}"
        if i >= LIVE_WINDOW:
            self.drop(f"g{i - LIVE_WINDOW}")
        if not self.has(label):
            key = vm.allocate(4 * KiB, name=f"key-{label}")
            vm.write_ref(self.table, key)
            for j in range(MEMBERS):
                size = (8 + rng.randrange(8)) * KiB
                member = vm.allocate(size, name=f"{label}-m{j}")
                vm.write_ref(key, member)
            vm.h2_tag_root(key, label)
            vm.h2_move(label)
            self.handles[label] = key
        for _ in range(8):
            vm.allocate(16 * KiB, name="chaff")
        if i >= 1:
            self.touch(f"g{i - 1}")
        vm.minor_gc()
        vm.h2.checkpoint_note = f"phase:{i}"
        vm.major_gc()


def final_report(vm: JavaVM) -> List[Tuple[str, int, int]]:
    """The H2 population as ``(label, objects, bytes)``, sorted.

    Deliberately address- and oid-free: a recovered-and-resumed run
    must reproduce the crash-free population, not its object identities.
    """
    by_label: Dict[str, List[int]] = {}
    for region in vm.h2.regions.values():
        if region.is_empty:
            continue
        stats = by_label.setdefault(region.label or "", [0, 0])
        stats[0] += len(region.objects)
        stats[1] += region.used
    return sorted((lbl, c, b) for lbl, (c, b) in by_label.items())


def resume_phase(note: str) -> int:
    """First phase the resumed run must execute, from the commit note."""
    if note.startswith("phase:"):
        return int(note.split(":", 1)[1]) + 1
    return 0


# ======================================================================
# One matrix cell: crash, recover, resume
# ======================================================================
@dataclass
class CellResult:
    point: str
    policy: str
    crashed: bool = False
    safepoint: str = ""
    committed_note: str = ""
    resumed_from: int = -1
    regions_recovered: int = 0
    regions_quarantined: int = 0
    quarantined_labels: List[str] = field(default_factory=list)
    image_digest: str = ""
    report_digest: str = ""
    final: List[Tuple[str, int, int]] = field(default_factory=list)
    error: str = ""

    def row(self) -> str:
        outcome = self.error.splitlines()[0] if self.error else "ok"
        return (
            f"{self.point:24s} {self.policy:7s} "
            f"{'crash' if self.crashed else 'ran':6s} "
            f"note={self.committed_note or '-':10s} "
            f"resume={self.resumed_from:2d} "
            f"rec={self.regions_recovered:2d} "
            f"quar={self.regions_quarantined:2d} "
            f"{outcome}"
        )


def run_cell(
    point: str,
    crash_after: int,
    policy: str,
    phases: int = PHASES,
    workload_seed: int = WORKLOAD_SEED,
    fault_seed: int = FAULT_SEED,
) -> CellResult:
    result = CellResult(point=point, policy=policy)
    fault = FaultConfig(
        seed=workload_seed,
        fault_seed=fault_seed,
        crash_point=point,
        crash_after=crash_after,
    )
    vm = make_vm(policy, fault)
    workload = Workload(vm, workload_seed)
    try:
        for i in range(phases):
            workload.run_phase(i)
    except SimulatedCrash as crash:
        result.crashed = True
        result.safepoint = crash.safepoint
        image = image_of(vm.h2.mapping)
        result.image_digest = image.digest()
        fresh = make_vm(policy)
        try:
            report = fresh.recover_h2(image)
        except UnrecoverableCrash as exc:
            result.error = f"unrecoverable: {exc}"
            return result
        result.report_digest = report.digest()
        result.committed_note = report.checkpoint_note
        result.regions_recovered = report.regions_recovered
        result.regions_quarantined = report.regions_quarantined
        labels = set()
        for index in report.quarantined:
            for entry in image.journal_entries(index):
                labels.add(getattr(entry, "label", ""))
        result.quarantined_labels = sorted(labels)
        try:
            fresh.auditor.audit("recovery", fresh.collector.mark_epoch)
        except InvariantViolation as exc:
            result.error = f"post-recovery audit failed: {exc}"
            return result
        start = resume_phase(report.checkpoint_note)
        result.resumed_from = start
        resumed = Workload(fresh, workload_seed)
        for i in range(start, phases):
            resumed.run_phase(i)
        vm = fresh
    result.final = final_report(vm)
    return result


@functools.lru_cache(maxsize=None)
def run_baseline(
    policy: str, phases: int = PHASES, workload_seed: int = WORKLOAD_SEED
) -> Tuple[Tuple[str, int, int], ...]:
    """The crash-free final population (memoised: cells share it)."""
    vm = make_vm(policy)
    workload = Workload(vm, workload_seed)
    for i in range(phases):
        workload.run_phase(i)
    return tuple(final_report(vm))


def reconcile(
    result: CellResult, baseline: Sequence[Tuple[str, int, int]]
) -> List[str]:
    """No lost non-quarantined H2 objects, nothing invented.

    Every baseline label must match exactly unless recovery quarantined
    regions of that label (a quarantined label may come back smaller or
    not at all — those objects are *reported* lost, not silently lost).
    """
    failures: List[str] = []
    base = {lbl: (c, b) for lbl, c, b in baseline}
    got = {lbl: (c, b) for lbl, c, b in result.final}
    lost = set(result.quarantined_labels)
    for lbl, expected in base.items():
        actual = got.get(lbl)
        if actual == expected or lbl in lost:
            continue
        failures.append(
            f"{result.point}/{result.policy}: label {lbl} expected "
            f"{expected}, got {actual}"
        )
    for lbl in got:
        if lbl not in base:
            failures.append(
                f"{result.point}/{result.policy}: label {lbl} absent "
                "from the crash-free baseline"
            )
    return failures


# ======================================================================
# The gated experiment
# ======================================================================
def cells(smoke: bool) -> List[Tuple[str, Params]]:
    policies = ("commit",) if smoke else POLICIES
    phases = 4 if smoke else PHASES
    return [
        (
            f"{point}/{policy}",
            dict(
                point=point,
                crash_after=crash_after,
                policy=policy,
                phases=phases,
                fault_seed=FAULT_SEED,
            ),
        )
        for policy in policies
        for point, crash_after in CRASH_POINTS
    ]


def check(cells: List[Cell]) -> List[str]:
    """Every kill fires, recovers, and reconciles with the baseline."""
    failures: List[str] = []
    for cell in cells:
        result, params = cell.result, cell.params
        if not result.crashed:
            failures.append(
                f"{cell.key}: crash never fired "
                f"(crash_after={params['crash_after']})"
            )
        elif result.error:
            failures.append(f"{cell.key}: {result.error}")
        else:
            baseline = run_baseline(result.policy, params["phases"])
            failures.extend(reconcile(result, baseline))
    return failures


def report(cells: List[Cell]) -> str:
    lines = [
        "crash_point              policy  fate   committed       "
        "resume rec quar outcome"
    ]
    lines.extend(cell.result.row() for cell in cells)
    return "\n".join(lines)


SPEC = Spec(
    name="chaoskill",
    description="crash/recover/verify matrix over H2 safepoints",
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=report,
)
