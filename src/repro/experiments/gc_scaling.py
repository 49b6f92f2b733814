"""GC-thread scaling: pause time and parallel efficiency, 1 to 16 threads.

Sweeps ``gc_threads`` over a deterministic allocation-churn workload and
reports, per point: GC pause totals, the emergent speedup over the
single-threaded engine schedule, parallel efficiency, and the engine's
scheduling counters (tasks, steals, per-worker idle time, imbalance).
With the task-based engine the speedup is an *output* — it comes from
critical paths over simulated worker lanes, not from a scalar divisor —
so this sweep is the direct check that parallel GC behaves: speedup must
grow with threads but stay sub-linear (termination protocol, steal
overhead, and chunky tasks all tax wide pools).  The sweep runs the
engine's one steal policy, steal-one (one task per steal), with static
batch sizes.

Two companion series ride along:

- **TeraHeap scan cap** — a TeraHeap churn run whose H2 card-table has
  few stripes, so stripe ownership bounds H2 scan parallelism: the scan
  speedup plateaus at ``scan_parallelism`` while plain PS keeps scaling.
- **G1 concurrent marking** — a mutator-intensity sweep on the G1
  collector: marking races ``Bucket.OTHER`` progress on the concurrent
  lane set, so the hidden share of marking rises with mutator work
  between cycles, while a back-to-back major-GC stress run (no mutator
  progress between cycles) hides essentially nothing.

The workload contains no randomness (the only RNG in the stack is the
engine's seeded victim selection), so every series is byte-identical
across runs.  Each series is one cell of the experiment harness, which
runs it twice and fails on any digest drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..clock import Bucket
from ..config import GCEngineConfig, TeraHeapConfig, VMConfig
from ..faults.session import RunSession
from ..runtime import JavaVM
from ..units import KiB, gb
from .harness import Cell, Params, Spec

#: gc_threads values of the sweep (the paper's testbed has 16 h/w threads)
SWEEP_THREADS = (1, 2, 4, 8, 16)

#: churn-workload shape (objects are 8 KiB simulated chunks)
OBJECT_SIZE = 8 * KiB
OBJECTS_PER_BATCH = 64
#: every Nth batch contributes survivors to the resident store
RETAIN_EVERY = 3
#: every Nth object of a retained batch survives (with its sub-chain)
RETAIN_STRIDE = 7
#: resident-store size cap; eviction keeps old-gen churn (and major GCs)
RESIDENT_CAP = 60

#: TeraHeap scan-cap series: H2 sized to this many stripes (= regions),
#: so scan_parallelism caps H2 card scanning below wide thread counts
TH_STRIPES = 4
TH_REGION_SIZE = 256 * KiB
TH_PHASES = 10
TH_MEMBERS = 10

#: G1 concurrent-marking series: mutator record-ops between majors
G1_MUTATOR_INTENSITY = (0, 512, 2048, 8192)
G1_ROUNDS = 6
#: long-lived objects marking must traverse every cycle
G1_RESIDENT = 180
#: short-lived allocations per round (the only OTHER time at intensity 0)
G1_FRESH_PER_ROUND = 16
#: G1 runs at the paper's 8 parallel GC threads (2 concurrent lanes)
G1_GC_THREADS = 8
#: back-to-back majors of the stress run (no mutator progress between)
G1_STRESS_MAJORS = 5


@dataclass
class ScalingPoint:
    """One sweep point: a full churn run at a fixed ``gc_threads``."""

    gc_threads: int
    minor_count: int
    major_count: int
    total_pause_s: float
    mean_minor_pause_s: float
    #: engine-scheduled work: sum of raw task costs vs charged critical paths
    serial_s: float
    parallel_s: float
    tasks: int
    steals: int
    idle_s: float
    imbalance: float
    worker_steals: List[int] = field(default_factory=list)
    worker_idle_s: List[float] = field(default_factory=list)
    #: total-pause speedup vs the 1-thread point (filled by run_scaling)
    pause_speedup: float = 1.0

    @property
    def engine_speedup(self) -> float:
        """Speedup of the engine-scheduled portion of the pauses."""
        if self.parallel_s <= 0.0:
            return 1.0
        return self.serial_s / self.parallel_s

    @property
    def efficiency(self) -> float:
        """Engine speedup per worker thread (1.0 = perfectly linear)."""
        return self.engine_speedup / self.gc_threads


def churn_engine_config(trace: bool = False) -> GCEngineConfig:
    """Engine config of the churn sweep: finer-grained than the defaults
    so 16 lanes have enough tasks to fill."""
    return GCEngineConfig(
        trace=trace,
        scan_batch_objects=8,
        copy_batch_objects=6,
        precompact_batch_objects=24,
        card_chunk_cards=512,
    )


def run_churn(
    gc_threads: int,
    batches: int = 60,
    trace: bool = False,
    session: Optional[RunSession] = None,
) -> JavaVM:
    """Run the deterministic churn workload on a fresh VM.

    Allocates linked record batches; a fixed stride of every
    ``RETAIN_EVERY``-th batch is attached to a rooted table (promoting
    through the survivor spaces), and the resident store is evicted FIFO
    beyond ``RESIDENT_CAP`` so the old generation churns and major GCs
    occur.  No RNG anywhere: identical input at every thread count.
    """
    config = VMConfig(
        heap_size=gb(8),
        # The jdk11 PS flavour: old-gen collection is also parallel, so
        # the sweep exercises the engine in every phase.
        collector="ps11",
        gc_threads=gc_threads,
        engine=churn_engine_config(trace=trace),
    )
    vm = JavaVM(config, session=session)
    table = vm.roots.add(vm.allocate(64 * KiB, name="table"))
    resident: List = []
    for i in range(batches):
        batch = []
        prev = None
        for j in range(OBJECTS_PER_BATCH):
            # Chains restart every RETAIN_STRIDE objects, so a retained
            # object anchors a short record chain, not the whole batch.
            if j % RETAIN_STRIDE == 0:
                prev = None
            obj = vm.allocate(
                OBJECT_SIZE,
                refs=[prev] if prev is not None else [],
                name=f"rec-{i}-{j}",
            )
            prev = obj
            batch.append(obj)
        if i % RETAIN_EVERY == 0:
            # Chain tails: each anchors its whole sub-chain.
            for obj in batch[RETAIN_STRIDE - 1 :: RETAIN_STRIDE]:
                vm.write_ref(table, obj)
                resident.append(obj)
        if len(resident) > RESIDENT_CAP:
            evicted = resident[: len(resident) - RESIDENT_CAP]
            resident = resident[len(evicted):]
            for obj in evicted:
                vm.write_ref(table, None, remove=obj)
    return vm


def measure(vm: JavaVM) -> ScalingPoint:
    """Fold a finished run's GC stats into one ScalingPoint."""
    stats = vm.collector.stats
    workers = vm.config.gc_threads
    worker_steals = [0] * workers
    worker_idle = [0.0] * workers
    for cycle in stats.cycles:
        for idx, count in enumerate(cycle.worker_steals[:workers]):
            worker_steals[idx] += count
        for idx, sec in enumerate(cycle.worker_idle[:workers]):
            worker_idle[idx] += sec
    return ScalingPoint(
        gc_threads=workers,
        minor_count=stats.minor_count,
        major_count=stats.major_count,
        total_pause_s=stats.total_time("minor") + stats.total_time("major"),
        mean_minor_pause_s=stats.mean_time("minor"),
        serial_s=sum(c.parallel_serial_seconds for c in stats.cycles),
        parallel_s=sum(c.parallel_seconds for c in stats.cycles),
        tasks=stats.total_tasks(),
        steals=stats.total_steals(),
        idle_s=stats.total_idle(),
        imbalance=stats.mean_imbalance(),
        worker_steals=worker_steals,
        worker_idle_s=worker_idle,
    )


def run_scaling(
    threads: Sequence[int] = SWEEP_THREADS,
    batches: int = 60,
    session: Optional[RunSession] = None,
) -> List[ScalingPoint]:
    """The sweep: one churn run per gc_threads value."""
    measured = [
        measure(run_churn(t, batches=batches, session=session))
        for t in threads
    ]
    base = next((p for p in measured if p.gc_threads == 1), measured[0])
    for p in measured:
        if p.total_pause_s > 0.0:
            p.pause_speedup = base.total_pause_s / p.total_pause_s
    return measured


def format_scaling(points: List[ScalingPoint]) -> str:
    lines = [
        "thr  minor major  pause_s   speedup  eff    tasks  steals"
        "  idle_s    imbal"
    ]
    for p in points:
        lines.append(
            f"{p.gc_threads:3d}  {p.minor_count:5d} {p.major_count:5d}"
            f"  {p.total_pause_s:8.4f}  {p.pause_speedup:6.2f}"
            f"  {p.efficiency:5.2f}  {p.tasks:6d}  {p.steals:6d}"
            f"  {p.idle_s:8.4f}  {p.imbalance:5.2f}"
        )
        steals = ",".join(str(s) for s in p.worker_steals)
        idles = ",".join(f"{v:.4f}" for v in p.worker_idle_s)
        lines.append(f"     worker_steals=[{steals}]")
        lines.append(f"     worker_idle_s=[{idles}]")
    return "\n".join(lines)


# ======================================================================
# TeraHeap scan-cap series (stripe ownership bounds scan parallelism)
# ======================================================================
@dataclass
class TeraHeapScanPoint:
    """H2 card-scan scheduling at one ``gc_threads`` value."""

    gc_threads: int
    #: stripe-bounded workers the scan phases actually ran on
    scan_workers: int
    scan_tasks: int
    scan_serial_s: float
    scan_parallel_s: float
    #: engine speedup of the non-H2 (plain PS) phases of the same run
    ps_speedup: float

    @property
    def scan_speedup(self) -> float:
        if self.scan_parallel_s <= 0.0:
            return 1.0
        return self.scan_serial_s / self.scan_parallel_s


def run_teraheap_churn(
    gc_threads: int,
    phases: int = TH_PHASES,
    session: Optional[RunSession] = None,
) -> JavaVM:
    """A TeraHeap workload generating H2 backward-reference scan work.

    Each phase moves a labelled object group to H2, then writes young
    references into the previous groups' device-resident members —
    dirtying H2 cards across every live stripe — and runs a minor plus a
    major GC.  The H2 heap has only ``TH_STRIPES`` stripes, so
    ``scan_parallelism`` caps the card-scan phases there no matter how
    many GC threads the VM has.
    """
    config = VMConfig(
        heap_size=gb(8),
        collector="ps11",
        gc_threads=gc_threads,
        engine=churn_engine_config(),
        teraheap=TeraHeapConfig(
            enabled=True,
            h2_size=TH_STRIPES * TH_REGION_SIZE,
            region_size=TH_REGION_SIZE,
        ),
        page_cache_size=gb(8),
    )
    vm = JavaVM(config, session=session)
    table = vm.roots.add(vm.allocate(16 * KiB, name="th-table"))
    groups: List[List] = []
    for i in range(phases):
        label = f"g{i}"
        if len(groups) >= TH_STRIPES - 1:
            # FIFO-drop the oldest group so H2 regions recycle.
            for obj in groups.pop(0):
                vm.write_ref(table, None, remove=obj)
        key = vm.allocate(4 * KiB, name=f"key-{label}")
        vm.write_ref(table, key)
        members = [key]
        for j in range(TH_MEMBERS):
            member = vm.allocate(OBJECT_SIZE, name=f"{label}-m{j}")
            vm.write_ref(key, member)
            members.append(member)
        vm.h2_tag_root(key, label)
        vm.h2_move(label)
        groups.append([key])
        vm.major_gc()  # transfers the group to H2
        # Backward references: every H2-resident member of the live
        # groups gains a young target, dirtying its card so the next
        # scavenge scans slices across all live stripes.
        for group in groups:
            anchor = group[0]
            if not anchor.in_h2:
                continue
            for member in [anchor] + list(anchor.refs):
                if member.in_h2:
                    young = vm.allocate(
                        OBJECT_SIZE, name=f"back-{i}-{member.oid}"
                    )
                    vm.write_ref(member, young)
        vm.minor_gc()
        del members
    return vm


def teraheap_scan_points(
    threads: Sequence[int] = SWEEP_THREADS,
    phases: int = TH_PHASES,
    session: Optional[RunSession] = None,
) -> List[TeraHeapScanPoint]:
    """The TeraHeap series: H2 scan scheduling per gc_threads value."""
    points: List[TeraHeapScanPoint] = []
    for t in threads:
        vm = run_teraheap_churn(t, phases=phases, session=session)
        scan_workers = 0
        scan_tasks = 0
        scan_serial = 0.0
        scan_parallel = 0.0
        ps_serial = 0.0
        ps_parallel = 0.0
        for cycle in vm.collector.stats.cycles:
            for rec in cycle.engine_phases:
                if rec["phase"].startswith("h2-") and rec["phase"].endswith(
                    "-scan"
                ):
                    scan_workers = max(scan_workers, rec["workers"])
                    scan_tasks += rec["tasks"]
                    scan_serial += rec["serial_s"]
                    scan_parallel += rec["critical_s"]
                elif rec["phase"].startswith("minor-"):
                    ps_serial += rec["serial_s"]
                    ps_parallel += rec["critical_s"]
        points.append(
            TeraHeapScanPoint(
                gc_threads=t,
                scan_workers=scan_workers,
                scan_tasks=scan_tasks,
                scan_serial_s=scan_serial,
                scan_parallel_s=scan_parallel,
                ps_speedup=(
                    ps_serial / ps_parallel if ps_parallel > 0.0 else 1.0
                ),
            )
        )
    return points


def format_teraheap_points(points: List[TeraHeapScanPoint]) -> str:
    lines = [
        f"H2 stripes={TH_STRIPES} (scan_parallelism cap)",
        "thr  scan_workers  scan_tasks  scan_speedup  ps_speedup",
    ]
    for p in points:
        lines.append(
            f"{p.gc_threads:3d}  {p.scan_workers:12d}  {p.scan_tasks:10d}"
            f"  {p.scan_speedup:12.2f}  {p.ps_speedup:10.2f}"
        )
    return "\n".join(lines)


# ======================================================================
# G1 concurrent marking (mutator intensity vs hidden-marking share)
# ======================================================================
@dataclass
class G1MarkingPoint:
    """Concurrent-marking overlap at one mutator intensity.

    ``hidden_s`` is the share of the concurrent-mark critical path that
    raced mutator (``Bucket.OTHER``) progress and was never charged to a
    pause; ``remark_s`` is the STW remark that always is.
    """

    label: str
    mutator_ops: int
    majors: int
    mark_serial_s: float
    mark_critical_s: float
    hidden_s: float
    remark_s: float
    mutator_s: float

    @property
    def hidden_share(self) -> float:
        """Fraction of the concurrent-mark critical path hidden behind
        the mutator (1.0 = marking was free, 0.0 = fully paused)."""
        if self.mark_critical_s <= 0.0:
            return 0.0
        return self.hidden_s / self.mark_critical_s


def _g1_vm(session: Optional[RunSession] = None) -> JavaVM:
    """A G1 VM with a rooted resident set sized so each major's
    concurrent mark has real traversal work."""
    config = VMConfig(
        heap_size=gb(8),
        collector="g1",
        gc_threads=G1_GC_THREADS,
        engine=churn_engine_config(),
    )
    vm = JavaVM(config, session=session)
    table = vm.roots.add(vm.allocate(64 * KiB, name="g1-table"))
    for i in range(G1_RESIDENT):
        obj = vm.allocate(OBJECT_SIZE, name=f"g1-res-{i}")
        vm.write_ref(table, obj)
    # Warmup major: consumes the OTHER time accrued during setup, so the
    # measured cycles only see mutator progress from their own rounds.
    vm.major_gc()
    return vm


def _measure_g1(vm: JavaVM, label: str, mutator_ops: int) -> G1MarkingPoint:
    """Fold a G1 run's post-warmup majors into one marking point."""
    majors = [c for c in vm.collector.stats.cycles if c.kind == "major"][1:]
    serial = critical = hidden = remark = 0.0
    for c in majors:
        for rec in c.engine_phases:
            if rec["phase"] == "g1-concurrent-mark":
                serial += rec["serial_s"]
                critical += rec["critical_s"]
        hidden += c.concurrent_hidden
        remark += c.remark_pause
    return G1MarkingPoint(
        label=label,
        mutator_ops=mutator_ops,
        majors=len(majors),
        mark_serial_s=serial,
        mark_critical_s=critical,
        hidden_s=hidden,
        remark_s=remark,
        mutator_s=vm.clock.total(Bucket.OTHER),
    )


def run_g1_marking(
    mutator_ops: int,
    rounds: int = G1_ROUNDS,
    session: Optional[RunSession] = None,
) -> JavaVM:
    """Alternate mutator work and major GCs at a fixed intensity.

    Each round allocates a few short-lived records, runs ``mutator_ops``
    record operations (``vm.compute``), and triggers a major GC, so the
    concurrent mark of cycle N races exactly the mutator time of round N.
    """
    vm = _g1_vm(session)
    for i in range(rounds):
        for j in range(G1_FRESH_PER_ROUND):
            vm.allocate(OBJECT_SIZE, name=f"g1-fresh-{i}-{j}")
        if mutator_ops:
            vm.compute(mutator_ops)
        vm.major_gc()
    return vm


def run_g1_stress(
    majors: int = G1_STRESS_MAJORS, session: Optional[RunSession] = None
) -> JavaVM:
    """Back-to-back majors: zero mutator progress between cycles, so the
    concurrent mark has nothing to hide behind."""
    vm = _g1_vm(session)
    for _ in range(majors):
        vm.major_gc()
    return vm


def g1_marking_points(
    intensities: Sequence[int] = G1_MUTATOR_INTENSITY,
    rounds: int = G1_ROUNDS,
    session: Optional[RunSession] = None,
) -> List[G1MarkingPoint]:
    """The G1 series: one point per mutator intensity, plus the
    back-to-back stress point."""
    points = [
        _measure_g1(
            run_g1_marking(ops, rounds=rounds, session=session),
            f"ops={ops}",
            ops,
        )
        for ops in intensities
    ]
    points.append(_measure_g1(run_g1_stress(session=session), "stress", 0))
    return points


def format_g1_marking_points(points: List[G1MarkingPoint]) -> str:
    lines = [
        f"G1 gc_threads={G1_GC_THREADS} "
        f"(concurrent lanes = gc_threads/4)",
        "point      majors  mark_crit_s  hidden_s   hidden%  remark_s"
        "  mutator_s",
    ]
    for p in points:
        lines.append(
            f"{p.label:9s}  {p.majors:6d}  {p.mark_critical_s:11.6f}"
            f"  {p.hidden_s:9.6f}  {p.hidden_share:6.1%}"
            f"  {p.remark_s:8.6f}  {p.mutator_s:9.6f}"
        )
    return "\n".join(lines)


# ======================================================================
# The gated experiment: one cell per series
# ======================================================================
def run_series(
    series: str,
    batches: int = 60,
    phases: int = TH_PHASES,
    rounds: int = G1_ROUNDS,
    session: Optional[RunSession] = None,
) -> list:
    """One gcscale cell: a whole series, as its list of points."""
    if series == "steal-one":
        return run_scaling(batches=batches, session=session)
    if series == "teraheap":
        return teraheap_scan_points(phases=phases, session=session)
    return g1_marking_points(rounds=rounds, session=session)


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    batches = 24 if smoke else 60
    phases = max(4, TH_PHASES // 2) if smoke else TH_PHASES
    return [
        ("steal-one", dict(series="steal-one", batches=batches)),
        ("teraheap", dict(series="teraheap", phases=phases)),
        ("g1", dict(series="g1", rounds=3 if smoke else G1_ROUNDS)),
    ]


def report(cells: List[Cell]) -> str:
    by = {cell.key: cell.result for cell in cells}
    sections = [
        ("thread sweep (steal-one)", format_scaling(by["steal-one"])),
        (
            "TeraHeap: stripe ownership bounds scan parallelism",
            format_teraheap_points(by["teraheap"]),
        ),
        (
            "G1 concurrent marking (hidden share vs mutator work)",
            format_g1_marking_points(by["g1"]),
        ),
    ]
    return "\n\n".join(f"== {title} ==\n{body}" for title, body in sections)


def check(cells: List[Cell]) -> List[str]:
    """What the module docstring claims, series by series."""
    failures: List[str] = []
    by = {cell.key: cell.result for cell in cells}
    points = by["steal-one"]
    for prev, p in zip(points, points[1:]):
        if p.pause_speedup <= prev.pause_speedup:
            failures.append(
                f"steal-one: pause speedup {p.pause_speedup:.3f} at "
                f"{p.gc_threads} threads does not exceed "
                f"{prev.pause_speedup:.3f} at {prev.gc_threads}"
            )
    for p in points:
        if p.efficiency > 1.0:
            failures.append(
                f"steal-one: efficiency {p.efficiency:.3f} above 1 at "
                f"{p.gc_threads} threads"
            )
    scan = {p.gc_threads: p for p in by["teraheap"]}
    for p in scan.values():
        if p.scan_workers > TH_STRIPES:
            failures.append(
                f"teraheap: {p.scan_workers} scan workers above "
                f"{TH_STRIPES} stripes at {p.gc_threads} threads"
            )
    flat = {scan[t].scan_speedup for t in scan if t >= TH_STRIPES}
    if len(flat) > 1:
        failures.append(
            f"teraheap: scan speedup not flat from {TH_STRIPES} threads "
            f"on: {sorted(flat)}"
        )
    wide = scan[max(scan)]
    if wide.ps_speedup <= wide.scan_speedup:
        failures.append(
            f"teraheap: at {wide.gc_threads} threads PS speedup "
            f"{wide.ps_speedup:.3f} does not exceed the capped scan "
            f"speedup {wide.scan_speedup:.3f}"
        )
    *swept, stress = by["g1"]
    for prev, p in zip(swept, swept[1:]):
        if p.hidden_share < prev.hidden_share:
            failures.append(
                f"g1: hidden share falls from {prev.hidden_share:.3f} "
                f"({prev.label}) to {p.hidden_share:.3f} ({p.label})"
            )
    if stress.hidden_s != 0.0:
        failures.append(f"g1: stress run hides {stress.hidden_s!r} s")
    return failures


SPEC = Spec(
    name="gcscale",
    description="GC-thread scaling sweep on the task-based GC engine",
    cells=cells,
    run_cell=run_series,
    check=check,
    report=report,
)
