"""GC-thread scaling: pause time and parallel efficiency, 1 to 16 threads.

Sweeps ``gc_threads`` over a deterministic allocation-churn workload and
reports, per point: GC pause totals, the emergent speedup over the
single-threaded engine schedule, parallel efficiency, and the engine's
scheduling counters (tasks, steals, per-worker idle time, imbalance).
With the task-based engine the speedup is an *output* — it comes from
critical paths over simulated worker lanes, not from a scalar divisor —
so this sweep is the direct check that parallel GC behaves: speedup must
grow with threads but stay sub-linear (termination protocol, steal
overhead, and chunky tasks all tax wide pools).

Four companion series exercise the adaptive scheduler:

- **steal policies** — the sweep runs under both ``steal-one`` and
  ``steal-half``; schedules diverge (different steal counts) while the
  total task cost stays identical, since policies only move work around.
- **TeraHeap scan cap** — a TeraHeap churn run whose H2 card-table has
  few stripes, so stripe ownership bounds H2 scan parallelism: the scan
  speedup plateaus at ``scan_parallelism`` while plain PS keeps scaling.
- **adaptive batching** — static vs feedback-controlled batch sizes at
  wide worker counts; the controller shrinks batches when imbalance
  spikes and the reported cycle imbalance drops.
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
from typing import Dict, List, Sequence, Tuple

from ..clock import Bucket
from ..config import GCEngineConfig, TeraHeapConfig, VMConfig
from ..runtime import JavaVM
from ..units import KiB, gb
from .harness import Cell, Params, Spec

#: gc_threads values of the sweep (the paper's testbed has 16 h/w threads)
SWEEP_THREADS = (1, 2, 4, 8, 16)

#: steal policies compared head-to-head
STEAL_POLICIES = ("steal-one", "steal-half")

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

#: thread counts of the adaptive-batching comparison (wide pools)
ADAPTIVE_THREADS = (8, 16)
#: experiment-local shrink threshold: low enough that the 8-worker
#: config (imbalance ~1.1 static) adapts too, not just the 16-worker one
ADAPTIVE_SHRINK_THRESHOLD = 1.08

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
    remote_steals: int
    idle_s: float
    imbalance: float
    steal_policy: str = "steal-one"
    batch_final_scale: float = 1.0
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


def churn_engine_config(
    trace: bool = False,
    steal_policy: str = "steal-one",
    adaptive: bool = False,
    numa_nodes: int = 1,
) -> GCEngineConfig:
    """Engine config of the churn sweep: finer-grained than the defaults
    so 16 lanes have enough tasks to fill."""
    return GCEngineConfig(
        trace=trace,
        scan_batch_objects=8,
        copy_batch_objects=6,
        precompact_batch_objects=24,
        card_chunk_cards=512,
        steal_policy=steal_policy,
        adaptive_batching=adaptive,
        imbalance_shrink_threshold=ADAPTIVE_SHRINK_THRESHOLD,
        numa_nodes=numa_nodes,
    )


def run_churn(
    gc_threads: int,
    batches: int = 60,
    trace: bool = False,
    steal_policy: str = "steal-one",
    adaptive: bool = False,
    numa_nodes: int = 1,
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
        engine=churn_engine_config(
            trace=trace,
            steal_policy=steal_policy,
            adaptive=adaptive,
            numa_nodes=numa_nodes,
        ),
    )
    vm = JavaVM(config)
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


def measure(vm: JavaVM, steal_policy: str = "steal-one") -> ScalingPoint:
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
    controller = stats.batch_controller_summary()
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
        remote_steals=stats.total_remote_steals(),
        idle_s=stats.total_idle(),
        imbalance=stats.mean_imbalance(),
        steal_policy=steal_policy,
        batch_final_scale=controller["final_scale"],
        worker_steals=worker_steals,
        worker_idle_s=worker_idle,
    )


def run_scaling(
    threads: Sequence[int] = SWEEP_THREADS,
    batches: int = 60,
    steal_policy: str = "steal-one",
    adaptive: bool = False,
) -> List[ScalingPoint]:
    """The sweep: one churn run per gc_threads value."""
    points = [
        run_churn(t, batches=batches, steal_policy=steal_policy,
                  adaptive=adaptive)
        for t in threads
    ]
    measured = [measure(vm, steal_policy) for vm in points]
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


def format_policy_divergence(
    by_policy: Dict[str, List[ScalingPoint]]
) -> str:
    """Side-by-side steal counts per thread count: schedules diverge,
    total task cost does not."""
    lines = [
        "thr  steals(one) steals(half)  serial(one)  serial(half)"
        "  pause(one)  pause(half)"
    ]
    one = {p.gc_threads: p for p in by_policy.get("steal-one", [])}
    half = {p.gc_threads: p for p in by_policy.get("steal-half", [])}
    for t in sorted(set(one) & set(half)):
        a, b = one[t], half[t]
        lines.append(
            f"{t:3d}  {a.steals:11d} {b.steals:12d}  {a.serial_s:11.4f}"
            f"  {b.serial_s:12.4f}  {a.total_pause_s:10.4f}"
            f"  {b.total_pause_s:11.4f}"
        )
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


def run_teraheap_churn(gc_threads: int, phases: int = TH_PHASES) -> JavaVM:
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
    vm = JavaVM(config)
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
    threads: Sequence[int] = SWEEP_THREADS, phases: int = TH_PHASES
) -> List[TeraHeapScanPoint]:
    """The TeraHeap series: H2 scan scheduling per gc_threads value."""
    points: List[TeraHeapScanPoint] = []
    for t in threads:
        vm = run_teraheap_churn(t, phases=phases)
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
# Adaptive batch sizing (static vs feedback-controlled)
# ======================================================================
@dataclass
class AdaptivePoint:
    """Static vs adaptive batching at one wide worker count."""

    gc_threads: int
    static_imbalance: float
    adaptive_imbalance: float
    static_pause_s: float
    adaptive_pause_s: float
    final_scale: float
    shrinks: int
    grows: int


def run_adaptive_comparison(
    threads: Sequence[int] = ADAPTIVE_THREADS, batches: int = 60
) -> List[AdaptivePoint]:
    points: List[AdaptivePoint] = []
    for t in threads:
        static_vm = run_churn(t, batches=batches)
        adaptive_vm = run_churn(t, batches=batches, adaptive=True)
        controller = adaptive_vm.collector.stats.batch_controller_summary()
        s_stats = static_vm.collector.stats
        a_stats = adaptive_vm.collector.stats
        points.append(
            AdaptivePoint(
                gc_threads=t,
                static_imbalance=s_stats.mean_imbalance(),
                adaptive_imbalance=a_stats.mean_imbalance(),
                static_pause_s=(
                    s_stats.total_time("minor") + s_stats.total_time("major")
                ),
                adaptive_pause_s=(
                    a_stats.total_time("minor") + a_stats.total_time("major")
                ),
                final_scale=controller["final_scale"],
                shrinks=int(controller["shrinks"]),
                grows=int(controller["grows"]),
            )
        )
    return points


def format_adaptive_points(points: List[AdaptivePoint]) -> str:
    lines = [
        "thr  imbal(static)  imbal(adaptive)  pause(static)"
        "  pause(adaptive)  scale  shrinks grows"
    ]
    for p in points:
        lines.append(
            f"{p.gc_threads:3d}  {p.static_imbalance:13.4f}"
            f"  {p.adaptive_imbalance:15.4f}  {p.static_pause_s:13.4f}"
            f"  {p.adaptive_pause_s:15.4f}  {p.final_scale:5.2f}"
            f"  {p.shrinks:7d} {p.grows:5d}"
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


def _g1_vm() -> JavaVM:
    """A G1 VM with a rooted resident set sized so each major's
    concurrent mark has real traversal work."""
    config = VMConfig(
        heap_size=gb(8),
        collector="g1",
        gc_threads=G1_GC_THREADS,
        engine=churn_engine_config(),
    )
    vm = JavaVM(config)
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


def run_g1_marking(mutator_ops: int, rounds: int = G1_ROUNDS) -> JavaVM:
    """Alternate mutator work and major GCs at a fixed intensity.

    Each round allocates a few short-lived records, runs ``mutator_ops``
    record operations (``vm.compute``), and triggers a major GC, so the
    concurrent mark of cycle N races exactly the mutator time of round N.
    """
    vm = _g1_vm()
    for i in range(rounds):
        for j in range(G1_FRESH_PER_ROUND):
            vm.allocate(OBJECT_SIZE, name=f"g1-fresh-{i}-{j}")
        if mutator_ops:
            vm.compute(mutator_ops)
        vm.major_gc()
    return vm


def run_g1_stress(majors: int = G1_STRESS_MAJORS) -> JavaVM:
    """Back-to-back majors: zero mutator progress between cycles, so the
    concurrent mark has nothing to hide behind."""
    vm = _g1_vm()
    for _ in range(majors):
        vm.major_gc()
    return vm


def g1_marking_points(
    intensities: Sequence[int] = G1_MUTATOR_INTENSITY,
    rounds: int = G1_ROUNDS,
) -> List[G1MarkingPoint]:
    """The G1 series: one point per mutator intensity, plus the
    back-to-back stress point."""
    points = [
        _measure_g1(run_g1_marking(ops, rounds=rounds), f"ops={ops}", ops)
        for ops in intensities
    ]
    points.append(_measure_g1(run_g1_stress(), "stress", 0))
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
) -> list:
    """One gcscale cell: a whole series, as its list of points."""
    if series in STEAL_POLICIES:
        return run_scaling(batches=batches, steal_policy=series)
    if series == "teraheap":
        return teraheap_scan_points(phases=phases)
    if series == "adaptive":
        return run_adaptive_comparison(batches=batches)
    return g1_marking_points(rounds=rounds)


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    batches = 24 if smoke else 60
    phases = max(4, TH_PHASES // 2) if smoke else TH_PHASES
    return [
        *[(p, dict(series=p, batches=batches)) for p in STEAL_POLICIES],
        ("teraheap", dict(series="teraheap", phases=phases)),
        ("adaptive", dict(series="adaptive", batches=batches)),
        ("g1", dict(series="g1", rounds=3 if smoke else G1_ROUNDS)),
    ]


def report(cells: List[Cell]) -> str:
    by = {cell.key: cell.result for cell in cells}
    sections = [
        (f"steal policy: {policy}", format_scaling(by[policy]))
        for policy in STEAL_POLICIES
    ]
    sections += [
        (
            "policy divergence (same work, different schedules)",
            format_policy_divergence({p: by[p] for p in STEAL_POLICIES}),
        ),
        (
            "TeraHeap: stripe ownership bounds scan parallelism",
            format_teraheap_points(by["teraheap"]),
        ),
        (
            "adaptive batch sizing (static vs controller)",
            format_adaptive_points(by["adaptive"]),
        ),
        (
            "G1 concurrent marking (hidden share vs mutator work)",
            format_g1_marking_points(by["g1"]),
        ),
    ]
    return "\n\n".join(f"== {title} ==\n{body}" for title, body in sections)


SPEC = Spec(
    name="gcscale",
    description="GC-thread scaling sweep on the task-based GC engine",
    cells=cells,
    run_cell=run_series,
    check=lambda cells: [],
    report=report,
)
