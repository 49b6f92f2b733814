"""Configuration objects: VM layout, collector choice, and the cost model.

The cost model constants are the calibration surface of the reproduction.
Absolute values are synthetic; they are chosen so that the *ratios* the
paper reports hold (GC + S/D dominating baseline runs, device bandwidth
ceilings, NVM latency penalties).  EXPERIMENTS.md records the resulting
paper-vs-measured comparison for every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .faults.plan import FaultConfig
from .units import GB, KiB, MB, MiB


@dataclass
class CostModel:
    """Per-operation simulated costs, in seconds / bytes-per-second.

    Values are loosely derived from the paper's testbed (Table 1): a 2.4 GHz
    Xeon, DDR4 DRAM, a Samsung PM983 NVMe SSD (2.9 GB/s read ceiling,
    Section 7.1) and Intel Optane DC PMEM (higher latency, lower bandwidth
    than DRAM, Section 7.5).  Because spatial sizes are scaled by
    ``units.SCALE``, bandwidths here are scaled identically so that
    *time ratios* match the paper's.
    """

    # --- DRAM ----------------------------------------------------------
    dram_read_bw: float = 10.0 * MiB  # bytes/s at simulation scale
    dram_latency: float = 100e-9

    # --- GC work -------------------------------------------------------
    # A simulated object is coarse: one 8 KiB chunk stands for thousands
    # of paper-scale records, so per-object GC costs are scaled up by the
    # same coarsening factor (visiting one chunk's worth of record objects
    # at ~50-100 ns each).
    #: marking/scanning one simulated object during traversal
    gc_visit_cost: float = 220e-6
    #: following one reference during traversal
    gc_ref_cost: float = 45e-6
    #: copying/compacting live data (DRAM-resident); sliding compaction
    #: only pays this for objects that actually move
    gc_copy_bw: float = 0.8 * MiB
    #: examining one card-table entry
    card_check_cost: float = 0.5e-6
    #: fixed safepoint/bring-up cost of any GC pause
    gc_pause_overhead: float = 2e-3
    #: summarising/installing one object's forwarding pointer (precompact)
    gc_forward_cost: float = 60e-6
    #: examining one root-set entry while claiming a root partition
    gc_root_scan_cost: float = 0.5e-6

    # --- GC engine (task-based parallel scheduling) ---------------------
    #: claiming one task from a worker's own deque
    gc_task_dispatch_cost: float = 0.5e-6
    #: one successful steal: CAS on the victim's deque top + cache misses
    gc_steal_cost: float = 4e-6
    #: per-worker share of the termination protocol ending a parallel
    #: phase (offer/spin rounds); single-worker phases skip it
    gc_termination_cost: float = 30e-6

    # --- Serialization (Kryo-calibrated) --------------------------------
    serialize_obj_cost: float = 0.5e-3
    serialize_bw: float = 1.2 * MiB
    deserialize_obj_cost: float = 0.8e-3
    deserialize_bw: float = 0.9 * MiB
    #: fraction of (de)serialized bytes materialised as temporary objects,
    #: pressuring the young generation (Section 2, "Object Serialization")
    sd_temp_object_ratio: float = 0.35

    # --- Mutator work ---------------------------------------------------
    #: executing application logic over one chunk-granular record batch
    mutator_op_cost: float = 80e-6
    #: allocating one simulated object (a TLAB's worth of record allocations)
    alloc_cost: float = 0.2e-3
    #: post-write barrier (card mark); the paper measures <=3% overhead
    barrier_cost: float = 1e-6
    #: extra reference-range check TeraHeap adds to the barrier (Section 4)
    teraheap_barrier_extra: float = 0.25e-6

    # --- Durability ------------------------------------------------------
    #: fsync/msync barrier: the fixed cost of forcing the device to make
    #: queued writes durable (drive cache flush), charged per commit epoch
    fsync_cost: float = 0.5e-3

    # --- Streaming execution --------------------------------------------
    #: dispatching one block through the streaming operator pipeline:
    #: block metadata, slot bookkeeping, operator hand-off.  This is the
    #: fixed per-block tax that makes streaming lose on small inputs
    #: (blocks never amortise it) and win at scale (they do)
    stream_block_dispatch_cost: float = 2e-3


#: live-occupancy fraction of H1 above which marked objects are moved
#: without waiting for h2_move() (Section 3.2).  Read by
#: :mod:`repro.teraheap.thresholds`; it lives here because this module
#: cannot import the teraheap package without a cycle.
HIGH_THRESHOLD = 0.85


@dataclass
class TeraHeapConfig:
    """TeraHeap (H2) parameters — Section 3 of the paper."""

    enabled: bool = False
    h2_size: int = 1024 * GB
    region_size: int = 16 * MB
    #: H2 card segment size (Section 3.4 / Figure 11a sweep)
    card_segment_size: int = 8 * KiB
    #: target H1 occupancy when the high threshold fires; ``None`` disables
    #: the low-threshold mechanism (Figure 9b ablation)
    low_threshold: Optional[float] = 0.50
    #: honour h2_move() transfer hints (Figure 9a ablation)
    use_move_hint: bool = True
    #: adapt the high/low thresholds to observed pressure instead of the
    #: static hand-tuned values — the paper's stated future work (§7.2)
    adaptive_thresholds: bool = False
    #: segregate large objects into their own regions per label — the
    #: paper's stated future work on size-aware H2 placement (§7.3), which
    #: stops large dead arrays pinning regions full of small live objects
    size_aware_placement: bool = False
    #: cross-region tracking policy: per-region dependency lists with
    #: direction ("deps", the paper's design) or region groups ("groups",
    #: the Section 3.3 alternative): the same edges with direction
    #: dropped, so a group is a connected component and lives whole
    region_policy: str = "deps"
    #: promotion buffer used to batch small-object writes (Section 3.2).
    #: Expressed in real bytes — one buffer comfortably spans a region.
    promotion_buffer_size: int = 2 * MiB
    #: map H2 with huge pages (HugeMap; used for Spark ML workloads, §6)
    huge_pages: bool = False
    #: use the four-state card table (clean/dirty/youngGen/oldGen); False
    #: degrades to a two-state table that rescans oldGen-only segments on
    #: every minor GC (Section 3.4 ablation)
    four_state_cards: bool = True
    #: align objects to stripes so boundary cards never stay dirty; False
    #: reproduces the vanilla JVM's sticky boundary cards (Section 3.4)
    stripe_aligned: bool = True
    #: crash-consistency writeback policy: "none" (legacy — the durable
    #: image is tracked passively, nothing extra is charged), "commit"
    #: (msync + region-header journal + superblock at the end of every
    #: major GC), or "flush" ("commit" plus an msync after every minor
    #: GC, so mutator stores to H2 become durable between commits)
    writeback_policy: str = "none"

    def __post_init__(self) -> None:
        if self.region_policy not in ("deps", "groups"):
            raise ConfigError(f"unknown region policy {self.region_policy!r}")
        if self.writeback_policy not in ("none", "commit", "flush"):
            raise ConfigError(
                f"unknown writeback policy {self.writeback_policy!r}"
            )
        if self.low_threshold is not None and not (
            0.0 < self.low_threshold < HIGH_THRESHOLD
        ):
            raise ConfigError("low_threshold must be below HIGH_THRESHOLD")
        if self.region_size <= 0 or self.h2_size % self.region_size:
            raise ConfigError("h2_size must be a multiple of region_size")


@dataclass
class GCEngineConfig:
    """Task-based parallel GC engine parameters.

    Batch sizes control task granularity: smaller batches balance better
    across workers but pay more dispatch/steal overhead.  They are fixed
    (not derived from the thread count) so a thread-scaling sweep runs
    the identical task decomposition at every point.  Steals take one
    task off the victim's deque; every lane sits on one memory node.
    """

    #: record per-task events for the chrome://tracing exporter
    trace: bool = False
    #: objects per marking/scan batch task
    scan_batch_objects: int = 24
    #: objects per copy/compaction batch task (a promotion-buffer fill)
    copy_batch_objects: int = 16
    #: objects per forwarding-pointer (precompact) batch task
    precompact_batch_objects: int = 64
    #: H1 card-table entries per sweep-chunk task
    card_chunk_cards: int = 2048

    def __post_init__(self) -> None:
        for name in (
            "scan_batch_objects",
            "copy_batch_objects",
            "precompact_batch_objects",
            "card_chunk_cards",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


@dataclass
class GovernorConfig:
    """H2 circuit-breaker probe timing (see
    :mod:`repro.teraheap.governor` for its fixed budgets and watermark).

    Lives here (not in :mod:`repro.teraheap.governor`) so it can hang off
    :class:`VMConfig` without an import cycle through the teraheap
    package.
    """

    #: initial delay before the first half-open probe (simulated seconds)
    probe_backoff: float = 5e-3
    #: cap on the delay between probes, which doubles per failed probe
    probe_backoff_max: float = 160e-3

    def __post_init__(self) -> None:
        if self.probe_backoff <= 0:
            raise ConfigError("probe backoff must grow from a positive base")
        if self.probe_backoff_max < self.probe_backoff:
            raise ConfigError("probe_backoff_max must be >= probe_backoff")


@dataclass
class PantheraConfig:
    """Panthera baseline layout (Section 7.5): young gen entirely in DRAM,
    old gen split between DRAM and NVM."""

    #: DRAM part of the old generation; the rest of it sits on NVM
    dram_old_size: int = 6 * GB


#: survivor share of the young generation, per survivor space (PS
#: default eden : survivor : survivor = 8:1:1)
SURVIVOR_FRACTION = 0.1


@dataclass
class VMConfig:
    """Top-level JVM configuration."""

    heap_size: int = 64 * GB
    #: fraction of the heap given to the young generation (PS default ~1/3)
    young_fraction: float = 1.0 / 3.0
    #: ps | ps11 | g1 | panthera | memmode (teraheap rides on ps)
    collector: str = "ps"
    gc_threads: int = 16
    #: task-based parallel GC engine (seed, trace, batch granularity)
    engine: GCEngineConfig = field(default_factory=GCEngineConfig)
    mutator_threads: int = 8
    #: H1 card segment size (vanilla JVM uses 512 B cards)
    card_segment_size: int = 512
    teraheap: TeraHeapConfig = field(default_factory=TeraHeapConfig)
    panthera: Optional[PantheraConfig] = None
    cost: CostModel = field(default_factory=CostModel)
    #: DRAM available to the OS page cache (the paper's DR2)
    page_cache_size: int = 16 * GB
    #: fault injection + H2 resilience parameters; ``None`` disables
    #: injection unless the VM's run session supplies a default
    faults: Optional[FaultConfig] = None
    #: device-health watchdog + H2 governor; ``None`` disables it
    governor: Optional[GovernorConfig] = None
    #: post-GC invariant auditing: ``None`` (off), "cheap" or "full";
    #: overridable by the ``REPRO_AUDIT`` environment variable
    audit: Optional[str] = None

    def __post_init__(self) -> None:
        if self.heap_size <= 0:
            raise ConfigError("heap_size must be positive")
        if self.audit is not None and str(self.audit).lower() not in (
            "cheap",
            "full",
        ):
            raise ConfigError(
                f"unknown audit level {self.audit!r}; "
                "expected 'cheap' or 'full'"
            )
        if not 0.0 < self.young_fraction < 1.0:
            raise ConfigError("young_fraction must be in (0, 1)")
        if self.gc_threads < 1:
            raise ConfigError("gc_threads must be >= 1")
        if self.collector not in ("ps", "ps11", "g1", "panthera", "memmode"):
            raise ConfigError(f"unknown collector {self.collector!r}")
        if self.teraheap.enabled and self.collector not in ("ps", "ps11"):
            raise ConfigError(
                "TeraHeap extends the Parallel Scavenge collector; "
                f"collector={self.collector!r} is not supported"
            )

    @property
    def young_size(self) -> int:
        return int(self.heap_size * self.young_fraction)

    @property
    def old_size(self) -> int:
        return self.heap_size - self.young_size

    @property
    def eden_size(self) -> int:
        return self.young_size - 2 * self.survivor_size

    @property
    def survivor_size(self) -> int:
        return int(self.young_size * SURVIVOR_FRACTION)
