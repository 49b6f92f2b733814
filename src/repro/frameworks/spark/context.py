"""The Spark executor context: entry point for workloads."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ...devices.base import AccessPattern
from ...devices.durability import image_of
from ...errors import ConfigError, SimulatedCrash
from ...faults.events import CrashEvent, RestartEvent
from ...runtime import JavaVM
from ...units import KiB
from .block_manager import BlockManager
from .conf import CachePolicy, SparkConf
from .rdd import RDD, MaterializedPartition, make_partitions
from .recovery import RestartReport
from .shuffle import ShuffleManager


class SparkContext:
    """One executor's view of mini-Spark.

    The context is *driver-side* state: the RDD graph (with its lineage
    records), the configuration, and a handle to the executor VM.  An
    executor crash destroys the VM but not the context, so
    :meth:`restart` can construct a successor VM over the crashed
    process's durable H2 image and carry on — cached blocks that
    survived recovery are re-adopted, everything else recomputes from
    lineage.
    """

    def __init__(self, vm: JavaVM, conf: Optional[SparkConf] = None):
        self.vm = vm
        self.conf = conf or SparkConf()
        self.block_manager = BlockManager(vm, self.conf)
        self.shuffle_manager = ShuffleManager(vm, self.conf)
        self._rdd_counter = 0
        #: driver-side RDD registry: lineage records resolve parents here
        self._rdds: Dict[int, RDD] = {}
        #: stack frame of the executing task batch; while set, partitions
        #: materialised by tasks stay pinned until the whole batch retires
        #: (8 concurrent tasks each hold their input partition)
        self.batch_frame = None
        #: executor incarnation (bumped by every successful restart)
        self.incarnation = 1
        #: RDD-registry generation: bumped by every restart, stamped on
        #: RDDs at registration and folded into their H2 block labels —
        #: so an RDD graph rebuilt after a crash can never produce a
        #: label that collides with a dead incarnation's stale blocks
        self.registry_generation = 1
        #: the (stage, partition) of the task in flight, for the retry
        #: driver's poisoned-partition accounting
        self.current_task: Optional[Tuple[str, int]] = None

    def next_rdd_id(self) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    def register_rdd(self, rdd: RDD) -> None:
        rdd.generation = self.registry_generation
        self._rdds[rdd.rdd_id] = rdd

    def rdd(self, rdd_id: int) -> RDD:
        return self._rdds[rdd_id]

    # ------------------------------------------------------------------
    # RDD constructors
    # ------------------------------------------------------------------
    def range_rdd(
        self,
        total_bytes: int,
        chunk_size: int = 8 * KiB,
        compute_ops_per_chunk: int = 64,
        name: str = "",
        scan_factor: float = 1.0,
    ) -> RDD:
        """A source RDD of ``total_bytes`` split across the partitions."""
        parts = make_partitions(
            total_bytes, self.conf.num_partitions, chunk_size, scan_factor
        )
        return RDD(
            self,
            parts,
            compute_ops_per_chunk=compute_ops_per_chunk,
            name=name,
        )

    # ------------------------------------------------------------------
    # Task boundaries (crash safepoints)
    # ------------------------------------------------------------------
    def task_start(self, rdd: RDD, index: int) -> None:
        """A task is about to run: visit the ``task:<stage>`` safepoint.

        The fault plan counts visits per stage, so a schedule of "crash
        at task N of stage S" (``FaultConfig.crash_stage``/``crash_task``)
        kills the executor mid-stage deterministically — after N-1 tasks
        of that stage completed, before the N-th does any work.
        """
        self.current_task = (rdd.name, index)
        resilience = self.vm.resilience
        if resilience is None:
            return
        plan = resilience.plan
        safepoint = f"task:{rdd.name}"
        if plan.crash_outcome(safepoint):
            resilience.log.record(
                CrashEvent(
                    self.vm.clock.now,
                    safepoint,
                    f"task {index} of stage {rdd.name}",
                )
            )
            raise SimulatedCrash(
                f"simulated kill at task {index} of stage {rdd.name!r}",
                safepoint=safepoint,
                op_index=plan.op_index,
            )

    def task_end(self) -> None:
        self.current_task = None

    # ------------------------------------------------------------------
    # Crash restart
    # ------------------------------------------------------------------
    def restart(
        self,
        fault=None,
        image=None,
    ) -> RestartReport:
        """Replace a dead executor VM with a successor over its image.

        The crashed VM is retired (pressure handlers and health listeners
        dropped — nothing of the dead incarnation may drive the new one),
        a successor :class:`JavaVM` is built from the same config, the
        durable H2 image is recovered into it, and a rebuilt
        :class:`BlockManager` re-adopts every persisted block whose label
        survived recovery — validating quarantine status and partition
        shape; blocks that fail go back to lineage recompute.

        ``fault`` overrides the successor's fault config; by default the
        crashed schedule's targeted kill (``crash_point``/``crash_stage``)
        is cleared — it already fired — while ``crash_rate`` sweeps keep
        rolling the dice, which is what bounded-restart retry policies
        are for.  May raise :class:`UnrecoverableCrash` if the image's
        superblock or a manifest region header is unreadable.
        """
        old = self.vm
        if old.h2 is None:
            raise ConfigError("restart() requires a TeraHeap executor VM")
        if image is None:
            image = image_of(old.h2.mapping)
        if image is None:
            raise ConfigError("no durable image to restart from")
        if fault is None and old.config.faults is not None:
            fault = dataclasses.replace(
                old.config.faults, crash_point=None, crash_stage=None
            )
        config = dataclasses.replace(old.config, faults=fault)
        # A *shared* device-health monitor outlives any one tenant — the
        # device's physical condition does not reset because one of its
        # consumers died — so the successor re-subscribes to the same
        # monitor.  A VM-owned monitor stays per-incarnation (fresh, zero
        # observations), which restart's contract promises.
        shared_health = old.health if not old._owns_health else None
        old.retire()
        # The successor gets a fresh store (the crash destroyed the
        # process's heap) and keeps its predecessor's run session.
        successor = JavaVM(
            config, health=shared_health, session=old.session
        )
        if old.resilience is not None and successor.resilience is not None:
            # Keep the incident history (the crash itself, the faults
            # leading up to it) continuous across the incarnation change.
            successor.resilience.log.absorb(old.resilience.log)
            session = old.session
            if session is not None and session.tracks(old.resilience):
                # The moved events stay in the run's summary, even when
                # ``fault`` gave the successor its own fault config.
                session.track_policy(successor.resilience)
        report = successor.recover_h2(image)
        self.vm = successor
        self.incarnation += 1
        self.batch_frame = None
        self.current_task = None
        self.block_manager = BlockManager(successor, self.conf)
        self.shuffle_manager = ShuffleManager(successor, self.conf)
        restart_report = RestartReport(
            incarnation=self.incarnation, recovery=report
        )
        log = (
            successor.resilience.log
            if successor.resilience is not None
            else None
        )
        if log is not None:
            log.record(
                RestartEvent(
                    successor.clock.now,
                    self.incarnation,
                    f"recovered {report.regions_recovered} regions, "
                    f"{report.regions_quarantined} quarantined",
                )
            )
        successor.clock.record_event("restart", 0.0)
        # Map quarantined regions back to the block labels they carried.
        quarantined_labels: Dict[str, str] = {}
        for region_index, reason in sorted(report.quarantined.items()):
            for entry in image.journal_entries(region_index):
                label = getattr(entry, "label", "")
                if label:
                    quarantined_labels.setdefault(label, reason)
        if self.conf.cache_policy is CachePolicy.TERAHEAP:
            for rdd_id in sorted(self._rdds):
                rdd = self._rdds[rdd_id]
                if not rdd.persisted:
                    continue
                for spec in rdd.partitions:
                    outcome = self.block_manager.adopt_recovered(
                        rdd, spec, quarantined_labels
                    )
                    restart_report.note(rdd.block_label(spec.index), outcome)
        # Surviving RDDs adopted under their original labels above; any
        # RDD registered from here on belongs to the new generation, so
        # its labels cannot collide with stale blocks of the old one.
        self.registry_generation = self.incarnation
        return restart_report

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def read_partition(
        self,
        part: MaterializedPartition,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> None:
        """Mutator reads every chunk of a partition (H2-aware)."""
        self.vm.read_objects(part.chunks, pattern)

    def shuffle(self, nbytes: int, records: int = 0) -> None:
        self.shuffle_manager.shuffle(nbytes, records)
