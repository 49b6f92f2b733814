"""Deterministic, seed-driven fault plans.

A :class:`FaultPlan` decides — one pseudo-random draw per queried
operation — whether a device access, region allocation or page fault
should fail, and how.  Because the simulator issues device operations in
a deterministic order, the same seed always produces the *byte-identical*
fault schedule, which is what makes fault-injection runs reproducible and
lets tests assert on exact final clock totals.

The plan models the failure modes real NVMe/NVM deployments hit
(Section 4.2 of the paper motivates why the H2 path must survive them):

- transient read/write I/O errors (correctable media errors, timeouts);
- latency spikes (device-internal GC, thermal throttling);
- scheduled brownout windows (a co-located tenant saturating the shared
  device: service rate cut to a fraction for a stretch of simulated
  time, with region allocations denied while the window lasts);
- device-full conditions on H2 region allocation;
- SIGBUS on page faults through the H2 file mapping (an I/O error
  surfacing through the kernel's fault handler rather than a syscall);
- process crashes at named safepoints (see :meth:`FaultPlan.crash_batch_cut`).
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, fields
from random import Random
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigError

#: multiplier applied to an access's cost when a latency spike fires
LATENCY_SPIKE_MULTIPLIER = 8.0


class FaultKind(enum.Enum):
    """The injectable failure modes."""

    READ_ERROR = "read_error"
    WRITE_ERROR = "write_error"
    LATENCY_SPIKE = "latency_spike"
    BROWNOUT = "brownout"
    DEVICE_FULL = "device_full"
    SIGBUS = "sigbus"
    CRASH = "crash"


@dataclass
class FaultConfig:
    """Parameters of a fault plan plus the resilience policy around it.

    Rates are per *queried operation* probabilities in [0, 1].  Backoff
    delays are simulated seconds charged to the VM clock, so retry stalls
    show up in the paper-style execution breakdown like any other cost.
    """

    seed: int = 42
    #: independent seed for the fault/crash schedule; ``None`` derives it
    #: from ``seed`` (the workload seed), preserving the old coupling
    fault_seed: Optional[int] = None
    #: transient error probability per device read / write
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    #: latency-spike probability per device access (each spike costs
    #: ``LATENCY_SPIKE_MULTIPLIER`` times the access)
    latency_spike_rate: float = 0.0
    #: device-full probability per H2 region allocation
    device_full_rate: float = 0.0
    #: simulated-SIGBUS probability per faulting mapped access
    sigbus_rate: float = 0.0
    # --- brownout windows ----------------------------------------------
    #: scheduled windows: ``(start_s, duration_s, fraction)`` in simulated
    #: time — the chaos-soak experiment's main knob.  Every op inside a
    #: window costs ``1 / fraction`` times its normal cost, and H2 region
    #: allocations are denied while it lasts (the device is effectively
    #: unreachable for bulk placement)
    brownout_windows: Tuple[Tuple[float, float, float], ...] = ()
    # --- retry policy -------------------------------------------------
    #: total attempts (first try + retries) before an op counts as failed
    max_attempts: int = 4
    # --- degradation --------------------------------------------------
    #: failed operations (retry exhaustions + device-full denials)
    #: tolerated before H2 transfers are disabled
    failure_budget: int = 3
    # --- crash scheduling ----------------------------------------------
    #: named safepoint to kill the process at ("promotion_flush",
    #: "h2_flush", "region_metadata_update", "major_compact",
    #: "epoch_commit", "msync", "writeback"); ``None`` disables targeting
    crash_point: Optional[str] = None
    #: which visit of ``crash_point`` fires the kill (1 = first)
    crash_after: int = 1
    #: additionally, per-safepoint-visit crash probability (seed sweeps)
    crash_rate: float = 0.0
    #: task-boundary crash target: kill at the ``crash_task``-th task of
    #: the named stage (the framework visits safepoint ``task:<stage>``
    #: once per task it starts); ``None`` disables stage targeting
    crash_stage: Optional[str] = None
    #: which task visit of ``crash_stage`` fires the kill (1 = first)
    crash_task: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            rate = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{f.name} must be in [0, 1], got {rate!r}")


@dataclass
class FaultRecord:
    """One injected fault, as scheduled by the plan."""

    op_index: int
    kind: FaultKind
    device: str
    detail: str = ""

    def line(self) -> str:
        return f"{self.op_index}\t{self.kind.value}\t{self.device}\t{self.detail}"


@dataclass
class IOOutcome:
    """The plan's verdict for one device access."""

    kind: FaultKind
    multiplier: float = 1.0


class FaultPlan:
    """Seed-driven fault schedule, advanced one draw per queried op."""

    def __init__(self, config: FaultConfig):
        self.config = config
        seed = config.seed if config.fault_seed is None else config.fault_seed
        self._rng = Random(seed)
        # Crash scheduling draws from its own stream so arming (or
        # re-seeding) crashes never perturbs the I/O fault schedule.
        self._crash_rng = Random(seed ^ 0x5C4A_11ED)
        self.op_index = 0
        self.schedule: List[FaultRecord] = []
        self.injected: Dict[FaultKind, int] = {k: 0 for k in FaultKind}
        self._suspended = 0
        #: visits per crash safepoint (deterministic given the workload)
        self.safepoint_hits: Dict[str, int] = {}
        self.crashed = False
        # Brownout windows are expressed in *simulated time* (not op
        # index) so a governor that halts device traffic cannot freeze a
        # window open forever.
        self._seen_windows: set = set()

    # ------------------------------------------------------------------
    @property
    def suspended(self) -> bool:
        return self._suspended > 0

    @contextmanager
    def suspend(self) -> Iterator[None]:
        """Disable injection for a forced (already-degraded) operation.

        Suspended queries do not consume random draws, so a fallback
        re-execution never perturbs the schedule of later operations.
        """
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # ------------------------------------------------------------------
    def _record(self, kind: FaultKind, device: str, detail: str = "") -> None:
        self.injected[kind] += 1
        self.schedule.append(
            FaultRecord(self.op_index, kind, device, detail)
        )

    # ------------------------------------------------------------------
    # Brownout windows (time-based degraded service)
    # ------------------------------------------------------------------
    def _note_scheduled_windows(self, device: str, now: float) -> None:
        """Record each configured window once, when first observed open."""
        for i, (start, dur, frac) in enumerate(self.config.brownout_windows):
            if i not in self._seen_windows and start <= now < start + dur:
                self._seen_windows.add(i)
                self._record(
                    FaultKind.BROWNOUT,
                    device,
                    detail=f"window@{start:g}s+{dur:g}s x{frac:g}",
                )

    def _window_fraction(self, now: float) -> Optional[float]:
        """The service fraction of the worst window open at ``now``, or
        ``None`` when no window is open."""
        open_fractions = [
            frac
            for start, dur, frac in self.config.brownout_windows
            if start <= now < start + dur
        ]
        return max(min(open_fractions), 1e-6) if open_fractions else None

    def io_outcome(
        self, write: bool, device: str, now: float = 0.0
    ) -> Optional[IOOutcome]:
        """Verdict for one device read/write; ``None`` means no fault."""
        if self.suspended:
            return None
        cfg = self.config
        self.op_index += 1
        draw = self._rng.random()
        self._note_scheduled_windows(device, now)
        error_rate = cfg.write_error_rate if write else cfg.read_error_rate
        if draw < error_rate:
            kind = FaultKind.WRITE_ERROR if write else FaultKind.READ_ERROR
            self._record(kind, device)
            return IOOutcome(kind)
        if draw < error_rate + cfg.latency_spike_rate:
            mult = LATENCY_SPIKE_MULTIPLIER
            self._record(
                FaultKind.LATENCY_SPIKE, device, detail=f"x{mult:g}"
            )
            return IOOutcome(FaultKind.LATENCY_SPIKE, multiplier=mult)
        # An open window surcharges the op even though its draw fired
        # nothing itself.
        fraction = self._window_fraction(now)
        if fraction is not None:
            return IOOutcome(FaultKind.BROWNOUT, multiplier=1.0 / fraction)
        return None

    def allocation_fault(
        self, device: str, requested: int = 0, now: float = 0.0
    ) -> bool:
        """Should this H2 region allocation hit a device-full condition?"""
        if self.suspended:
            return False
        self.op_index += 1
        draw = self._rng.random()
        self._note_scheduled_windows(device, now)
        if draw < self.config.device_full_rate:
            self._record(
                FaultKind.DEVICE_FULL, device, detail=f"{requested}B"
            )
            return True
        if self._window_fraction(now) is not None:
            self._record(
                FaultKind.DEVICE_FULL,
                device,
                detail=f"brownout {requested}B",
            )
            return True
        return False

    def page_fault_outcome(self, device: str, address: int) -> bool:
        """Should this faulting mapped access take a simulated SIGBUS?"""
        if self.suspended:
            return False
        self.op_index += 1
        if self._rng.random() < self.config.sigbus_rate:
            self._record(FaultKind.SIGBUS, device, detail=f"{address:#x}")
            return True
        return False

    # ------------------------------------------------------------------
    # Crash scheduling (FaultKind.CRASH)
    # ------------------------------------------------------------------
    @property
    def crash_armed(self) -> bool:
        """Does the config schedule any crash?  Unarmed plans neither
        count safepoint visits nor kill at them."""
        cfg = self.config
        return (
            cfg.crash_point is not None
            or cfg.crash_stage is not None
            or cfg.crash_rate > 0.0
        )

    def crash_batch_cut(self, safepoint: str, npages: int) -> Optional[int]:
        """Should the process die at this safepoint visit — and where?

        Returns ``None`` (no crash) or the torn-write cut ``c`` in
        ``[0, npages]``: the first ``c`` pages of the in-flight batch
        land on the device; if ``c < npages`` the page at the cut is
        torn; everything after never reaches the device.  Visits are
        counted per safepoint so ``crash_point``/``crash_after`` target
        the N-th occurrence deterministically; ``crash_rate`` draws from
        the crash RNG, never the I/O stream.  Suspended queries neither
        count nor draw, mirroring :meth:`suspend`'s guarantee.
        """
        if self.suspended or self.crashed or not self.crash_armed:
            return None
        cfg = self.config
        hits = self.safepoint_hits.get(safepoint, 0) + 1
        self.safepoint_hits[safepoint] = hits
        fire = (
            cfg.crash_point == safepoint and hits == cfg.crash_after
        )
        if not fire and cfg.crash_stage is not None:
            fire = (
                safepoint == f"task:{cfg.crash_stage}"
                and hits == cfg.crash_task
            )
        if not fire and cfg.crash_rate > 0.0:
            fire = self._crash_rng.random() < cfg.crash_rate
        if not fire:
            return None
        cut = self._crash_rng.randint(0, npages)
        self.crashed = True
        self._record(
            FaultKind.CRASH,
            "process",
            detail=f"{safepoint}#{hits} cut={cut}/{npages}",
        )
        return cut

    def crash_outcome(self, safepoint: str) -> bool:
        """Non-batch safepoint: kill here?  (No pages in flight.)"""
        return self.crash_batch_cut(safepoint, 0) is not None

    # ------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def schedule_digest(self) -> str:
        """Canonical text form of the schedule, for byte-identity checks."""
        return "\n".join(record.line() for record in self.schedule)
