"""Simulated execution clock with the paper's time breakdown.

Every component of the simulator charges its cost here.  The paper reports
execution time split into four stacks (Figures 6, 8, 12): *other* (mutator
work, including I/O wait on H2 page faults for TeraHeap), *S/D + I/O*
(serialization, deserialization and the device traffic they cause),
*minor GC* and *major GC*.

Charges carry a :class:`Bucket`.  Device models do not know why they are
being accessed, so they charge to the clock's *current context*: callers
wrap work in ``with clock.context(Bucket.MAJOR_GC): ...`` and any device
time lands in that bucket.  Sub-buckets (e.g. major-GC phases) are tracked
separately for Figure 11(b).

Parallel GC phases use the *multi-lane* extension: ``clock.parallel(n)``
opens a :class:`LaneSet` with one time lane per simulated GC worker.
Lanes advance independently while the region is open, and on exit the
mutator is charged the **critical path** — the maximum lane time — so
parallel speedup, load imbalance and steal overhead are emergent rather
than assumed.

``clock.concurrent(lanes, budget=...)`` is the overlap variant: the
lane set races mutator progress that already elapsed, so only the part
of the critical path exceeding ``budget`` lands in the pause — the
substrate for G1's concurrent marking cycle.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from functools import reduce
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Bucket(enum.Enum):
    """Top-level execution-time categories, matching the paper's stacks."""

    OTHER = "other"
    SD_IO = "sd_io"
    MINOR_GC = "minor_gc"
    MAJOR_GC = "major_gc"
    #: mutator allocation stalls under emergency backpressure — the wait
    #: a thread spends parked while the VM sheds cache and runs
    #: emergency full GCs instead of dying with an OOM
    ALLOC_STALL = "alloc_stall"


# Each member's index into ``Clock._totals``.  A plain attribute, so a
# charge indexes a list instead of hashing an Enum key in Python code;
# Bucket's own hash is left alone.
for _slot, _bucket in enumerate(Bucket):
    _bucket.slot = _slot
del _slot, _bucket


def _unknown_bucket(bucket) -> ValueError:
    return ValueError(
        f"unknown clock bucket {bucket!r}; expected a "
        f"repro.clock.Bucket member or None"
    )


class LaneSet:
    """Per-worker time lanes inside one parallel region.

    Each lane accumulates *busy* (task execution), *steal* (work-stealing
    transfer) and *overhead* (dispatch/termination protocol) seconds.
    Idle time is not advanced explicitly: a lane is idle for whatever gap
    remains between its own time and the critical path.

    ``hidden`` is filled in by :meth:`Clock.concurrent` on clean exit:
    the part of the critical path that overlapped already-elapsed
    mutator time and was therefore never charged.  Plain
    :meth:`Clock.parallel` regions leave it at 0.
    """

    __slots__ = ("num_lanes", "busy", "steal", "overhead", "hidden")

    KINDS = ("busy", "steal", "overhead")

    def __init__(self, lanes: int):
        if lanes < 1:
            raise ValueError(f"a parallel region needs >=1 lane, got {lanes}")
        self.num_lanes = lanes
        self.busy = [0.0] * lanes
        self.steal = [0.0] * lanes
        self.overhead = [0.0] * lanes
        self.hidden = 0.0

    def advance(self, lane: int, seconds: float, kind: str = "busy") -> None:
        """Move ``lane``'s local time forward by ``seconds``."""
        if seconds < 0:
            raise ValueError(f"cannot advance a lane by {seconds}")
        if kind == "busy":
            self.busy[lane] += seconds
        elif kind == "steal":
            self.steal[lane] += seconds
        elif kind == "overhead":
            self.overhead[lane] += seconds
        else:
            raise ValueError(
                f"unknown lane charge kind {kind!r}; expected one of "
                f"{self.KINDS}"
            )

    def lane_time(self, lane: int) -> float:
        return self.busy[lane] + self.steal[lane] + self.overhead[lane]

    @property
    def critical_path(self) -> float:
        """The pause the mutator observes: the slowest lane."""
        return max(self.lane_time(i) for i in range(self.num_lanes))

    def idle(self, lane: int) -> float:
        return self.critical_path - self.lane_time(lane)

    @property
    def total_idle(self) -> float:
        return sum(self.idle(i) for i in range(self.num_lanes))

    @property
    def imbalance(self) -> float:
        """Critical path over mean lane time (1.0 = perfectly balanced)."""
        total = sum(self.lane_time(i) for i in range(self.num_lanes))
        if total <= 0.0:
            return 1.0
        return self.critical_path * self.num_lanes / total


class Clock:
    """Accumulates simulated seconds per bucket and sub-bucket."""

    def __init__(self) -> None:
        #: seconds per bucket, indexed by ``Bucket.slot``
        self._totals: List[float] = [0.0] * len(Bucket)
        self._sub: Dict[str, float] = {}
        self._context: List[Bucket] = [Bucket.OTHER]
        self._sub_context: List[str] = []
        # Timeline of (simulated time, event name, duration) tuples used by
        # the Figure 7 GC-timeline experiment.
        self.events: List[Tuple[float, str, float]] = []

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    @property
    def current(self) -> Bucket:
        """Bucket that untagged charges currently land in."""
        return self._context[-1]

    @contextmanager
    def context(self, bucket: Bucket) -> Iterator[None]:
        """Route untagged charges to ``bucket`` for the duration."""
        self._context.append(bucket)
        try:
            yield
        finally:
            self._context.pop()

    @contextmanager
    def sub_context(self, name: str) -> Iterator[None]:
        """Additionally attribute charges to a named sub-bucket."""
        self._sub_context.append(name)
        try:
            yield
        finally:
            self._sub_context.pop()

    @contextmanager
    def parallel(self, lanes: int) -> Iterator[LaneSet]:
        """Open a multi-lane parallel region with ``lanes`` worker lanes.

        Lanes advance independently inside the block; on clean exit the
        clock is charged the critical path (max over lanes) in the
        current bucket/sub-bucket context.  A region aborted by an
        exception (e.g. a :class:`~repro.errors.SimulatedCrash` fired
        mid-phase) charges nothing: the phase never completed, and
        counting partially-executed lane time would skew the pre-crash
        clock that crash-recovery reconciliation compares against.
        """
        lane_set = LaneSet(lanes)
        yield lane_set
        self.charge(lane_set.critical_path)

    @contextmanager
    def concurrent(self, lanes: int, budget: float = 0.0) -> Iterator[LaneSet]:
        """Open a parallel region racing already-elapsed mutator time.

        Concurrent GC phases (G1's marking cycle) run while the
        application executes, so their cost is invisible to the mutator
        up to the mutator progress they overlap.  ``budget`` is that
        overlap window — the ``Bucket.OTHER`` seconds accrued since the
        phase conceptually started.  On clean exit only the part of the
        critical path that *outruns* the budget is charged to the
        current bucket/sub-bucket context; the hidden remainder is
        recorded on the lane set (``lane_set.hidden``) so schedulers
        can report it.  A region aborted by an exception charges
        nothing, exactly like :meth:`parallel`.
        """
        if budget < 0:
            raise ValueError(
                f"concurrent budget must be >= 0, got {budget}"
            )
        lane_set = LaneSet(lanes)
        yield lane_set
        critical = lane_set.critical_path
        lane_set.hidden = min(critical, budget)
        self.charge(critical - lane_set.hidden)

    def overlap(self, seconds: float, budget: float) -> float:
        """Charge ``seconds`` of work racing already-elapsed mutator time.

        The scalar sibling of :meth:`concurrent`, for single-lane
        overlapped work (a streaming pipeline stage running in its own
        execution slot, an asynchronous spill): up to ``budget`` seconds
        of the work hide behind mutator progress that already elapsed,
        and only the overrun is charged to the current bucket/sub-bucket
        context.  Returns the hidden share so callers can report it.
        """
        if seconds < 0:
            raise ValueError(f"cannot overlap negative time: {seconds}")
        if budget < 0:
            raise ValueError(f"overlap budget must be >= 0, got {budget}")
        hidden = min(seconds, budget)
        self.charge(seconds - hidden)
        return hidden

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, seconds: float, bucket: Optional[Bucket] = None) -> None:
        """Add ``seconds`` to ``bucket`` (default: current context)."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        try:
            slot = (self._context[-1] if bucket is None else bucket).slot
        except AttributeError:
            raise _unknown_bucket(bucket) from None
        self._totals[slot] += seconds
        if self._sub_context:
            name = self._sub_context[-1]
            self._sub[name] = self._sub.get(name, 0.0) + seconds

    def _slot(self, bucket: Optional[Bucket]) -> int:
        try:
            return (self._context[-1] if bucket is None else bucket).slot
        except AttributeError:
            raise _unknown_bucket(bucket) from None

    def charge_each(
        self, seconds: Sequence[float], bucket: Optional[Bucket] = None
    ) -> None:
        """Charge every entry of ``seconds`` in order: same totals as one
        :meth:`charge` per entry, bit for bit, sub-bucket included
        (``reduce(add, ...)`` makes sequential float adds, not a sum)."""
        slot = self._slot(bucket)
        if not seconds:
            return
        if min(seconds) < 0:
            raise ValueError(f"cannot charge negative time: {min(seconds)}")
        totals = self._totals
        totals[slot] = reduce(add, seconds, totals[slot])
        if self._sub_context:
            name = self._sub_context[-1]
            self._sub[name] = reduce(add, seconds, self._sub.get(name, 0.0))

    def charge_cycle(
        self, charges: Sequence[Tuple[float, Optional[Bucket]]], n: int
    ) -> None:
        """Make the ``(seconds, bucket)`` charges in order, ``n`` times
        over: same totals as ``n`` rounds of one :meth:`charge` per pair,
        bit for bit, sub-bucket included."""
        per_slot: Dict[int, List[float]] = {}
        for seconds, bucket in charges:
            if seconds < 0:
                raise ValueError(f"cannot charge negative time: {seconds}")
            per_slot.setdefault(self._slot(bucket), []).append(seconds)
        if n <= 0 or not per_slot:
            return
        totals = self._totals
        for slot, seconds in per_slot.items():
            totals[slot] = reduce(add, seconds * n, totals[slot])
        if self._sub_context:
            name = self._sub_context[-1]
            every = [seconds for seconds, _ in charges] * n
            self._sub[name] = reduce(add, every, self._sub.get(name, 0.0))

    def charge_repeated(
        self, seconds: float, n: int, bucket: Optional[Bucket] = None
    ) -> None:
        """Charge ``seconds`` ``n`` times, as :meth:`charge_cycle` does."""
        self.charge_cycle(((seconds, bucket),), n)

    def record_event(self, name: str, duration: float) -> None:
        """Log a timeline event (e.g. one GC cycle) at the current time."""
        self.events.append((self.now, name, duration))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Total simulated seconds elapsed."""
        return sum(self._totals)

    def total(self, bucket: Bucket) -> float:
        return self._totals[bucket.slot]

    def sub_total(self, name: str) -> float:
        return self._sub.get(name, 0.0)

    def breakdown(self) -> Dict[str, float]:
        """The paper's four-way split, keyed by bucket value."""
        return {b.value: self._totals[b.slot] for b in Bucket}

    def sub_breakdown(self) -> Dict[str, float]:
        return dict(self._sub)

    def snapshot(self) -> "ClockSnapshot":
        totals = {b: self._totals[b.slot] for b in Bucket}
        return ClockSnapshot(totals, dict(self._sub))


class ClockSnapshot:
    """Immutable copy of clock totals, used to compute deltas."""

    def __init__(self, totals: Dict[Bucket, float], sub: Dict[str, float]):
        self._totals = totals
        self._sub = sub

    def delta(self, clock: Clock) -> Dict[str, float]:
        """Per-bucket seconds elapsed on ``clock`` since this snapshot."""
        return {
            b.value: clock.total(b) - self._totals.get(b, 0.0) for b in Bucket
        }
