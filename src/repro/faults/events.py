"""Structured resilience events: faults seen, retries spent, degradations.

Everything the fault/retry/degradation machinery does is logged here so
experiment reports can assert statements like "N faults injected, M ops
retried, K degraded, 0 invariant violations" (the acceptance shape of a
resilient run).

Every event class names its kind (``event``) and renders itself: the
resilience CSV's last three cells (``cells``) and a Chrome-trace
instant's name and arguments (``instant``).  Device-health and governor
transitions (:class:`~repro.devices.health.HealthTransition`,
:class:`~repro.teraheap.governor.CircuitTransition`) follow the same
shape and go into the log as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Tuple, Type, TypeVar

#: the event kinds, in the order the CSV groups them and trace ties break
KINDS = (
    "fault",
    "retry",
    "health",
    "circuit",
    "degradation",
    "crash",
    "recovery",
    "restart",
    "adoption",
)
_RANK = {kind: rank for rank, kind in enumerate(KINDS)}

E = TypeVar("E")


@dataclass
class FaultEvent:
    """One fault observed at a device or mapping boundary."""

    event: ClassVar[str] = "fault"

    time: float
    device: str
    op: str
    kind: str
    detail: str = ""

    def cells(self) -> Tuple[Any, Any, Any]:
        return self.device, self.kind, self.detail

    def instant(self) -> Tuple[str, Dict[str, Any]]:
        return f"fault:{self.kind}", {
            "device": self.device, "op": self.op, "detail": self.detail
        }


@dataclass
class RetryEvent:
    """One completed retry loop around an H2 operation.

    ``reason`` names why an unsuccessful loop gave up: ``"attempts"``
    (max_attempts reached).  Successful loops leave it empty.
    """

    event: ClassVar[str] = "retry"

    time: float
    op: str
    attempts: int
    delay: float
    success: bool
    reason: str = ""

    def cells(self) -> Tuple[Any, Any, Any]:
        kind = "success" if self.success else "exhausted"
        if not self.success and self.reason:
            kind = f"exhausted:{self.reason}"
        return (
            self.op,
            kind,
            f"attempts={self.attempts} backoff={self.delay:.6f}",
        )

    def instant(self) -> Tuple[str, Dict[str, Any]]:
        return "retry", {
            "op": self.op,
            "attempts": self.attempts,
            "delay_s": self.delay,
            "success": self.success,
        }


@dataclass
class DegradationEvent:
    """H2 transfers were disabled after the failure budget ran out."""

    event: ClassVar[str] = "degradation"

    time: float
    reason: str
    failures: int

    def cells(self) -> Tuple[Any, Any, Any]:
        return "h2", f"failures={self.failures}", self.reason

    def instant(self) -> Tuple[str, Dict[str, Any]]:
        return "degradation", {
            "reason": self.reason, "failures": self.failures
        }


@dataclass
class CrashEvent:
    """The simulated process was killed at a crash safepoint."""

    event: ClassVar[str] = "crash"

    time: float
    safepoint: str
    detail: str = ""

    def cells(self) -> Tuple[Any, Any, Any]:
        return "process", self.safepoint, self.detail

    def instant(self) -> Tuple[str, Dict[str, Any]]:
        return f"crash:{self.safepoint}", {"detail": self.detail}


@dataclass
class RecoveryEvent:
    """An H2 image was recovered after a crash."""

    event: ClassVar[str] = "recovery"

    time: float
    recovered: int
    quarantined: int
    detail: str = ""

    def cells(self) -> Tuple[Any, Any, Any]:
        return (
            "h2",
            f"recovered={self.recovered} quarantined={self.quarantined}",
            self.detail,
        )

    def instant(self) -> Tuple[str, Dict[str, Any]]:
        return "recovery", {
            "recovered": self.recovered,
            "quarantined": self.quarantined,
            "detail": self.detail,
        }


@dataclass
class RestartEvent:
    """A successor VM took over a crashed executor's durable image."""

    event: ClassVar[str] = "restart"

    time: float
    incarnation: int
    detail: str = ""

    def cells(self) -> Tuple[Any, Any, Any]:
        return "executor", f"incarnation={self.incarnation}", self.detail

    def instant(self) -> Tuple[str, Dict[str, Any]]:
        return "restart", {
            "incarnation": self.incarnation, "detail": self.detail
        }


@dataclass
class AdoptionEvent:
    """One cached block's fate across a crash-restart boundary.

    ``outcome`` is ``"adopted"`` (the block's H2 label survived recovery
    and the rebuilt block manager re-linked it), ``"quarantined"`` (a
    region under its label was quarantined — the block is lost),
    ``"lost"`` (no recovered regions carried its label at all), or
    ``"recomputed"`` (a lost/dropped block was rebuilt from lineage).
    """

    event: ClassVar[str] = "adoption"

    time: float
    label: str
    outcome: str
    detail: str = ""

    def cells(self) -> Tuple[Any, Any, Any]:
        return self.label, self.outcome, self.detail

    def instant(self) -> Tuple[str, Dict[str, Any]]:
        return f"adoption:{self.outcome}", {
            "label": self.label, "detail": self.detail
        }


class ResilienceLog:
    """One VM's resilience events, in record order.

    Readers pick one kind with :meth:`of`; exporters walk
    :meth:`grouped`, which orders the stream by kind as ``KINDS`` lists.
    """

    def __init__(self) -> None:
        self.events: List[Any] = []

    def record(self, event: Any) -> None:
        """Append one event: any class here, a device-health
        :class:`~repro.devices.health.HealthTransition` or a governor
        :class:`~repro.teraheap.governor.CircuitTransition`."""
        self.events.append(event)

    def of(self, kind: Type[E]) -> List[E]:
        """The ``kind`` events, in record order."""
        return [event for event in self.events if isinstance(event, kind)]

    def grouped(self) -> List[Any]:
        """The events grouped by kind in ``KINDS`` order, each kind in
        record order."""
        return sorted(self.events, key=lambda event: _RANK[event.event])

    def absorb(self, other: "ResilienceLog") -> None:
        """Move a predecessor incarnation's history to the front of this log.

        A successor VM starts with an empty log; absorbing the crashed
        VM's log keeps the incident record (the crash event itself, any
        faults and retries that led up to it) continuous across the
        restart, so reports and traces tell the whole story.  ``other``
        is left empty, so a run summary over both logs counts each event
        once.
        """
        self.events[:0] = other.events
        other.events.clear()

    # ------------------------------------------------------------------
    @property
    def faults_seen(self) -> int:
        return len(self.of(FaultEvent))

    @property
    def ops_retried(self) -> int:
        return sum(1 for r in self.of(RetryEvent) if r.success)

    @property
    def retry_exhaustions(self) -> int:
        return sum(1 for r in self.of(RetryEvent) if not r.success)

    @property
    def degraded_count(self) -> int:
        return len(self.of(DegradationEvent))

    @property
    def crash_count(self) -> int:
        return len(self.of(CrashEvent))

    @property
    def recovery_count(self) -> int:
        return len(self.of(RecoveryEvent))

    @property
    def restart_count(self) -> int:
        return len(self.of(RestartEvent))

    def adoption_count(self, outcome: str) -> int:
        return sum(1 for a in self.of(AdoptionEvent) if a.outcome == outcome)

    @property
    def regions_recovered(self) -> int:
        return sum(r.recovered for r in self.of(RecoveryEvent))

    @property
    def regions_quarantined(self) -> int:
        return sum(r.quarantined for r in self.of(RecoveryEvent))

    @property
    def health_transitions(self) -> int:
        return sum(1 for e in self.events if e.event == "health")

    @property
    def circuit_transitions(self) -> int:
        return sum(1 for e in self.events if e.event == "circuit")

    def summary(self) -> Dict[str, float]:
        """Flat counters, ready to merge into an experiment result."""
        return {
            "faults_seen": float(self.faults_seen),
            "ops_retried": float(self.ops_retried),
            "retry_exhaustions": float(self.retry_exhaustions),
            "degradations": float(self.degraded_count),
            "backoff_seconds": sum(r.delay for r in self.of(RetryEvent)),
            "crashes": float(self.crash_count),
            "recoveries": float(self.recovery_count),
            "restarts": float(self.restart_count),
            "regions_recovered": float(self.regions_recovered),
            "regions_quarantined": float(self.regions_quarantined),
            "blocks_adopted": float(self.adoption_count("adopted")),
            "blocks_quarantined": float(self.adoption_count("quarantined")),
            "blocks_lost": float(self.adoption_count("lost")),
            "blocks_recomputed": float(self.adoption_count("recomputed")),
            "health_transitions": float(self.health_transitions),
            "circuit_transitions": float(self.circuit_transitions),
        }
