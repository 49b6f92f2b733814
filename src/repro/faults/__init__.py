"""Fault injection and H2 I/O resilience.

The package has four layers:

- :mod:`~repro.faults.plan` — deterministic seed-driven fault schedules
  (:class:`FaultPlan` / :class:`FaultConfig`);
- :mod:`~repro.faults.injector` — the :class:`FaultInjector` device proxy
  that makes every device in the H2 stack participate;
- :mod:`~repro.faults.policy` — :class:`RetryPolicy` (bounded backoff)
  and :class:`ResiliencePolicy` (failure budget + graceful degradation);
- :mod:`~repro.faults.session` — :class:`RunSession`, one run's
  ``--faults``/``--audit`` defaults and the summary of what they armed.
"""

from __future__ import annotations

from .events import (
    AdoptionEvent,
    CrashEvent,
    DegradationEvent,
    FaultEvent,
    RecoveryEvent,
    ResilienceLog,
    RestartEvent,
    RetryEvent,
)
from .injector import FaultInjector
from .plan import FaultConfig, FaultKind, FaultPlan, FaultRecord, IOOutcome
from .policy import ResiliencePolicy, RetryPolicy, is_transient
from .session import RunSession

__all__ = [
    "FaultConfig",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "IOOutcome",
    "FaultInjector",
    "FaultEvent",
    "RetryEvent",
    "DegradationEvent",
    "CrashEvent",
    "RecoveryEvent",
    "RestartEvent",
    "AdoptionEvent",
    "ResilienceLog",
    "RetryPolicy",
    "ResiliencePolicy",
    "is_transient",
    "RunSession",
]
