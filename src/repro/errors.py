"""Exception hierarchy for the TeraHeap reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all simulator errors."""


class OutOfMemoryError(ReproError):
    """Raised when the managed heap cannot satisfy an allocation.

    Mirrors ``java.lang.OutOfMemoryError``: the collector ran and the
    requested allocation still does not fit.  Experiment drivers catch this
    to render the paper's "OOM" bars.  When the VM has fallen back to the
    in-H1 serialization path after H2 degradation, ``context`` carries the
    fallback description so OOM reports name the degraded configuration.
    ``heap_report`` carries the VM's diagnostic heap report (occupancy,
    H2 state, governor circuit state, backpressure counters) so a modeled
    OOM is actionable rather than a bare message.
    """

    def __init__(
        self,
        message: str,
        requested: int = 0,
        available: int = 0,
        context: str = "",
        heap_report: str = "",
    ):
        super().__init__(message)
        self.requested = requested
        self.available = available
        self.context = context
        self.heap_report = heap_report


class SegmentationFault(ReproError):
    """Raised on access to an address outside any mapped space.

    Like :class:`OutOfMemoryError`, the fault carries structured context:
    the faulting ``address`` and the ``space`` the access targeted (a
    :class:`~repro.heap.object_model.SpaceId` or ``None`` when unknown).
    A simulated SIGBUS — an I/O error surfacing through a file-backed
    mapping — additionally sets ``sigbus`` so resilience policies can
    distinguish retryable mmap faults from genuine wild accesses.
    """

    def __init__(self, message: str, address: int = -1, space=None):
        super().__init__(message)
        self.address = address
        self.space = space
        self.sigbus = False


class DeviceIOError(ReproError):
    """A device read or write failed.

    ``transient`` faults (the common NVMe/NVM case: a correctable media
    error, a timeout under load) are retryable; persistent faults are not.
    """

    def __init__(
        self,
        message: str,
        device: str = "",
        op: str = "",
        transient: bool = True,
    ):
        super().__init__(message)
        self.device = device
        self.op = op
        self.transient = transient


class DeviceFullError(DeviceIOError):
    """The device cannot satisfy an allocation (H2 region backing store).

    Always non-transient: retrying an allocation against a full device
    cannot succeed, so resilience policies count it straight against the
    failure budget instead of retrying.
    """

    def __init__(self, message: str, device: str = "", requested: int = 0):
        super().__init__(message, device=device, op="allocate", transient=False)
        self.requested = requested


class SimulatedCrash(ReproError):
    """The simulated process died at a crash safepoint.

    Raised by the fault machinery when a seed-scheduled kill fires.  All
    volatile state (DRAM heaps, H2 metadata, page-cache dirty bits) is
    lost; only the :class:`~repro.devices.durability.DurableImage` built
    by the writeback/torn-write model survives and can be handed to
    :meth:`~repro.teraheap.h2_heap.H2Heap.recover`.
    """

    def __init__(self, message: str, safepoint: str = "", op_index: int = -1):
        super().__init__(message)
        self.safepoint = safepoint
        self.op_index = op_index


class UnrecoverableCrash(ReproError):
    """The durable image left by a crash cannot be recovered.

    Carries a diff-style ``report`` (also the message) naming exactly
    what the recovery scan expected versus what the image holds — e.g. a
    torn superblock, or a manifest region with no readable header.
    """

    def __init__(self, message: str, problems=()):
        super().__init__(message)
        self.problems = list(problems)


class RetryExhausted(ReproError):
    """A job's bounded crash-restart budget ran out.

    Raised by the task-level retry driver when either the per-job restart
    budget is spent or one partition's recompute-attempt budget is — the
    latter marks the partition *poisoned* (``task`` names it) so a
    deterministic crasher fails fast instead of burning every restart on
    the same task.
    """

    def __init__(self, message: str, restarts: int = 0, task=None):
        super().__init__(message)
        self.restarts = restarts
        self.task = task


class InvariantViolation(ReproError):
    """A post-GC heap audit found inconsistent runtime state.

    ``violations`` holds the structured findings (objects with ``check``,
    ``subject``, ``expected`` and ``actual`` attributes); the message is a
    diff-style report assembled by the auditor.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class InvalidHintError(ReproError):
    """Raised on misuse of the TeraHeap hint interface."""


class ConfigError(ReproError):
    """Raised when a VM or device configuration is inconsistent."""


class SerializationError(ReproError):
    """Raised when an object graph cannot be serialized.

    Java refuses to serialize objects that are not self-contained
    serializable entities; the simulator models that with this error.
    """
