"""TeraHeap reproduction (ASPLOS 2023, Kolokasis et al.).

A discrete-cost simulation of a managed runtime with TeraHeap's dual-heap
design implemented algorithm-for-algorithm, plus mini-Spark and
mini-Giraph frameworks and the paper's full benchmark harness.

Quickstart::

    from repro import JavaVM, VMConfig, TeraHeapConfig, gb

    config = VMConfig(
        heap_size=gb(32),
        teraheap=TeraHeapConfig(enabled=True, h2_size=gb(256)),
    )
    vm = JavaVM(config)
    root = vm.allocate(4096, name="partition-0")
    vm.roots.add(root)
    vm.h2_tag_root(root, "rdd-0")
    vm.h2_move("rdd-0")
    vm.major_gc()          # root's closure now lives in H2
    print(vm.breakdown())  # the paper's execution-time split
"""

from .clock import Bucket, Clock
from .config import (
    CostModel,
    PantheraConfig,
    TeraHeapConfig,
    VMConfig,
)
from .errors import (
    ConfigError,
    DeviceFullError,
    DeviceIOError,
    InvalidHintError,
    InvariantViolation,
    OutOfMemoryError,
    ReproError,
    RetryExhausted,
    SegmentationFault,
    SerializationError,
    SimulatedCrash,
    UnrecoverableCrash,
)
from .faults import FaultConfig, FaultInjector, FaultKind, FaultPlan
from .faults.policy import ResiliencePolicy, RetryPolicy
from .heap.audit import AuditLevel, HeapAuditor, Violation
from .heap.object_model import HeapObject, SpaceId
from .runtime import JavaVM
from .units import GB, MB, TB, gb, mb

__version__ = "1.0.0"

__all__ = [
    "AuditLevel",
    "Bucket",
    "Clock",
    "ConfigError",
    "CostModel",
    "DeviceFullError",
    "DeviceIOError",
    "FaultConfig",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "GB",
    "HeapAuditor",
    "HeapObject",
    "InvalidHintError",
    "InvariantViolation",
    "JavaVM",
    "MB",
    "OutOfMemoryError",
    "PantheraConfig",
    "ReproError",
    "ResiliencePolicy",
    "RetryExhausted",
    "RetryPolicy",
    "SegmentationFault",
    "SerializationError",
    "SimulatedCrash",
    "SpaceId",
    "TB",
    "TeraHeapConfig",
    "UnrecoverableCrash",
    "VMConfig",
    "Violation",
    "gb",
    "mb",
]
