"""DaCapo-style mutator microbenchmarks (the paper's §4 vehicle).

The paper evaluates its post-write-barrier extension on the DaCapo suite
and reports <=3% overhead *on average across all benchmarks*, and exactly
zero with ``EnableTeraHeap`` off.  This module provides synthetic mutator
profiles spanning DaCapo's behavioural range — pointer-churning,
allocation-heavy, array-streaming, and mixed read-mostly — so the barrier
benchmark can report a suite average rather than a single loop.

Each profile drives a plain :class:`~repro.runtime.JavaVM` (no frameworks)
and returns when its operation budget is spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..runtime import JavaVM
from ..units import KiB


@dataclass
class MutatorProfile:
    """One synthetic benchmark: a name and a driver function."""

    name: str
    description: str
    run: Callable[[JavaVM, int], None]


def _pointer_churn(vm: JavaVM, operations: int) -> None:
    """xalan/pmd-like: a stable object graph whose edges are rewritten
    constantly — the barrier-heaviest shape."""
    nodes = [vm.allocate(192, name=f"node-{i}") for i in range(128)]
    holder = vm.allocate(2048, refs=nodes, name="graph")
    vm.roots.add(holder)
    for i in range(operations):
        src = nodes[(i * 31) % len(nodes)]
        dst = nodes[(i * 17 + 5) % len(nodes)]
        vm.write_ref(src, dst, remove=src.refs[0] if src.refs else None)
        vm.compute(1)
    vm.roots.remove(holder)


def _allocation_heavy(vm: JavaVM, operations: int) -> None:
    """h2/jython-like: rapid short-lived allocation with a small live set."""
    survivors: List = []
    anchor = vm.allocate(1024, name="anchor")
    vm.roots.add(anchor)
    for i in range(operations):
        obj = vm.allocate(96 + (i % 7) * 32)
        if i % 64 == 0:
            vm.write_ref(anchor, obj, remove=(
                anchor.refs[0] if len(anchor.refs) > 8 else None
            ))
        vm.compute(1)
    vm.roots.remove(anchor)


def _array_streaming(vm: JavaVM, operations: int) -> None:
    """sunflow/lusearch-like: big arrays written and scanned in order,
    few reference stores."""
    buffers = [vm.allocate(8 * KiB, name=f"buf-{i}") for i in range(16)]
    holder = vm.allocate(256, refs=buffers, name="buffers")
    vm.roots.add(holder)
    for i in range(operations):
        vm.read_object(buffers[i % len(buffers)])
        if i % 128 == 0:
            vm.write_ref(holder, buffers[i % len(buffers)])
        vm.compute(2)
    vm.roots.remove(holder)


def _read_mostly(vm: JavaVM, operations: int) -> None:
    """luindex-like: traversals over a static index with rare updates."""
    leaves = [vm.allocate(256) for _ in range(64)]
    inner = [
        vm.allocate(128, refs=leaves[i * 8 : (i + 1) * 8]) for i in range(8)
    ]
    root = vm.allocate(128, refs=inner, name="index")
    vm.roots.add(root)
    for i in range(operations):
        vm.read_object(inner[i % len(inner)])
        vm.read_object(leaves[(i * 13) % len(leaves)])
        if i % 256 == 0:
            vm.write_ref(inner[i % len(inner)], leaves[i % len(leaves)])
        vm.compute(1)
    vm.roots.remove(root)


#: the suite, keyed like DaCapo's benchmark names would be
DACAPO_PROFILES: Dict[str, MutatorProfile] = {
    "xalan": MutatorProfile(
        "xalan", "pointer-churning transform pipeline", _pointer_churn
    ),
    "h2": MutatorProfile(
        "h2", "allocation-heavy transactional workload", _allocation_heavy
    ),
    "sunflow": MutatorProfile(
        "sunflow", "array-streaming renderer", _array_streaming
    ),
    "luindex": MutatorProfile(
        "luindex", "read-mostly index traversal", _read_mostly
    ),
}
