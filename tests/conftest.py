"""Shared fixtures: small VMs, devices and object-graph helpers."""

from __future__ import annotations

import pytest

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.clock import Clock
from repro.devices.nvme import NVMeSSD
from repro.heap.store import HeapStore
from repro.units import KiB


@pytest.fixture(autouse=True)
def _audit_integration_tests(request, monkeypatch):
    """Run the cheap post-GC auditor inside the integration tests.

    Every VM those tests build verifies space/region accounting and
    address-map bijectivity after each GC cycle, so a regression that
    corrupts heap metadata fails loudly instead of skewing results.
    """
    if request.node.path.name == "test_integration.py":
        monkeypatch.setenv("REPRO_AUDIT", "cheap")


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def store():
    """A fresh object store for handles built outside any VM."""
    return HeapStore()


@pytest.fixture
def nvme(clock):
    return NVMeSSD(clock)


@pytest.fixture
def vm():
    """A plain PS-collected VM with a small heap."""
    return JavaVM(VMConfig(heap_size=gb(8), page_cache_size=gb(4)))


@pytest.fixture
def th_vm():
    """A TeraHeap-enabled VM with small H2 regions."""
    config = VMConfig(
        heap_size=gb(8),
        teraheap=TeraHeapConfig(
            enabled=True, h2_size=gb(64), region_size=16 * KiB
        ),
        page_cache_size=gb(4),
    )
    return JavaVM(config)


from helpers import make_group


@pytest.fixture
def group_factory():
    return make_group
