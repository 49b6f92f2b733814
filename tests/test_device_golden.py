"""Golden: every device class, device wrapper and the page cache's batch
writes charge exactly what they charged when this digest was pinned.

One fixed script drives each device through ``read``/``write`` (plus
``gc_read``/``gc_write`` on Memory-mode NVM) at a spread of sizes, both
access patterns and one or three requests, then one ``read_many``; and
drives a page cache through reads, dirtying writes, write-through,
metadata writes, flushes and an msync, with no crash and with a kill at
each batch-write safepoint.  The transcript records every cost as
``float.hex()``, the clock's buckets and sub-buckets, the traffic
counters, the bandwidth arbiter's totals, the resilience log, the health
monitor, the LRU state and the durable image; one sha256 pins it.
"""

import hashlib
from typing import List, Optional

from repro.clock import Bucket, Clock
from repro.devices.base import AccessPattern
from repro.devices.dram import DRAM
from repro.devices.health import DeviceHealthMonitor
from repro.devices.nvm import NVM, NVMMemoryMode
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache
from repro.errors import DeviceIOError, SimulatedCrash
from repro.faults.events import ResilienceLog
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultConfig, FaultPlan
from repro.server.arbiter import BandwidthArbiter, TenantDevice

SIZES = (0, 1, 100, 4096, 5000, 70000)
PATTERNS = (AccessPattern.SEQUENTIAL, AccessPattern.RANDOM)
REQUESTS = (1, 3)
MANY_SIZES = [0, 1, 4096, 5000, 70000, 123]
MANY_REQUESTS = [1, 3, 1, 2, 5, 1]

GOLDEN = "eef91ce72e38f74ad4a9fc7fedccb1626deebdc1f4d7de6d1427ea6b37c68290"


def _clock_lines(clock: Clock) -> List[str]:
    lines = [f"now {clock.now.hex()}"]
    lines += [f"bucket {k} {v.hex()}" for k, v in clock.breakdown().items()]
    lines += [
        f"sub {k} {v.hex()}" for k, v in sorted(clock.sub_breakdown().items())
    ]
    return lines


def _traffic_line(device) -> str:
    t = device.traffic
    return (
        f"traffic {t.bytes_read} {t.bytes_written} {t.read_ops} {t.write_ops}"
    )


def _outcome(op, *args) -> str:
    try:
        result = op(*args)
    except DeviceIOError as exc:
        return f"error {exc.op}"
    if isinstance(result, list):
        return " ".join(cost.hex() for cost in result)
    return result.hex()


def _drive(device, clock: Clock, ops) -> List[str]:
    """Every op at every size/pattern/request count, then one read_many.

    Each op charges under its own sub-bucket, writes under
    ``Bucket.SD_IO`` and reads under ``Bucket.OTHER``, so bucket routing
    is part of the transcript.  An injected I/O error is recorded in
    place of the cost.
    """
    lines = []
    for op in ops:
        bucket = Bucket.SD_IO if "write" in op else Bucket.OTHER
        with clock.context(bucket), clock.sub_context(op):
            for nbytes in SIZES:
                for pattern in PATTERNS:
                    for requests in REQUESTS:
                        text = _outcome(
                            getattr(device, op), nbytes, pattern, requests
                        )
                        lines.append(
                            f"{op} {nbytes} {pattern.value} {requests} {text}"
                        )
    with clock.sub_context("read_many"):
        for pattern in PATTERNS:
            text = _outcome(
                device.read_many, MANY_SIZES, pattern, MANY_REQUESTS
            )
            lines.append(f"read_many {text}")
    lines.append(_traffic_line(device))
    return lines + _clock_lines(clock)


def _plain_devices() -> List[str]:
    lines = []
    for cls in (NVMeSSD, NVM, DRAM):
        clock = Clock()
        lines.append(f"== {cls.__name__}")
        lines += _drive(cls(clock), clock, ("read", "write"))
        lines.append(f"rmw {cls(clock).read_modify_write(5000).hex()}")
    return lines


def _memory_mode() -> List[str]:
    lines = []
    for working_set_factor in (0, 1.1, 3, 50):
        clock = Clock()
        dev = NVMMemoryMode(clock)
        dev.working_set = int(dev.dram_cache_size * working_set_factor)
        lines.append(f"== memmode ws={dev.working_set}")
        lines += _drive(dev, clock, ("read", "write", "gc_read", "gc_write"))
    return lines


def _tenants() -> List[str]:
    clock = Clock()
    template = NVMeSSD(clock)
    arbiter = BandwidthArbiter(template.read_bw, template.write_bw)
    first = TenantDevice(template, arbiter, "t0").rebind(clock)
    second = TenantDevice(template, arbiter, "t1").rebind(clock)
    lines = ["== tenant epoch 0"]
    lines += _drive(first, clock, ("read", "write"))
    second.read(4096)
    shares = arbiter.end_epoch(0.5)
    lines.append(f"shares {sorted((k, v.hex()) for k, v in shares.items())}")
    lines.append("== tenant epoch 1")
    lines += _drive(first, clock, ("read", "write"))
    lines += _drive(second, clock, ("write",))
    lines.append(
        f"arbiter {arbiter.total_bytes} {arbiter.busy_seconds().hex()}"
    )
    return lines


def _injected(config: FaultConfig) -> List[str]:
    clock = Clock()
    log = ResilienceLog()
    monitor = DeviceHealthMonitor(clock)
    dev = FaultInjector(NVMeSSD(clock), FaultPlan(config), log, monitor)
    lines = _drive(dev, clock, ("read", "write"))
    lines.append(f"rmw {_outcome(dev.read_modify_write, 5000)}")
    lines += [repr(event) for event in log.events]
    lines.append(monitor.digest())
    lines.append(monitor.describe())
    lines.append(dev.plan.schedule_digest())
    return lines


def _faults() -> List[str]:
    lines = ["== faults error/spike"]
    lines += _injected(
        FaultConfig(
            fault_seed=7,
            read_error_rate=0.15,
            write_error_rate=0.15,
            latency_spike_rate=0.2,
        )
    )
    lines.append("== faults brownout window")
    lines += _injected(
        FaultConfig(fault_seed=11, brownout_windows=((0.001, 0.003, 0.25),))
    )
    return lines


def _cache_script(cache: PageCache) -> None:
    cache.access(range(0, 6))
    cache.access([2, 3, 9, 10], write=True, pattern=AccessPattern.RANDOM)
    cache.write_through(range(20, 25))
    cache.durable_image.stage_journal(-3, 0, "header-a")
    cache.write_metadata([-1, -3, -2], safepoint="region_metadata_update")
    cache.access(range(30, 36), write=True)
    cache.flush()
    cache.access([31, 40, 41, 42], write=True, pattern=AccessPattern.RANDOM)
    cache.write_through(range(50, 53))
    cache.durable_image.stage_journal(-5, 1, "header-b")
    cache.write_metadata([-5, -4], safepoint="region_metadata_update")
    cache.msync()
    cache.access([72, 70, 71, 61, 60], write=True)
    cache.flush()


def _page_cache(
    crash_point, crash_after: int, fault_seed: Optional[int]
) -> List[str]:
    clock = Clock()
    plan = None
    if crash_point is not None:
        plan = FaultPlan(
            FaultConfig(
                fault_seed=fault_seed,
                crash_point=crash_point,
                crash_after=crash_after,
            )
        )
    cache = PageCache(NVMeSSD(clock), 8 * 4096, fault_plan=plan)
    cache.resilience_log = ResilienceLog()
    lines = [
        f"== page cache crash={crash_point}#{crash_after} seed={fault_seed}"
    ]
    try:
        _cache_script(cache)
        lines.append("completed")
    except SimulatedCrash as exc:
        lines.append(f"crash {exc.safepoint} {exc.op_index} {exc}")
    lines.append(f"lru {cache.lru()}")
    lines.append(
        f"counters {cache.hits} {cache.misses} {cache.evictions} "
        f"{cache.writebacks}"
    )
    lines.append(_traffic_line(cache.device))
    lines += _clock_lines(clock)
    lines += [repr(event) for event in cache.resilience_log.events]
    lines.append(cache.durable_image.digest())
    lines.append(f"sync_epochs {cache.durable_image.sync_epochs}")
    return lines


def _page_caches() -> List[str]:
    lines = _page_cache(None, 1, None)
    # Each seed's crash RNG draws the torn-write cut noted beside it
    # (pages landed / pages in the batch).
    for point, after, seed in (
        ("h2_write", 1, 3),  # 5/5
        ("h2_write", 2, 11),  # 1/3
        ("writeback", 1, 3),  # 5/6
        ("writeback", 2, 0),  # 0/5
        ("writeback", 2, 5),  # 4/5
        ("msync", 1, 3),  # 2/4
        ("region_metadata_update", 1, 3),  # 2/3
        ("region_metadata_update", 2, 10),  # 1/2
    ):
        lines += _page_cache(point, after, seed)
    return lines


def transcript() -> str:
    lines = (
        _plain_devices()
        + _memory_mode()
        + _tenants()
        + _faults()
        + _page_caches()
    )
    return "\n".join(lines)


def test_device_transcript_matches_golden():
    digest = hashlib.sha256(transcript().encode()).hexdigest()
    assert digest == GOLDEN
