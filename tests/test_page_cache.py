"""Page cache: LRU behaviour, writeback, write-through, invalidation."""

import pytest

from repro.clock import Clock
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache, _count_runs


@pytest.fixture
def cache():
    clock = Clock()
    device = NVMeSSD(clock)
    return PageCache(device, capacity=16 * 4096), device


def test_miss_then_hit(cache):
    pc, dev = cache
    hits, misses = pc.access([1, 2, 3])
    assert (hits, misses) == (0, 3)
    hits, misses = pc.access([1, 2, 3])
    assert (hits, misses) == (3, 0)


def test_miss_reads_device(cache):
    pc, dev = cache
    pc.access([1, 2])
    assert dev.traffic.bytes_read == 2 * 4096


def test_hit_ratio(cache):
    pc, _ = cache
    pc.access([1])
    pc.access([1])
    assert pc.hit_ratio == pytest.approx(0.5)


def test_lru_eviction(cache):
    pc, _ = cache
    pc.access(range(16))
    pc.access([100])  # evicts page 0
    assert 0 not in pc
    assert 100 in pc
    assert pc.evictions == 1


def test_lru_touch_prevents_eviction(cache):
    pc, _ = cache
    pc.access(range(16))
    pc.access([0])  # refresh page 0
    pc.access([100])  # evicts page 1, not 0
    assert 0 in pc
    assert 1 not in pc


def test_dirty_eviction_writes_back(cache):
    pc, dev = cache
    pc.access([0], write=True)
    pc.access(range(1, 17))  # push page 0 out
    assert pc.writebacks == 1
    assert dev.traffic.bytes_written == 4096


def test_clean_eviction_no_writeback(cache):
    pc, dev = cache
    pc.access([0])
    pc.access(range(1, 17))
    assert dev.traffic.bytes_written == 0


def test_write_through_populates_clean(cache):
    pc, dev = cache
    pc.write_through([5, 6])
    assert dev.traffic.bytes_written == 2 * 4096
    # Now resident and clean: reading hits, evicting writes nothing more.
    hits, misses = pc.access([5, 6])
    assert (hits, misses) == (2, 0)


def test_invalidate_drops_without_writeback(cache):
    pc, dev = cache
    pc.access([7], write=True)
    pc.invalidate([7])
    assert 7 not in pc
    assert dev.traffic.bytes_written == 0


def test_flush_writes_all_dirty(cache):
    pc, dev = cache
    pc.access([1, 2], write=True)
    pc.access([3])
    flushed = pc.flush()
    assert flushed == 2
    assert dev.traffic.bytes_written == 2 * 4096
    assert pc.flush() == 0  # now clean


def test_capacity_must_hold_a_page():
    with pytest.raises(ValueError):
        PageCache(NVMeSSD(Clock()), capacity=100)


def test_count_runs():
    assert _count_runs([1, 2, 3]) == 1
    assert _count_runs([1, 3, 5]) == 3
    assert _count_runs([1, 2, 5, 6, 9]) == 3
    assert _count_runs([]) == 1


def test_failed_writeback_stops_the_inserts_after_it():
    """A miss's insert evicts before the next miss is inserted, so a
    writeback that raises leaves the later misses uncached (a retry
    faults them in again) and the hit/miss counters untouched."""

    class FailingWrites(NVMeSSD):
        def write(self, nbytes, pattern=None, requests=1):
            raise OSError("injected write error")

    pc = PageCache(FailingWrites(Clock()), capacity=2 * 4096)
    pc.access([0, 1], write=True)
    with pytest.raises(OSError):
        pc.access([10, 11, 12])
    assert list(pc._pages.items()) == [(1, True), (10, False)]
    assert (pc.hits, pc.misses, pc.evictions, pc.writebacks) == (0, 2, 1, 1)
