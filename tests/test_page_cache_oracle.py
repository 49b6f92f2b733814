"""The column-kept page cache against a per-page ``OrderedDict`` oracle.

``tests/helpers.py``'s :class:`ReferencePageCache` holds the LRU rules one
dict entry per page.  Random sequences of every cache operation run on
both, on devices whose writes can be made to raise, and after each
operation the two must agree on the LRU listing, membership, counters,
device traffic, clock and durable image.  Caches of 1–6 pages keep the
log small, so the sequences compact it many times.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from helpers import ReferencePageCache
from repro.clock import Clock
from repro.devices.base import AccessPattern
from repro.devices.mmap import BASE_PAGE
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache

#: pages 0..PAGES-1 are touched; a few ops reach past them to grow the columns
PAGES = 16
FAR_PAGE = 40


class FlakyWrites(NVMeSSD):
    """An SSD whose writes raise while ``failing`` is set."""

    failing = False

    def write(self, nbytes, pattern=AccessPattern.SEQUENTIAL, requests=1):
        if self.failing:
            raise OSError("injected write error")
        return super().write(nbytes, pattern, requests)


PAGE = st.one_of(st.integers(0, PAGES - 1), st.just(FAR_PAGE))
PATTERN = st.sampled_from(list(AccessPattern))
OPS = st.one_of(
    st.tuples(
        st.just("access"), st.lists(PAGE, unique=True, max_size=8),
        st.booleans(), PATTERN,
    ),
    st.tuples(
        st.just("access_many"),
        st.lists(st.tuples(st.integers(0, PAGES - 1), st.integers(0, 7)),
                 max_size=10),
        PATTERN,
    ),
    st.tuples(
        st.just("write_through"),
        st.one_of(
            st.lists(PAGE, unique=True, max_size=12).map(sorted),
            st.lists(PAGE, max_size=12),
        ),
    ),
    st.tuples(st.just("invalidate"), st.lists(PAGE, max_size=6)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("resize"), st.integers(1, 6)),
    st.tuples(st.just("fail"), st.booleans()),
)


def apply(cache, op):
    """Apply one op; returns its result or the exception it raised."""
    kind, *args = op
    try:
        if kind == "access":
            pages, write, pattern = args
            return cache.access(pages, write, pattern)
        if kind == "access_many":
            spans, pattern = args
            firsts = [first for first, _ in spans]
            stops = [first + length for first, length in spans]
            return cache.access_many(firsts, stops, pattern)
        if kind == "resize":
            return cache.resize(args[0] * BASE_PAGE)
        return getattr(cache, kind)(*args)
    except OSError as exc:
        return repr(exc)


def state(cache, clock):
    t = cache.device.traffic
    return {
        "lru": cache.lru(),
        "len": len(cache),
        "cached": [page in cache for page in range(FAR_PAGE + 2)],
        "counters": (cache.hits, cache.misses, cache.evictions,
                     cache.writebacks),
        "traffic": (t.bytes_read, t.bytes_written, t.read_ops, t.write_ops),
        "buckets": {k: v.hex() for k, v in clock.breakdown().items()},
        "durable": list(cache.durable_image.pages.items()),
    }


@given(
    cache_pages=st.integers(1, 6),
    ops=st.lists(OPS, min_size=1, max_size=30),
)
@settings(max_examples=400, deadline=None)
def test_page_cache_matches_the_ordered_dict_reference(cache_pages, ops):
    pair = []
    for make in (PageCache, ReferencePageCache):
        clock = Clock()
        pair.append((make(FlakyWrites(clock), cache_pages * BASE_PAGE), clock))
    (cache, clock), (ref, ref_clock) = pair
    # A warm-up long enough to compact the log before the random ops.
    warm_up = [("access", [page % PAGES], page % 3 == 0, AccessPattern.RANDOM)
               for page in range(3 * PAGES)]
    with mock.patch.object(
        PageCache, "_room", autospec=True, side_effect=PageCache._room
    ) as room:
        for op in warm_up + ops:
            if op[0] == "fail":
                cache.device.failing = ref.device.failing = op[1]
                continue
            if op[0] == "access_many" and cache.device.failing:
                continue  # the batch kernel is for fault-free devices
            assert apply(cache, op) == apply(ref, op), op
            assert state(cache, clock) == state(ref, ref_clock), op
    assert room.call_count > 1


def test_write_through_longer_than_the_cache_keeps_its_tail():
    """A batch of more pages than the cache holds leaves its last pages
    cached, clean, and counts every page it pushed out."""
    clock = Clock()
    cache = PageCache(NVMeSSD(clock), capacity=3 * BASE_PAGE)
    cache.access([0, 1], write=True)
    cache.flush()
    cache.write_through(range(10, 20))
    assert cache.lru() == [(17, False), (18, False), (19, False)]
    assert cache.evictions == 9
    assert cache.writebacks == 2  # the flush only
