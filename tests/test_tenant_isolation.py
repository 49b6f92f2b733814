"""Tenant isolation: random interleavings across co-located VMs.

Property-based sweep of the multi-tenant invariants the server layer
depends on: each tenant owns a private :class:`HeapStore` (handles never
alias across stores, even through crash restarts), each tenant's
cross-incarnation timeline (:class:`repro.server.box.Tenant`) is
monotone, and every tenant's block-manager residency counters equal the
ground truth recomputed from its entries.
"""

from hypothesis import given, settings, strategies as st

from repro.config import GovernorConfig, TeraHeapConfig, VMConfig
from repro.errors import ConfigError
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.runtime import JavaVM
from repro.server.box import Tenant
from repro.units import KiB, gb

ACTIONS = ("alloc", "cache", "minor", "major", "restart")


def _make_tenant(index):
    """A restart-capable TeraHeap executor over a *private* store."""
    vm = JavaVM(
        VMConfig(
            heap_size=gb(2),
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(16),
                region_size=64 * KiB,
                promotion_buffer_size=32 * KiB,
                writeback_policy="commit",
            ),
            page_cache_size=gb(2),
            governor=GovernorConfig(),
        ),
    )
    conf = SparkConf(cache_policy=CachePolicy.TERAHEAP, num_partitions=2)
    ctx = SparkContext(vm, conf)
    tenant = Tenant(f"t{index}", index, vm, None, 0)
    return tenant, ctx


def _check_residency(ctx):
    """Block-manager counters must match a recount of the entries."""
    bm = ctx.block_manager
    recount = {"h1": 0, "h2": 0, "offheap": 0}
    for entry in bm.entries.values():
        recount[entry.charged] += entry.charged_bytes()
    assert recount["h1"] == bm.onheap_used
    assert recount["h2"] == bm.h2_bytes
    assert recount["offheap"] == bm.offheap_bytes


def _check_aliasing(tracked, ctxs):
    stores = [ctx.vm.store for ctx in ctxs]
    # Pairwise-distinct stores: retiring/restarting one tenant must
    # never fold siblings onto a shared (or the process-default) store.
    assert len({id(store) for store in stores}) == len(stores)
    for i, handles in tracked.items():
        store = stores[i]
        for obj in handles:
            assert obj._store is store
            # Canonical-handle identity within the owning store...
            assert store.handle(obj.oid) is obj
            # ...and never across a sibling's store.
            for j, other in enumerate(stores):
                if other is store:
                    continue
                if obj.oid < len(other.handles):
                    assert other.handle(obj.oid) is not obj


@given(
    tenants=st.integers(min_value=2, max_value=4),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(ACTIONS),
        ),
        min_size=1,
        max_size=24,
    ),
)
@settings(max_examples=12, deadline=None)
def test_random_interleavings_preserve_tenant_isolation(tenants, ops):
    pairs = [_make_tenant(i) for i in range(tenants)]
    boxes = [pair[0] for pair in pairs]
    ctxs = [pair[1] for pair in pairs]
    tracked = {i: [] for i in range(tenants)}
    seq = 0
    try:
        # Prime every tenant with a persisted, H2-resident block so a
        # durable image exists and restarts have state to adopt.
        for i, ctx in enumerate(ctxs):
            warm = ctx.range_rdd(32 * KiB, name=f"t{i}-warm")
            warm.persist()
            warm.evaluate()
            ctx.vm.major_gc()

        for selector, action in ops:
            i = selector % tenants
            tenant, ctx = boxes[i], ctxs[i]
            before = tenant.now
            if action == "alloc":
                obj = ctx.vm.allocate(4 * KiB, name=f"t{i}-o{seq}")
                ctx.vm.roots.add(obj)
                tracked[i].append(obj)
            elif action == "cache":
                rdd = ctx.range_rdd(32 * KiB, name=f"t{i}-r{seq}")
                rdd.persist()
                rdd.evaluate()
            elif action == "minor":
                ctx.vm.minor_gc()
            elif action == "major":
                ctx.vm.major_gc()
            elif action == "restart":
                try:
                    ctx.restart()
                except ConfigError:
                    pass  # no durable image yet: restart is a no-op
                else:
                    tenant.attach_vm(ctx.vm)
                    # The crash destroyed the incarnation's heap; its
                    # handles are dead, not transferable.
                    tracked[i] = []
            seq += 1
            # A tenant's timeline never moves backwards — not even
            # across a restart, whose successor clock starts at zero.
            assert tenant.now >= before
            _check_residency(ctx)

        _check_aliasing(tracked, ctxs)
        for ctx in ctxs:
            _check_residency(ctx)
        # Siblings' clocks are independent: stepping tenant i never
        # advanced (or rewound) anyone else's incarnation clock, which
        # the per-op monotonicity check above already pinned per tenant;
        # here we pin that every tenant still has a live, private VM.
        assert len({id(ctx.vm) for ctx in ctxs}) == tenants
    finally:
        for ctx in ctxs:
            ctx.vm.retire()
