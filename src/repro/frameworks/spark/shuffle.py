"""Shuffle: the S/D path that remains in every configuration.

Wide transformations serialize map outputs to local storage and
deserialize them on the reduce side.  The paper attributes *all* S/D time
in TeraHeap and Spark-MO to shuffling (Section 6) — TeraHeap removes
caching S/D, not shuffle S/D.
"""

from __future__ import annotations

from ...clock import Bucket
from ...runtime import JavaVM
from .conf import SparkConf

#: average serialized record size, used to count shuffle records
SHUFFLE_RECORD_BYTES = 512


class ShuffleManager:
    """Charges the serialize/spill/fetch/deserialize cycle of a shuffle."""

    #: Spark's ContextCleaner triggers a periodic full GC to reclaim
    #: lineage and shuffle state, roughly once per stage boundary
    CLEANER_GC_INTERVAL = 1

    def __init__(self, vm: JavaVM, conf: SparkConf):
        self.vm = vm
        self.conf = conf
        self.shuffles = 0
        self.bytes_shuffled = 0
        #: shuffles that hit the VM's pre-allocation backpressure stall
        self.backpressure_stalls = 0

    def shuffle(self, nbytes: int, records: int = 0) -> None:
        """One stage boundary moving ``nbytes`` of records."""
        if nbytes <= 0:
            return
        vm = self.vm
        if records <= 0:
            records = max(1, nbytes // SHUFFLE_RECORD_BYTES)
        # Shuffle buffers are a bulk allocation burst like any other:
        # under a governor emergency they must stall and shed through the
        # same pressure path the mutator uses, not sail past it.
        before = vm.alloc_stalls
        vm.stall_for_capacity(nbytes)
        if vm.alloc_stalls > before:
            self.backpressure_stalls += 1
        # Map side: serialize + spill.
        vm.serializer.charge_serialize(records, nbytes)
        device = self.conf.offheap_device
        if device is not None:
            with vm.clock.context(Bucket.SD_IO):
                device.write(nbytes)
                # Reduce side: fetch.
                device.read(nbytes)
        # Reduce side: deserialize.
        vm.serializer.charge_deserialize(records, nbytes)
        self.shuffles += 1
        self.bytes_shuffled += nbytes
        if self.shuffles % self.CLEANER_GC_INTERVAL == 0:
            # ContextCleaner full GC: cheap for TeraHeap (H2 is fenced),
            # expensive for NVM-resident heaps that must be fully scanned.
            vm.major_gc()
