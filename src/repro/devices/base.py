"""Device abstraction: latency/bandwidth cost accounting plus traffic metrics."""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..clock import Clock


class AccessPattern(enum.Enum):
    """Access pattern hint; some devices penalise random access."""

    SEQUENTIAL = "sequential"
    RANDOM = "random"


@dataclass
class DeviceTraffic:
    """Cumulative traffic counters for one device."""

    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0

    def reset(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0

    def snapshot(self) -> "DeviceTraffic":
        return DeviceTraffic(
            self.bytes_read, self.bytes_written, self.read_ops, self.write_ops
        )

    def delta(self, earlier: "DeviceTraffic") -> "DeviceTraffic":
        return DeviceTraffic(
            self.bytes_read - earlier.bytes_read,
            self.bytes_written - earlier.bytes_written,
            self.read_ops - earlier.read_ops,
            self.write_ops - earlier.write_ops,
        )


@dataclass
class Device:
    """A memory or storage device with a simple latency + bandwidth model.

    A request of ``n`` bytes costs ``latency + n / bandwidth`` seconds,
    charged to the clock's current context bucket.  Block devices round
    requests up to page granularity — the I/O-amplification effect the
    paper highlights in Section 2.
    """

    name: str = "device"
    capacity: int = 0
    read_latency: float = 0.0
    write_latency: float = 0.0
    read_bw: float = 1.0  # bytes/s
    write_bw: float = 1.0
    #: request granularity; 1 for byte-addressable devices
    page_size: int = 1
    #: multiplier applied to latency for random access
    random_penalty: float = 1.0
    clock: Clock = field(default_factory=Clock)
    traffic: DeviceTraffic = field(default_factory=DeviceTraffic)

    # ------------------------------------------------------------------
    def rebind(self, clock: Clock) -> "Device":
        """A copy of this device charging ``clock``, with fresh counters.

        VMs rebind devices passed in from outside instead of mutating
        them, so a device instance shared across VM constructions never
        has its clock or traffic statistics hijacked by the newest VM.
        """
        clone = copy.copy(self)
        clone.clock = clock
        clone.traffic = DeviceTraffic()
        return clone

    # ------------------------------------------------------------------
    def _granular(self, nbytes: int) -> int:
        """Round a transfer up to device page granularity."""
        if self.page_size <= 1:
            return nbytes
        pages = (nbytes + self.page_size - 1) // self.page_size
        return max(pages, 1) * self.page_size

    def _transfer(
        self,
        write: bool,
        nbytes: int,
        pattern: AccessPattern,
        requests: int,
        share: float = 1.0,
    ) -> float:
        """Charge one transfer of ``nbytes`` in ``requests`` requests at
        ``share`` of the device's bandwidth; returns its cost.

        The one request body: :meth:`read` and :meth:`write` call it,
        and a device variant overrides or calls it rather than copying
        it per direction.
        """
        moved = self._granular(nbytes)
        if write:
            latency, bw = self.write_latency, self.write_bw
        else:
            latency, bw = self.read_latency, self.read_bw
        latency *= requests
        if pattern is AccessPattern.RANDOM:
            latency *= self.random_penalty
        cost = latency + moved / (bw * share)
        self.clock.charge(cost)
        traffic = self.traffic
        if write:
            traffic.bytes_written += moved
            traffic.write_ops += requests
        else:
            traffic.bytes_read += moved
            traffic.read_ops += requests
        return cost

    def read(
        self,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        requests: int = 1,
    ) -> float:
        """Charge the cost of reading ``nbytes`` in ``requests`` requests."""
        return self._transfer(False, nbytes, pattern, requests)

    def read_many(
        self,
        sizes: Sequence[int],
        pattern: AccessPattern,
        requests: Sequence[int],
    ) -> List[float]:
        """Charge one read of ``sizes[i]`` bytes in ``requests[i]``
        requests per entry, in order; returns the costs.

        The costs, clock totals and traffic equal one :meth:`read` per
        entry, bit for bit: each cost is :meth:`read`'s expression taken
        elementwise, and :meth:`Clock.charge_each` adds them left to
        right.  A class that overrides :meth:`_transfer` gets a loop over
        :meth:`read`, so its per-request cost model is kept.
        """
        if type(self)._transfer is not Device._transfer:
            read = self.read
            return [read(n, pattern, r) for n, r in zip(sizes, requests)]
        nbytes = np.asarray(sizes, dtype=np.int64)
        reqs = np.asarray(requests, dtype=np.int64)
        if self.page_size <= 1:
            moved = nbytes
        else:
            pages = np.maximum(-(-nbytes // self.page_size), 1)
            moved = pages * self.page_size
        latency = self.read_latency * reqs
        if pattern is AccessPattern.RANDOM:
            latency *= self.random_penalty
        costs = (latency + moved / self.read_bw).tolist()
        self.clock.charge_each(costs)
        self.traffic.bytes_read += int(moved.sum())
        self.traffic.read_ops += int(reqs.sum())
        return costs

    def write(
        self,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        requests: int = 1,
    ) -> float:
        """Charge the cost of writing ``nbytes`` in ``requests`` requests."""
        return self._transfer(True, nbytes, pattern, requests)

    def read_modify_write(self, nbytes: int) -> float:
        """An in-place update on a block device: read page(s), then write.

        This is the expensive pattern TeraHeap's transfer hint exists to
        avoid (Section 7.2): updating device-resident objects costs a full
        page read plus a full page write.
        """
        return self.read(nbytes, AccessPattern.RANDOM) + self.write(
            nbytes, AccessPattern.RANDOM
        )
