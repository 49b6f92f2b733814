"""Serialization: closure walking, costs, temp-object pressure, errors."""

import pytest

from repro.clock import Bucket, Clock
from repro.config import CostModel
from repro.errors import SerializationError
from repro.heap.object_model import HeapObject
from repro.heap.store import HeapStore
from repro.serdes.serializer import KryoSerializer


def make_serializer(temp_sink=None):
    clock = Clock()
    return KryoSerializer(clock, CostModel(), allocate_temp=temp_sink), clock


def make_graph(depth=3, fanout=2, size=512):
    store = HeapStore()

    def build(d):
        if d == 0:
            return HeapObject(size, store=store)
        return HeapObject(size, refs=[build(d - 1) for _ in range(fanout)], store=store)

    return build(depth)


def test_closure_covers_transitive_graph():
    ser, _ = make_serializer()
    root = make_graph(depth=2, fanout=2)
    assert len(ser.closure(root)) == 7  # 1 + 2 + 4


def test_closure_handles_cycles(store):
    ser, _ = make_serializer()
    a = HeapObject(64, store=store)
    b = HeapObject(64, refs=[a], store=store)
    a.refs.append(b)
    assert len(ser.closure(a)) == 2


def test_serialize_returns_blob():
    ser, clock = make_serializer()
    root = make_graph()
    blob = ser.serialize(root)
    assert blob.object_count == 15
    assert blob.size_bytes == 15 * 512
    assert clock.total(Bucket.SD_IO) > 0


def test_serialize_charges_proportionally():
    ser, clock = make_serializer()
    small = ser.serialize(make_graph(depth=1))
    t1 = clock.total(Bucket.SD_IO)
    ser.serialize(make_graph(depth=4))
    t2 = clock.total(Bucket.SD_IO) - t1
    assert t2 > t1


def test_non_serializable_object_rejected(store):
    ser, _ = make_serializer()
    bad = HeapObject(64, serializable=False, store=store)
    root = HeapObject(64, refs=[bad], store=store)
    with pytest.raises(SerializationError):
        ser.serialize(root)


def test_metadata_rejected(store):
    ser, _ = make_serializer()
    root = HeapObject(64, refs=[HeapObject(64, is_metadata=True, store=store)], store=store)
    with pytest.raises(SerializationError):
        ser.serialize(root)


def test_temp_object_pressure():
    temps = []
    ser, _ = make_serializer(temp_sink=temps.append)
    root = make_graph()
    blob = ser.serialize(root)
    assert temps and temps[0] == int(
        blob.size_bytes * ser.cost.sd_temp_object_ratio
    )
    ser.deserialize_cost(blob)
    assert len(temps) == 2


def test_deserialize_cost_charges_sd_bucket():
    ser, clock = make_serializer()
    blob = ser.serialize(make_graph())
    before = clock.total(Bucket.SD_IO)
    ser.deserialize_cost(blob)
    assert clock.total(Bucket.SD_IO) > before


def test_charge_helpers_count_traffic():
    ser, clock = make_serializer()
    ser.charge_serialize(100, 10_000)
    ser.charge_deserialize(100, 10_000)
    assert ser.objects_serialized == 100
    assert ser.bytes_deserialized == 10_000
    assert clock.total(Bucket.SD_IO) > 0
