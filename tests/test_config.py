"""Configuration validation and derived layout sizes."""

import pytest

from repro.config import (
    HIGH_THRESHOLD,
    CostModel,
    PantheraConfig,
    TeraHeapConfig,
    VMConfig,
)
from repro.errors import ConfigError
from repro.runtime import JavaVM
from repro.units import GB, MB, KiB, gb


def test_default_layout_partitions_heap():
    cfg = VMConfig(heap_size=gb(60))
    assert cfg.young_size + cfg.old_size == cfg.heap_size
    assert cfg.eden_size + 2 * cfg.survivor_size == cfg.young_size


def test_heap_must_be_positive():
    with pytest.raises(ConfigError):
        VMConfig(heap_size=0)


def test_young_fraction_bounds():
    with pytest.raises(ConfigError):
        VMConfig(heap_size=gb(8), young_fraction=1.5)


def test_unknown_collector_rejected():
    with pytest.raises(ConfigError):
        VMConfig(heap_size=gb(8), collector="zgc")


def test_known_collectors_accepted():
    for name in ("ps", "ps11", "g1", "panthera", "memmode"):
        kwargs = {}
        if name == "panthera":
            kwargs["panthera"] = PantheraConfig()
        VMConfig(heap_size=gb(8), collector=name, **kwargs)


def test_teraheap_requires_ps_family():
    with pytest.raises(ConfigError):
        VMConfig(
            heap_size=gb(8),
            collector="g1",
            teraheap=TeraHeapConfig(enabled=True),
        )


def test_teraheap_stripe_is_region():
    th = TeraHeapConfig(enabled=True, region_size=32 * KiB, h2_size=gb(4))
    vm = JavaVM(VMConfig(heap_size=gb(1), teraheap=th))
    assert vm.h2.card_table.stripe_size == th.region_size


def test_teraheap_h2_multiple_of_region():
    with pytest.raises(ConfigError):
        TeraHeapConfig(h2_size=100 * MB + 7, region_size=16 * MB)


def test_teraheap_threshold_ordering():
    with pytest.raises(ConfigError):
        TeraHeapConfig(low_threshold=HIGH_THRESHOLD)


def test_teraheap_low_threshold_none_allowed():
    th = TeraHeapConfig(low_threshold=None)
    assert th.low_threshold is None


def test_region_policy_validation():
    with pytest.raises(ConfigError):
        TeraHeapConfig(region_policy="magic")
    for policy in ("deps", "groups"):
        assert TeraHeapConfig(region_policy=policy).region_policy == policy


def test_cost_model_defaults_sane():
    cost = CostModel()
    assert cost.gc_visit_cost > 0
    assert cost.serialize_bw > 0
    assert cost.teraheap_barrier_extra < cost.barrier_cost
    assert 0.0 < cost.sd_temp_object_ratio < 1.0


def test_panthera_split():
    p = PantheraConfig(dram_old_size=6 * GB)
    assert p.dram_old_size < VMConfig(panthera=p).old_size


def test_vm_charges_by_its_config_cost_model():
    """A VM and its collector charge by the CostModel its config carries,
    the way a calibration sweep varies it."""
    slow = CostModel(mutator_op_cost=2 * CostModel().mutator_op_cost)
    base, scaled = (
        JavaVM(VMConfig(heap_size=gb(1), cost=cost))
        for cost in (CostModel(), slow)
    )
    for vm in (base, scaled):
        vm.compute(1000)
    assert scaled.clock.now == pytest.approx(2 * base.clock.now)
    assert scaled.collector.cost is slow
