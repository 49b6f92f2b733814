"""The hint interface and the high/low threshold policy (Section 3.2)."""

import pytest

from repro.config import TeraHeapConfig
from repro.errors import ConfigError, InvalidHintError
from repro.heap.object_model import HeapObject, SpaceId
from repro.teraheap.hints import HintInterface
from repro.teraheap.thresholds import ThresholdPolicy


class TestHints:
    def test_tag_sets_label(self, store):
        hints = HintInterface()
        obj = HeapObject(64, store=store)
        hints.h2_tag_root(obj, "rdd-1")
        assert obj.label == "rdd-1"
        assert obj in hints.tagged_roots()

    def test_tag_requires_object(self):
        with pytest.raises(InvalidHintError):
            HintInterface().h2_tag_root(None, "x")

    def test_tag_requires_label(self, store):
        with pytest.raises(InvalidHintError):
            HintInterface().h2_tag_root(HeapObject(64, store=store), "")

    def test_tag_rejects_h2_resident(self, store):
        hints = HintInterface()
        obj = HeapObject(64, store=store)
        obj.space = SpaceId.H2
        with pytest.raises(InvalidHintError):
            hints.h2_tag_root(obj, "x")

    def test_move_marks_pending(self):
        hints = HintInterface()
        hints.h2_move("rdd-1")
        assert hints.is_move_pending("rdd-1")
        assert not hints.is_move_pending("rdd-2")

    def test_move_requires_label(self):
        with pytest.raises(InvalidHintError):
            HintInterface().h2_move("")

    def test_consume_moved(self, store):
        hints = HintInterface()
        obj = HeapObject(64, store=store)
        hints.h2_tag_root(obj, "a")
        hints.h2_move("a")
        obj.space = SpaceId.H2  # the collector moved it
        hints.consume_moved({"a"})
        assert not hints.is_move_pending("a")
        assert obj not in hints.tagged_roots()

    def test_tagged_roots_excludes_non_h1(self, store):
        hints = HintInterface()
        obj = HeapObject(64, store=store)
        hints.h2_tag_root(obj, "a")
        obj.space = SpaceId.H2
        assert hints.tagged_roots() == []

    def test_call_counters(self, store):
        hints = HintInterface()
        hints.h2_tag_root(HeapObject(64, store=store), "a")
        hints.h2_move("a")
        assert hints.tag_calls == 1
        assert hints.move_calls == 1


class TestThresholdPolicy:
    def make(self, **kw):
        defaults = dict(
            heap_capacity=1000,
            low_threshold=0.50,
            use_move_hint=True,
        )
        defaults.update(kw)
        return ThresholdPolicy(**defaults)

    def test_below_high_honours_hints_only(self):
        d = self.make().decide(live_bytes=500)
        assert d.move_hinted and not d.move_unhinted

    def test_no_hint_mode_below_high_moves_nothing(self):
        d = self.make(use_move_hint=False).decide(live_bytes=500)
        assert not d.move_hinted and not d.move_unhinted

    def test_above_high_moves_unhinted_with_budget(self):
        policy = self.make()
        d = policy.decide(live_bytes=900)
        assert d.move_unhinted
        assert d.unhinted_budget == 900 - 500  # down to the low threshold
        assert policy.pressure_transfers == 1

    def test_above_high_without_low_threshold_moves_all(self):
        d = self.make(low_threshold=None).decide(live_bytes=900)
        assert d.move_unhinted
        assert d.unhinted_budget is None

    def test_budget_never_negative(self):
        d = self.make(low_threshold=0.84).decide(live_bytes=851)
        assert d.unhinted_budget >= 0

    def test_threshold_validation(self):
        # The config validates the ordering; the collector builds its
        # policy only from a validated config.
        with pytest.raises(ConfigError):
            TeraHeapConfig(low_threshold=0.9)

    def test_exactly_at_high_threshold_no_pressure(self):
        d = self.make().decide(live_bytes=850)
        assert not d.move_unhinted
