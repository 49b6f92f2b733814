"""Clock: bucket accounting, contexts, sub-buckets, snapshots, lanes."""

import pytest

from repro.clock import Bucket, Clock, LaneSet


def test_initial_state():
    clock = Clock()
    assert clock.now == 0.0
    assert all(v == 0.0 for v in clock.breakdown().values())


def test_charge_default_bucket_is_other():
    clock = Clock()
    clock.charge(1.5)
    assert clock.total(Bucket.OTHER) == 1.5


def test_charge_explicit_bucket():
    clock = Clock()
    clock.charge(2.0, Bucket.SD_IO)
    assert clock.total(Bucket.SD_IO) == 2.0
    assert clock.total(Bucket.OTHER) == 0.0


def test_negative_charge_rejected():
    clock = Clock()
    with pytest.raises(ValueError):
        clock.charge(-1.0)


def test_context_routes_untagged_charges():
    clock = Clock()
    with clock.context(Bucket.MAJOR_GC):
        clock.charge(3.0)
    assert clock.total(Bucket.MAJOR_GC) == 3.0


def test_context_nesting():
    clock = Clock()
    with clock.context(Bucket.MINOR_GC):
        with clock.context(Bucket.SD_IO):
            clock.charge(1.0)
        clock.charge(2.0)
    assert clock.total(Bucket.SD_IO) == 1.0
    assert clock.total(Bucket.MINOR_GC) == 2.0


def test_context_restores_on_exception():
    clock = Clock()
    with pytest.raises(RuntimeError):
        with clock.context(Bucket.MAJOR_GC):
            raise RuntimeError
    clock.charge(1.0)
    assert clock.total(Bucket.OTHER) == 1.0


def test_now_sums_buckets():
    clock = Clock()
    clock.charge(1.0, Bucket.OTHER)
    clock.charge(2.0, Bucket.MAJOR_GC)
    assert clock.now == pytest.approx(3.0)


def test_sub_context_accumulates():
    clock = Clock()
    with clock.context(Bucket.MAJOR_GC):
        with clock.sub_context("marking"):
            clock.charge(1.0)
        with clock.sub_context("compact"):
            clock.charge(2.0)
    assert clock.sub_total("marking") == 1.0
    assert clock.sub_total("compact") == 2.0
    assert clock.sub_breakdown() == {"marking": 1.0, "compact": 2.0}


def test_snapshot_delta():
    clock = Clock()
    clock.charge(1.0, Bucket.OTHER)
    snap = clock.snapshot()
    clock.charge(2.0, Bucket.MINOR_GC)
    delta = snap.delta(clock)
    assert delta["minor_gc"] == pytest.approx(2.0)
    assert delta["other"] == pytest.approx(0.0)


def test_record_event():
    clock = Clock()
    clock.charge(5.0)
    clock.record_event("major_gc", 2.0)
    assert clock.events == [(5.0, "major_gc", 2.0)]


def test_breakdown_keys_match_paper():
    clock = Clock()
    assert set(clock.breakdown()) == {"other", "sd_io", "minor_gc", "major_gc", "alloc_stall"}


def test_charge_bucket_none_uses_current_context():
    clock = Clock()
    with clock.context(Bucket.MINOR_GC):
        clock.charge(1.0, None)
    assert clock.total(Bucket.MINOR_GC) == 1.0


def test_charge_unknown_bucket_rejected():
    clock = Clock()
    with pytest.raises(ValueError, match="unknown clock bucket"):
        clock.charge(1.0, "minor_gc")
    with pytest.raises(ValueError):
        clock.charge(1.0, 3)
    assert clock.now == 0.0


@pytest.mark.parametrize("bucket", [None, Bucket.OTHER, Bucket.SD_IO])
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_charge_repeated_equals_charge_loop(bucket, n):
    seconds = 1e-7 / 3  # sums of this round differently than products
    runs, loop = Clock(), Clock()
    for clock in (runs, loop):
        clock.charge(0.1, bucket)
    with runs.context(Bucket.MINOR_GC), runs.sub_context("phase"):
        runs.charge_repeated(seconds, n, bucket)
    with loop.context(Bucket.MINOR_GC), loop.sub_context("phase"):
        for _ in range(n):
            loop.charge(seconds, bucket)
    assert runs.breakdown() == loop.breakdown()
    assert runs.sub_breakdown() == loop.sub_breakdown()
    assert runs.now == loop.now


def test_charge_repeated_rejects_bad_input():
    clock = Clock()
    with pytest.raises(ValueError, match="unknown clock bucket"):
        clock.charge_repeated(1.0, 2, "other")
    with pytest.raises(ValueError, match="negative"):
        clock.charge_repeated(-1.0, 2)
    assert clock.now == 0.0


# ----------------------------------------------------------------------
# Multi-lane extension (the GC engine's substrate)
# ----------------------------------------------------------------------
def test_lane_set_requires_a_lane():
    with pytest.raises(ValueError):
        LaneSet(0)


def test_lane_set_critical_path_and_idle():
    lanes = LaneSet(3)
    lanes.advance(0, 2.0)
    lanes.advance(1, 1.0, kind="steal")
    lanes.advance(1, 0.5, kind="overhead")
    assert lanes.lane_time(0) == 2.0
    assert lanes.lane_time(1) == 1.5
    assert lanes.critical_path == 2.0
    assert lanes.idle(1) == pytest.approx(0.5)
    assert lanes.idle(2) == pytest.approx(2.0)
    assert lanes.total_idle == pytest.approx(2.5)


def test_lane_set_imbalance():
    lanes = LaneSet(2)
    lanes.advance(0, 3.0)
    lanes.advance(1, 1.0)
    # critical * lanes / total = 3 * 2 / 4
    assert lanes.imbalance == pytest.approx(1.5)
    assert LaneSet(2).imbalance == 1.0


def test_lane_set_rejects_bad_input():
    lanes = LaneSet(2)
    with pytest.raises(ValueError):
        lanes.advance(0, -1.0)
    with pytest.raises(ValueError):
        lanes.advance(0, 1.0, kind="sleeping")


def test_parallel_charges_critical_path_to_context():
    clock = Clock()
    with clock.context(Bucket.MINOR_GC):
        with clock.parallel(4) as lanes:
            lanes.advance(0, 1.0)
            lanes.advance(1, 2.5)
            lanes.advance(2, 0.25)
    assert clock.total(Bucket.MINOR_GC) == pytest.approx(2.5)
    assert clock.now == pytest.approx(2.5)


def test_parallel_single_lane_is_serial():
    clock = Clock()
    with clock.parallel(1) as lanes:
        lanes.advance(0, 1.0)
        lanes.advance(0, 2.0)
    assert clock.now == pytest.approx(3.0)


def test_concurrent_fully_hidden_within_budget():
    """A concurrent region whose critical path fits inside the mutator
    budget charges nothing: the marking raced (and lost to) the mutator."""
    clock = Clock()
    with clock.context(Bucket.MAJOR_GC):
        with clock.concurrent(2, budget=5.0) as lanes:
            lanes.advance(0, 2.0)
            lanes.advance(1, 1.5)
    assert lanes.hidden == pytest.approx(2.0)
    assert clock.now == 0.0
    assert clock.total(Bucket.MAJOR_GC) == 0.0


def test_concurrent_zero_budget_behaves_like_parallel():
    clock = Clock()
    with clock.context(Bucket.MAJOR_GC):
        with clock.concurrent(2, budget=0.0) as lanes:
            lanes.advance(0, 3.0)
            lanes.advance(1, 1.0)
    assert lanes.hidden == 0.0
    assert clock.total(Bucket.MAJOR_GC) == pytest.approx(3.0)


def test_concurrent_partial_budget_charges_the_overrun():
    clock = Clock()
    with clock.context(Bucket.MINOR_GC):
        with clock.concurrent(2, budget=1.25) as lanes:
            lanes.advance(0, 2.0)
    assert lanes.hidden == pytest.approx(1.25)
    assert clock.total(Bucket.MINOR_GC) == pytest.approx(0.75)
    assert clock.now == pytest.approx(0.75)


def test_concurrent_rejects_negative_budget():
    clock = Clock()
    with pytest.raises(ValueError, match="budget"):
        with clock.concurrent(2, budget=-0.1):
            pass


def test_concurrent_charges_nothing_on_exception_exit():
    clock = Clock()
    with pytest.raises(RuntimeError):
        with clock.concurrent(2, budget=0.0) as lanes:
            lanes.advance(0, 4.0)
            raise RuntimeError("crash mid-mark")
    assert clock.now == 0.0
    assert lanes.hidden == 0.0


def test_parallel_charges_nothing_on_exception_exit():
    """A parallel region aborted mid-phase (a simulated crash at a GC
    safepoint) must not charge the partial critical path: recovery
    reconstructs post-crash time from the durable image, so mutator
    time must stop at the last clean safepoint."""
    clock = Clock()
    with clock.context(Bucket.MAJOR_GC):
        clock.charge(1.0)
        with pytest.raises(RuntimeError):
            with clock.parallel(2) as lanes:
                lanes.advance(0, 5.0)
                lanes.advance(1, 2.0)
                raise RuntimeError("crash at safepoint")
    assert clock.now == pytest.approx(1.0)
    assert clock.total(Bucket.MAJOR_GC) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "buckets",
    [(Bucket.OTHER, None), (Bucket.OTHER, Bucket.SD_IO), (None, None)],
)
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_charge_cycle_equals_interleaved_charges(buckets, n):
    # Sums of these depend on the order of the adds.
    charges = tuple(zip((1e-7 / 3, 2e-8 / 7), buckets))
    cycles, loop = Clock(), Clock()
    for clock in (cycles, loop):
        clock.charge(0.1, Bucket.OTHER)
    with cycles.sub_context("phase"):
        cycles.charge_cycle(charges, n)
    with loop.sub_context("phase"):
        for _ in range(n):
            for seconds, bucket in charges:
                loop.charge(seconds, bucket)
    assert cycles.breakdown() == loop.breakdown()
    assert cycles.sub_breakdown() == loop.sub_breakdown()


@pytest.mark.parametrize("bucket", [None, Bucket.SD_IO])
def test_charge_each_equals_charge_loop(bucket):
    seconds = [1e-7 / k for k in range(1, 50)]
    each, loop = Clock(), Clock()
    with each.context(Bucket.MINOR_GC), each.sub_context("phase"):
        each.charge_each(seconds, bucket)
        each.charge_each([], bucket)
    with loop.context(Bucket.MINOR_GC), loop.sub_context("phase"):
        for s in seconds:
            loop.charge(s, bucket)
    assert each.breakdown() == loop.breakdown()
    assert each.sub_breakdown() == loop.sub_breakdown()


def test_charge_each_and_cycle_reject_bad_input():
    clock = Clock()
    with pytest.raises(ValueError, match="unknown clock bucket"):
        clock.charge_each([1.0], "other")
    with pytest.raises(ValueError, match="negative"):
        clock.charge_each([1.0, -1.0])
    with pytest.raises(ValueError, match="unknown clock bucket"):
        clock.charge_cycle(((1.0, None), (1.0, "other")), 2)
    with pytest.raises(ValueError, match="negative"):
        clock.charge_cycle(((1.0, None), (-1.0, None)), 2)
    assert clock.now == 0.0
    assert clock.sub_breakdown() == {}
