"""Crash consistency: durable image, commit protocol, H2 recovery."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import InvariantViolation, SimulatedCrash, UnrecoverableCrash
from repro.devices.durability import DurableImage, image_of
from repro.faults import FaultConfig
from repro.heap.object_model import HeapObject
from repro.teraheap.h2_heap import H2_BASE
from repro.teraheap.recovery import RegionJournalEntry, header_page
from repro.units import KiB, MiB
from repro.experiments.chaoskill import (
    CRASH_POINTS,
    Workload,
    final_report,
    make_vm,
    resume_phase,
)

SEED = 7


def committed_vm(policy="commit", phases=2, seed=SEED):
    """A VM that ran ``phases`` phases crash-free (so it has committed)."""
    vm = make_vm(policy)
    workload = Workload(vm, seed)
    for i in range(phases):
        workload.run_phase(i)
    return vm


def lift_image(vm):
    image = image_of(vm.h2.mapping)
    assert image is not None
    return image


# ======================================================================
# DurableImage semantics
# ======================================================================
def test_dirty_pages_are_not_durable_until_writeback():
    image = DurableImage()
    assert not image.is_durable(3)
    image.commit([3, 4])
    assert image.is_durable(3) and image.is_durable(4)
    image.tear(4)
    assert not image.is_durable(4)
    assert image.torn_in([3, 4]) == [4]
    # Re-committing a torn page heals it (the next write lands whole).
    image.commit([4])
    assert image.is_durable(4)


def reference_commit(image, pages):
    """:meth:`DurableImage.commit` one page at a time, in order."""
    for page in pages:
        image._write_seq += 1
        image.pages[page] = image._write_seq
        image.torn.discard(page)
        for slot, entry in image._staged.pop(page, ()):
            retained = image.journal.get(slot, ())
            image.journal[slot] = (retained + (entry,))[-2:]


_page = st.integers(0, 12)
_image_ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.lists(_page, max_size=10)),
        st.tuples(st.just("tear"), _page),
        st.tuples(st.just("stage"), st.tuples(_page, st.integers(0, 3))),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(_image_ops)
def test_commit_matches_the_per_page_install(ops):
    bulk, looped = DurableImage(), DurableImage()
    for n, (kind, arg) in enumerate(ops):
        for image in (bulk, looped):
            if kind == "tear":
                image.tear(arg)
            elif kind == "stage":
                image.stage_journal(arg[0], arg[1], f"entry-{n}")
        if kind == "commit":
            bulk.commit(arg)
            reference_commit(looped, arg)
        assert list(bulk.pages.items()) == list(looped.pages.items())
        assert bulk._write_seq == looped._write_seq
        assert bulk.torn == looped.torn
        assert list(bulk.journal.items()) == list(looped.journal.items())
        assert bulk._staged == looped._staged


def test_torn_header_keeps_previous_journal_entry():
    image = DurableImage()
    page = header_page(0)
    entry_a = RegionJournalEntry(0, 1, "g0", 8, True, (), ((0, 8),))
    image.stage_journal(page, 0, entry_a)
    image.commit([page])
    assert image.journal_entry(0, 1) is entry_a
    # The next header update tears mid-write: the staged entry is lost
    # but the committed one survives (two-slot shadow write).
    entry_b = dataclasses.replace(entry_a, epoch=2)
    image.stage_journal(page, 0, entry_b)
    image.tear(page)
    assert image.journal_entry(0, 2) is None
    assert image.journal_entry(0, 1) is entry_a


def test_two_slot_journal_retains_previous_epoch():
    image = DurableImage()
    page = header_page(5)
    for epoch in (1, 2, 3):
        entry = RegionJournalEntry(5, epoch, "g", 8, True, (), ((0, 8),))
        image.stage_journal(page, 5, entry)
        image.commit([page])
    # Only the two newest slots survive.
    assert image.journal_entry(5, 1) is None
    assert image.journal_entry(5, 2) is not None
    assert image.journal_entry(5, 3) is not None


def test_superblock_tear_falls_back_to_previous_commit():
    image = DurableImage()
    image.commit_superblock(4, [1, 2], note="phase:0")
    image.tear_superblock()
    assert image.committed_epoch == 4
    assert image.manifest == (1, 2)
    assert image.checkpoint_note == "phase:0"
    assert image.superblock_tears == 1


def test_digest_is_deterministic_and_covers_state():
    image = DurableImage()
    image.commit([2, 1])
    image.tear(9)
    image.commit_superblock(1, [0], note="n")
    assert image.digest() == image.digest()
    text = image.digest()
    assert "torn\t9" in text and "note=n" in text


# ======================================================================
# Commit / recover round trip
# ======================================================================
def test_recover_rebuilds_committed_regions_auditor_clean():
    vm = committed_vm()
    baseline = final_report(vm)
    image = lift_image(vm)
    fresh = make_vm("commit")
    report = fresh.recover_h2(image)
    assert report.regions_quarantined == 0
    assert report.regions_recovered == len(image.manifest)
    assert report.checkpoint_note == "phase:1"
    assert final_report(fresh) == baseline
    fresh.auditor.audit("recovery", fresh.collector.mark_epoch)
    # Anchors re-root every recovered label.
    labels = {lbl for lbl, _, _ in baseline}
    assert set(fresh.h2_recovery_anchors) == labels


def test_recover_requires_fresh_vm():
    vm = committed_vm()
    image = lift_image(vm)
    with pytest.raises(ValueError):
        vm.h2.recover(image)


def test_recovered_vm_resumes_and_matches_crash_free_run():
    crash_free = committed_vm(phases=4)
    vm = committed_vm(phases=2)
    fresh = make_vm("commit")
    report = fresh.recover_h2(lift_image(vm))
    start = resume_phase(report.checkpoint_note)
    assert start == 2
    resumed = Workload(fresh, SEED)
    for i in range(start, 4):
        resumed.run_phase(i)
    assert final_report(fresh) == final_report(crash_free)


# ======================================================================
# Quarantine: torn data and stale epochs
# ======================================================================
def test_torn_data_page_quarantines_the_region():
    vm = committed_vm()
    image = lift_image(vm)
    victim = image.manifest[0]
    start = H2_BASE + victim * vm.h2.config.region_size
    entry = image.journal_entry(victim, image.committed_epoch)
    pages = list(vm.h2.mapping.pages_for(start, entry.used_bytes))
    image.tear(pages[0])
    fresh = make_vm("commit")
    report = fresh.recover_h2(image)
    assert victim in report.quarantined
    assert report.quarantined[victim].startswith("torn-data")
    assert report.regions_recovered == len(image.manifest) - 1
    # Quarantined indices get no region object and the audit stays clean.
    assert victim not in fresh.h2.regions
    fresh.auditor.audit("recovery", fresh.collector.mark_epoch)


def test_stale_epoch_header_quarantines_the_region():
    vm = committed_vm()
    image = lift_image(vm)
    victim = image.manifest[-1]
    stale = tuple(
        dataclasses.replace(e, epoch=e.epoch + 7)
        for e in image.journal_entries(victim)
    )
    image.journal[victim] = stale
    fresh = make_vm("commit")
    report = fresh.recover_h2(image)
    assert report.quarantined[victim].startswith("stale-epoch")
    fresh.auditor.audit("recovery", fresh.collector.mark_epoch)


def test_inconsistent_object_records_quarantine_the_region():
    vm = committed_vm()
    image = lift_image(vm)
    victim = image.manifest[0]
    broken = tuple(
        dataclasses.replace(e, objects=((4, 8),) + e.objects[1:])
        for e in image.journal_entries(victim)
    )
    image.journal[victim] = broken
    fresh = make_vm("commit")
    report = fresh.recover_h2(image)
    assert report.quarantined[victim].startswith("journal-inconsistent")


# ======================================================================
# Unrecoverable images fail loudly
# ======================================================================
def test_unreadable_superblock_is_unrecoverable():
    vm = committed_vm()
    image = lift_image(vm)
    image.superblock = None
    fresh = make_vm("commit")
    with pytest.raises(UnrecoverableCrash, match="superblock"):
        fresh.recover_h2(image)


def test_manifest_region_without_journal_is_unrecoverable():
    vm = committed_vm()
    image = lift_image(vm)
    victim = image.manifest[0]
    del image.journal[victim]
    fresh = make_vm("commit")
    with pytest.raises(UnrecoverableCrash, match=f"region {victim}"):
        fresh.recover_h2(image)


# ======================================================================
# Promotion-buffer-aware copy batches (ROADMAP nibble)
# ======================================================================
def _mover(store, size, region_id):
    obj = HeapObject(size, store=store)
    obj.region_id = region_id
    return (obj, f"r{region_id}")


def test_mover_copy_batches_match_buffer_flush_shape():
    vm = make_vm("none")  # buffer capacity 32 KiB (make_vm config)
    collector = vm.collector
    movers = [
        _mover(vm.store, 12 * KiB, 0),
        _mover(vm.store, 30 * KiB, 1),  # interleaved region: grouped, order kept
        _mover(vm.store, 12 * KiB, 0),
        _mover(vm.store, 12 * KiB, 0),  # 36 KiB > 32 KiB: splits the region-0 run
        _mover(vm.store, 2 * MiB, 1),  # >= direct-write threshold: singleton batch
        _mover(vm.store, 4 * KiB, 1),
    ]
    batches = collector.mover_copy_batches(movers)
    shape = [
        [(obj.size, label) for obj, label in batch] for batch in batches
    ]
    assert shape == [
        [(12 * KiB, "r0"), (12 * KiB, "r0")],
        [(12 * KiB, "r0")],
        [(30 * KiB, "r1")],
        [(2 * MiB, "r1")],
        [(4 * KiB, "r1")],
    ]
    # Every non-direct batch fits one promotion-buffer fill.
    capacity = vm.config.teraheap.promotion_buffer_size
    for batch in batches:
        nbytes = sum(obj.size for obj, _ in batch)
        assert nbytes <= capacity or len(batch) == 1


# ======================================================================
# Crash scheduling determinism
# ======================================================================
def test_crash_cells_are_deterministic_across_reruns():
    def run_once():
        fault = FaultConfig(
            seed=SEED, fault_seed=99, crash_point="h2_flush", crash_after=2
        )
        vm = make_vm("commit", fault)
        workload = Workload(vm, SEED)
        with pytest.raises(SimulatedCrash):
            for i in range(4):
                workload.run_phase(i)
        image = lift_image(vm)
        fresh = make_vm("commit")
        report = fresh.recover_h2(image)
        return image.digest(), report.digest()

    assert run_once() == run_once()


def test_crash_mid_parallel_compact_is_deterministic():
    """A kill inside the parallel compaction phase aborts the engine's
    multi-lane region via the crash exception.  The aborted region must
    charge nothing (mutator time stops at the last clean safepoint), so
    the clock, the durable image, and the recovery report are all
    byte-identical across reruns."""

    def run_once():
        fault = FaultConfig(
            seed=SEED, fault_seed=99, crash_point="major_compact",
            crash_after=2,
        )
        vm = make_vm("commit", fault)
        workload = Workload(vm, SEED)
        with pytest.raises(SimulatedCrash):
            for i in range(4):
                workload.run_phase(i)
        image = lift_image(vm)
        fresh = make_vm("commit")
        report = fresh.recover_h2(image)
        return vm.clock.now, image.digest(), report.digest()

    first = run_once()
    assert first == run_once()
    assert first[0] > 0.0


# ======================================================================
# Property: no schedule silently corrupts the heap
# ======================================================================
@settings(max_examples=8, deadline=None)
@given(
    fault_seed=st.integers(min_value=0, max_value=10_000),
    point=st.sampled_from([p for p, _ in CRASH_POINTS]),
    crash_after=st.integers(min_value=1, max_value=6),
    policy=st.sampled_from(["commit", "flush"]),
)
def test_any_crash_schedule_recovers_or_fails_loudly(
    fault_seed, point, crash_after, policy
):
    """Whatever the schedule does, the outcome is one of: the run
    completes auditor-clean; it crashes and recovery is auditor-clean;
    or recovery refuses with UnrecoverableCrash.  Silent corruption —
    a clean-looking heap that fails the audit — is never acceptable."""
    fault = FaultConfig(
        seed=SEED,
        fault_seed=fault_seed,
        crash_point=point,
        crash_after=crash_after,
        crash_rate=0.01,
    )
    vm = make_vm(policy, fault)
    workload = Workload(vm, SEED)
    try:
        for i in range(3):
            workload.run_phase(i)
    except SimulatedCrash:
        image = image_of(vm.h2.mapping)
        fresh = make_vm(policy)
        try:
            report = fresh.recover_h2(image)
        except UnrecoverableCrash:
            return  # loud failure is an accepted outcome
        assert report.regions_recovered + report.regions_quarantined == len(
            image.manifest
        )
        fresh.auditor.audit("recovery", fresh.collector.mark_epoch)
        resumed = Workload(fresh, SEED)
        try:
            for i in range(resume_phase(report.checkpoint_note), 3):
                resumed.run_phase(i)
        except InvariantViolation:
            pytest.fail("resumed run failed the post-GC audit")
        fresh.auditor.audit("minor", fresh.collector.mark_epoch)
