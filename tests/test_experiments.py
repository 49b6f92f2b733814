"""Experiment drivers: quick smoke of every figure/table harness."""

import pytest

from repro.experiments import (
    barrier,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    table5,
)
from repro.experiments.configs import (
    GIRAPH_WORKLOADS_TABLE4,
    SPARK_WORKLOADS_TABLE3,
)
from repro.experiments.runner import run_giraph_workload, run_spark_workload


def test_configs_cover_all_paper_workloads():
    assert set(SPARK_WORKLOADS_TABLE3) == {
        "PR", "CC", "SSSP", "SVD", "TR", "LR", "LgR", "SVM", "BC", "RL",
    }
    assert set(GIRAPH_WORKLOADS_TABLE4) == {"PR", "CDLP", "WCC", "BFS", "SSSP"}


def test_table5_matches_paper():
    results = table5.run()
    for size_mb, measured in results.items():
        assert measured == pytest.approx(
            table5.PAPER_TABLE5[size_mb], rel=0.25
        )
    assert "417" in table5.format_results(results)


def test_barrier_overhead_driver():
    r = barrier.run(updates=2000)
    assert r.overhead <= 0.03


def test_fig06_spark_th_beats_sd():
    results = fig06.run_spark(workloads=["SVD"], scale=0.4)
    rows = results["SVD"]
    sd = [r for r in rows if r.system == "spark-sd" and not r.oom]
    th = [r for r in rows if r.system == "teraheap" and not r.oom]
    assert sd and th
    # Best TH beats best SD (the Figure 6 headline).
    assert min(t.total for t in th) < min(s.total for s in sd)
    assert "SVD" in fig06.format_results(results)


def test_fig06_giraph_th_beats_ooc():
    results = fig06.run_giraph(workloads=["BFS"])
    rows = results["BFS"]
    ooc = [r for r in rows if r.system == "giraph-ooc" and not r.oom]
    th = [r for r in rows if r.system == "giraph-th" and not r.oom]
    assert ooc and th
    assert min(t.total for t in th) < min(o.total for o in ooc)


def test_fig07_gc_timeline_shape():
    timelines = fig07.run(scale=0.4)
    by_system = {t.system: t for t in timelines}
    sd = by_system["spark-sd"]
    th = by_system["teraheap"]
    # TeraHeap: fewer majors, each costlier (device compaction I/O).
    assert len(th.major_cycles) <= len(sd.major_cycles)
    assert th.mean_major > sd.mean_major
    # Minor GC total drops under TeraHeap (fewer cards to scan).
    assert th.total_minor < sd.total_minor
    assert sd.occupancy_series()


def test_fig08_g1_ooms_on_humongous_workload():
    results = fig08.run(workloads=["SVM"], scale=0.3)
    rows = {r.system: r for r in results["SVM"]}
    assert rows["spark-g1"].oom
    assert not rows["spark-sd11"].oom
    assert not rows["teraheap"].oom
    assert rows["teraheap"].total < rows["spark-sd11"].total


def test_fig09_hint_ablation():
    pairs = fig09.run_hint_ablation(workloads=["WCC"])
    no_hint, with_hint = pairs["WCC"]
    assert with_hint.total < no_hint.total  # the hint wins (Fig 9a)
    assert "WCC" in fig09.format_pairs(pairs)


def test_fig10_region_cdfs():
    results = fig10.run(workloads=["PR"], region_sizes_mb=[16])
    cdf = results["PR"][0]
    assert cdf.allocated_regions > 0
    assert 0 <= cdf.reclaimed_fraction <= 1
    fractions = cdf.live_object_fractions()
    assert fractions == sorted(fractions)
    assert all(0 <= f <= 1 for f in fractions)
    # PR reclaims many regions (dead message stores).
    assert cdf.reclaimed_fraction > 0.2


def test_fig11_card_sweep_improves_with_larger_segments():
    results = fig11.run_card_segment_sweep(
        workloads=["PR"], segment_sizes=[512, 16384]
    )
    per_size = results["PR"]
    assert per_size[16384] < per_size[512]  # Fig 11a direction


def test_fig11_major_phases():
    results = fig11.run_major_phase_breakdown(workloads=["BFS"])
    ooc = results["BFS"]["giraph-ooc"]
    th = results["BFS"]["giraph-th"]
    assert sum(th.values()) < sum(ooc.values())  # TH majors cheaper overall
    assert set(ooc) >= {"marking", "compact"}


def test_fig12_sd_panel():
    pairs = fig12.run_panel("spark-sd", workloads=["SVD"], scale=0.3)
    base, th = pairs["SVD"]
    assert th.total < base.total


def test_fig13_thread_scaling_directions():
    results = fig13.run_thread_scaling(scale=0.25, threads=[8, 16])
    lr = results["LR"]
    sd8, sd16 = lr["spark-sd"][8], lr["spark-sd"][16]
    th8, th16 = lr["teraheap"][8], lr["teraheap"][16]
    # Spark-SD stalls (GC pressure grows); TeraHeap keeps scaling.
    assert th16.total < th8.total
    assert (sd16.total / sd8.total) > (th16.total / th8.total)
    # CC and CDLP: TeraHeap gains more from 16 threads than its baseline.
    for workload, base, th in [
        ("CC", "spark-sd", "teraheap"),
        ("CDLP", "giraph-ooc", "giraph-th"),
    ]:
        ratio = {}
        for system in (base, th):
            runs = results[workload][system]
            r8, r16 = runs[8], runs[16]
            assert not (r8.oom or r16.oom)
            ratio[system] = r16.total / r8.total
        assert ratio[th] < ratio[base], (workload, ratio)


def test_runner_oom_is_captured_not_raised():
    cfg = SPARK_WORKLOADS_TABLE3["SVM"]
    result = run_spark_workload(
        "SVM", "spark-sd", cfg.sd_drams[0], cfg, scale=0.3
    )
    assert result.oom  # smallest DRAM point OOMs, as in Figure 6


def test_runner_giraph_returns_vm_and_job():
    cfg = GIRAPH_WORKLOADS_TABLE4["BFS"]
    result, vm, job = run_giraph_workload(
        "BFS", "giraph-th", cfg.drams[-1], cfg
    )
    assert not result.oom
    assert job.supersteps_run > 0
    assert result.extras["h2_regions_allocated"] > 0
