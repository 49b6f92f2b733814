"""The paper's figures on the experiment harness.

Every figure's smoke matrix runs through ``harness.run`` and must pass
its own check.  Smoke runs only ever show a check passing, so each
figure's check also runs on synthetic cells: a matrix shaped like the
figure's own, once with the paper's shape (no failure) and once broken
in one headline claim (that failure reported).
"""

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
    harness,
    table5,
)
from repro.experiments.configs import (
    GIRAPH_WORKLOADS_TABLE4,
    SPARK_WORKLOADS_TABLE3,
)
from repro.experiments.runner import run_giraph_workload, run_spark_workload
from repro.gc.base import GCCycle
from repro.metrics.report import ExperimentResult
from repro.teraheap.regions import RegionLiveness

FIGURES = harness.specs(harness.FIGURE_MODULES)


@pytest.mark.parametrize("name", list(FIGURES))
def test_smoke_matrix_passes_its_check(name):
    _, failures = harness.run(FIGURES[name], smoke=True)
    assert failures == []


def fake(module, result, smoke=True):
    """``module``'s matrix with ``result(params)`` in place of each run."""
    return [
        harness.Cell(key, params, result(params), "", None)
        for key, params in module.cells(smoke)
    ]


def run_result(p, total, oom=False):
    system = p.get("variant", p.get("system"))
    return ExperimentResult(p["workload"], system, p.get("dram_gb", 0), 0.0,
                            total=total, oom=oom)


def test_configs_cover_all_paper_workloads():
    assert set(SPARK_WORKLOADS_TABLE3) == {
        "PR", "CC", "SSSP", "SVD", "TR", "LR", "LgR", "SVM", "BC", "RL",
    }
    assert set(GIRAPH_WORKLOADS_TABLE4) == {"PR", "CDLP", "WCC", "BFS", "SSSP"}
    for module in FIGURES:
        assert FIGURES[module].cells(True)


def test_table5_matches_paper():
    cells = fake(table5, lambda p: table5.run_cell(**p))
    assert table5.check(cells) == []
    assert "417" in table5.SPEC.report(cells)
    cells[0].result = 430.0
    assert table5.check(cells) == ["1 MB: 430.0 MB/TB does not round to 417"]


def test_barrier_overhead_driver():
    def overhead(per_benchmark):
        return lambda p: barrier.BarrierOverhead(
            100.0, 101.0, 10, 10, per_benchmark=per_benchmark
        )

    assert barrier.check(fake(barrier, overhead({"a": 0.01}))) == []
    failures = barrier.check(fake(barrier, overhead({"a": 0.08, "b": 0.0})))
    assert failures == [
        "ops=2000: mean overhead 4.00% > 3%",
        "ops=2000: max overhead 8.00% > 5%",
    ]


def fig06_result(th_spark=50.0, th_giraph=50.0):
    totals = {
        "spark-sd": 100.0,
        "teraheap": th_spark,
        "giraph-ooc": 100.0,
        "giraph-th": th_giraph,
    }
    return lambda p: run_result(
        p,
        totals[p["system"]],
        oom=p["system"] == "spark-sd" and p["dram_gb"] < 40,
    )


def test_fig06_spark_th_beats_sd():
    cells = fake(fig06, fig06_result())
    assert fig06.check(cells) == []
    assert "== SVD ==" in fig06.SPEC.report(cells)
    failures = fig06.check(fake(fig06, fig06_result(th_spark=120.0)))
    assert "SVD: best teraheap 120.0 s not below best spark-sd 100.0 s" in (
        failures
    )
    assert "SVD@40GB: teraheap 120.0 s not below spark-sd 100.0 s" in failures


def test_fig06_giraph_th_beats_ooc():
    failures = fig06.check(fake(fig06, fig06_result(th_giraph=100.0)))
    assert failures == [
        "BFS: best giraph-th 100.0 s not below best giraph-ooc 100.0 s"
    ]


def test_fig07_gc_timeline_shape():
    def timeline(majors, major_s, minor_s):
        cycles = [GCCycle("major", i, major_s) for i in range(majors)]
        cycles.append(GCCycle("minor", majors, minor_s))
        return fig07.GCTimeline(cycles=cycles, system="")

    shapes = {"spark-sd": (8, 1.0, 9.0), "teraheap": (2, 5.0, 3.0)}

    def result(p):
        t = timeline(*shapes[p["system"]])
        t.system = p["system"]
        return t

    assert fig07.check(fake(fig07, result)) == []
    shapes["teraheap"] = (8, 5.0, 3.0)
    assert fig07.check(fake(fig07, result)) == [
        "teraheap runs 8 majors, spark-sd only 8"
    ]


def test_fig08_g1_ooms_on_humongous_workload():
    totals = {"spark-sd11": 100.0, "spark-g1": 120.0, "teraheap": 80.0}

    def result(p, tr_teraheap=80.0, g1_victims=("SVM", "BC", "RL")):
        total = totals[p["system"]]
        if p["workload"] == "TR" and p["system"] == "teraheap":
            total = tr_teraheap
        oom = p["system"] == "spark-g1" and p["workload"] in g1_victims
        return run_result(p, total, oom)

    assert fig08.check(fake(fig08, result, smoke=False)) == []
    slow_tr = fig08.check(
        fake(fig08, lambda p: result(p, tr_teraheap=114.0), smoke=False)
    )
    assert slow_tr == [
        "TR: TeraHeap 114.0 s vs PS 100.0 s (allowed ratio 1.10)"
    ]
    g1_runs_bc = fig08.check(
        fake(fig08, lambda p: result(p, g1_victims=("SVM", "RL")), False)
    )
    assert g1_runs_bc == ["BC: G1 completes; expected a humongous OOM"]


def test_fig09_hint_ablation():
    def result(hint_total):
        return lambda p: run_result(
            p, hint_total if p["variant"] == "th-hint" else 100.0
        )

    cells = fake(fig09, result(80.0))
    assert fig09.check(cells) == []
    assert fig09.SPEC.report(cells).startswith("WCC: th-nohint=")
    assert fig09.check(fake(fig09, result(101.0))) == [
        "no hint gain above 5%: {'WCC': -0.01}",
        "WCC: the hint does not win",
    ]


def test_fig10_region_cdfs():
    def result(dead, live):
        regions = [RegionLiveness(4, 0, 100, 0, 128)] * dead
        regions += [RegionLiveness(4, 2, 100, 50, 128)] * live
        return lambda p: fig10.RegionCDF("PR", 16, regions)

    assert fig10.check(fake(fig10, result(1, 1))) == []
    assert fig10.check(fake(fig10, result(1, 9))) == [
        "PR@16MB: reclaims 10% (<= 20%)"
    ]
    assert "PR@16MB: no H2 region allocated" in fig10.check(
        fake(fig10, result(0, 0))
    )


def fig11_result(card_16k=0.5, bfs_th_compact=2.0):
    def result(p):
        if p["panel"] == "a":
            return card_16k if p["card_segment_size"] == 16384 else 1.0
        if p["system"] == "giraph-ooc":
            return {"marking": 1.0, "compact": 3.0}
        return {"marking": 0.5, "compact": bfs_th_compact}

    return result


def test_fig11_card_sweep_improves_with_larger_segments():
    assert fig11.check(fake(fig11, fig11_result())) == []
    assert fig11.check(fake(fig11, fig11_result(card_16k=1.0))) == [
        "PR: 16 KB segments scan 1.000 s, 512 B 1.000 s"
    ]


def test_fig11_major_phases():
    assert fig11.check(fake(fig11, fig11_result(bfs_th_compact=4.0))) == [
        "BFS: TeraHeap major GC 4.5 s vs OOC 4.0 s",
        "TeraHeap major GC 4.5 s vs OOC 4.0 s",
    ]


def test_fig12_sd_panel():
    def result(th):
        return lambda p: run_result(p, th if p["system"] == "teraheap" else 100)

    assert fig12.check(fake(fig12, result(50.0))) == []
    assert fig12.check(fake(fig12, result(100.0))) == [
        "spark-sd/SVD: TeraHeap gain 0.0%"
    ]


def test_fig13_thread_scaling_directions():
    def result(cdlp_th_16t):
        at_16 = {"spark-sd": 120.0, "teraheap": 90.0, "giraph-ooc": 120.0}
        at_16["giraph-th"] = cdlp_th_16t
        return lambda p: run_result(
            p, at_16[p["system"]] if p["threads"] == 16 else 100.0
        )

    assert fig13.check(fake(fig13, result(90.0))) == []
    assert fig13.check(fake(fig13, result(120.0))) == [
        "CDLP: 16/8-thread time ratio {'giraph-ooc': 1.2, 'giraph-th': 1.2}"
    ]


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
