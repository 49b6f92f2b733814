"""Figure 6: performance under fixed DRAM size (NVMe server).

For every Spark workload, Spark-SD runs at each Figure 6 DRAM point and
TeraHeap at its two points; for every Giraph workload, Giraph-OOC and
TeraHeap run at the Table 4 DRAM points.  Results are normalised to the
first non-OOM bar, and OOM bars are reported as missing — reproducing
both the speedups (up to 73% / 28%) and the DRAM-reduction story (up to
4.6x / 1.2x less DRAM at equal-or-better performance).  The smoke matrix
is Spark SVD and Giraph BFS, the latter on the small smoke dataset.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..metrics.report import ExperimentResult
from .configs import GIRAPH_WORKLOADS_TABLE4, SPARK_WORKLOADS_TABLE3, giraph_size
from .harness import Cell, Params, Spec, nest
from .runner import cell, run_cell

#: iteration-count scale of the Spark cells
SPARK_SCALE = 0.4

#: Spark workloads whose best Spark-SD bar, at the largest DRAM point
#: (about 1.8x TeraHeap's largest), beats TeraHeap's best bar
SD_BEST_AT_MORE_DRAM = {"PR", "CC", "BC"}


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    out = []
    for name in ["SVD"] if smoke else SPARK_WORKLOADS_TABLE3:
        cfg = SPARK_WORKLOADS_TABLE3[name]
        out += [
            cell("spark", name, system, dram_gb=dram, scale=SPARK_SCALE)
            for system, drams in (
                ("spark-sd", cfg.sd_drams),
                ("teraheap", cfg.th_drams),
            )
            for dram in drams
        ]
    for name in ["BFS"] if smoke else GIRAPH_WORKLOADS_TABLE4:
        out += [
            cell("giraph", name, system, **giraph_size(name, smoke, dram))
            for system in ("giraph-ooc", "giraph-th")
            for dram in GIRAPH_WORKLOADS_TABLE4[name].drams
        ]
    return out


def _bars(cells: List[Cell], framework: str):
    """``framework``'s results[workload][system][DRAM GB]."""
    return nest(cells, "workload", "system", "dram_gb", framework=framework)


def _completed(bars: Dict[float, ExperimentResult]) -> Dict[float, float]:
    return {dram: r.total for dram, r in bars.items() if not r.oom}


def check(cells: List[Cell]) -> List[str]:
    """Per workload, both systems complete somewhere and the best TeraHeap
    bar beats the best baseline bar (Spark: except
    :data:`SD_BEST_AT_MORE_DRAM`); TeraHeap beats Spark-SD at every DRAM
    point both run (paper: 18-73%); some Spark bar OOMs (Figure 6's
    missing bars)."""
    failures = []
    compared = 0
    for framework, base_system, th_system, exempt in (
        ("spark", "spark-sd", "teraheap", SD_BEST_AT_MORE_DRAM),
        ("giraph", "giraph-ooc", "giraph-th", ()),
    ):
        for name, by in _bars(cells, framework).items():
            base, th = _completed(by[base_system]), _completed(by[th_system])
            if not (base and th):
                failures.append(f"{name}: {base_system} or {th_system} "
                                "never completes")
                continue
            best_base, best_th = min(base.values()), min(th.values())
            if name not in exempt and round(1 - best_th / best_base, 3) <= 0:
                failures.append(f"{name}: best {th_system} {best_th:.1f} s "
                                f"not below best {base_system} "
                                f"{best_base:.1f} s")
            if framework == "spark":
                for dram in sorted(set(base) & set(th)):
                    compared += 1
                    if round(1 - th[dram] / base[dram], 3) <= 0:
                        failures.append(
                            f"{name}@{dram}GB: teraheap {th[dram]:.1f} s "
                            f"not below spark-sd {base[dram]:.1f} s"
                        )
    spark = [c.result for c in cells if c.params["framework"] == "spark"]
    if spark and not compared:
        failures.append("no DRAM point where both Spark systems complete")
    if spark and not any(r.oom for r in spark):
        failures.append("no OOM bar among the Spark cells")
    return failures


def format_results(results: Dict[str, List[ExperimentResult]]) -> str:
    lines = []
    for name, rows in results.items():
        lines.append(f"== {name} ==")
        baseline = next(
            (r.total for r in rows if not r.oom and r.total), None
        )
        for r in rows:
            lines.append("  " + r.row(baseline))
    return "\n".join(lines)


def report(cells: List[Cell]) -> str:
    """The Spark half, then the Giraph half."""
    return "\n".join(
        format_results(
            {
                name: [r for bars in by.values() for r in bars.values()]
                for name, by in _bars(cells, framework).items()
            }
        )
        for framework in ("spark", "giraph")
    )


SPEC = Spec(
    name="fig06",
    description="Figure 6: Spark-SD and Giraph-OOC vs TeraHeap at fixed DRAM",
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=report,
)
