"""Builds configured VMs and runs workloads under each evaluated system.

Systems (Table 2 plus the Figure 8/12 baselines):

- ``spark-sd``   — PS (jdk8), on-heap cache + serialized off-heap store
- ``spark-sd11`` — same but the optimised jdk11 PS (Figure 8)
- ``spark-g1``   — G1 on jdk17 (Figure 8)
- ``spark-mo``   — heap over NVM in Memory mode, all cached data on-heap
- ``panthera``   — hybrid DRAM/NVM heap (Figure 12c)
- ``teraheap``   — H1 in DRAM + H2 over the device
- ``giraph-ooc`` — Giraph out-of-core
- ``giraph-th``  — Giraph over TeraHeap
"""

from __future__ import annotations

from typing import Optional

from ..config import PantheraConfig, TeraHeapConfig, VMConfig
from ..devices.base import Device
from ..devices.nvm import NVM
from ..devices.nvme import NVMeSSD
from ..errors import OutOfMemoryError
from ..faults.session import RunSession
from ..frameworks.giraph import GiraphConf, GiraphMode
from ..frameworks.giraph.workloads import make_giraph_graph, run_giraph
from ..frameworks.spark import CachePolicy, SparkConf, SparkContext
from ..frameworks.spark.workloads import SPARK_WORKLOADS
from ..metrics.report import ExperimentResult, collect_result
from ..runtime import JavaVM
from ..units import KiB, gb
from .configs import (
    GIRAPH_WORKLOADS_TABLE4,
    GiraphWorkloadConfig,
    SPARK_DR2_GB,
    SPARK_WORKLOADS_TABLE3,
    SparkWorkloadConfig,
)

#: H2 region sizes used in the experiments (paper-scale 64 MB / 16 MB)
SPARK_H2_REGION = 64 * KiB
GIRAPH_H2_REGION = 16 * KiB


def _make_device(kind: str, vm_clock) -> Device:
    if kind == "nvme":
        return NVMeSSD(vm_clock)
    if kind == "nvm":
        return NVM(vm_clock)
    raise ValueError(f"unknown device kind {kind!r}")


# ======================================================================
# Spark
# ======================================================================
def build_spark_vm(
    system: str,
    dram_gb: float,
    cfg: SparkWorkloadConfig,
    device_kind: str = "nvme",
    threads: int = 8,
    teraheap_overrides: Optional[dict] = None,
    session: Optional[RunSession] = None,
):
    """Construct (vm, ctx) for one Spark experiment cell."""
    heap_gb = max(dram_gb - SPARK_DR2_GB, dram_gb / 2)
    th_enabled = system == "teraheap"
    th_kwargs = dict(
        enabled=th_enabled,
        h2_size=gb(2048),
        region_size=SPARK_H2_REGION,
        huge_pages=cfg.huge_pages,
    )
    if teraheap_overrides:
        th_kwargs.update(teraheap_overrides)
    collector = {
        "spark-sd": "ps",
        "teraheap": "ps",
        "spark-sd11": "ps11",
        "spark-g1": "g1",
        "spark-mo": "memmode",
        "panthera": "panthera",
    }[system]
    if th_enabled:
        # H1 takes all of DRAM - DR2 (§6 explores 50-90% by hand)
        heap_gb = float(dram_gb - SPARK_DR2_GB)
    if system == "spark-mo":
        # Spark-MO: the minimum heap that fits all cached data on-heap
        # (Section 6) — large enough that the memory store never evicts;
        # the heap itself lives on NVM in Memory mode.
        heap_gb = max(cfg.dataset_gb * 1.8, dram_gb)
    panthera = None
    if system == "panthera":
        from .configs import PANTHERA_DRAM_OLD_GB, PANTHERA_HEAP_GB

        heap_gb = PANTHERA_HEAP_GB
        panthera = PantheraConfig(dram_old_size=gb(PANTHERA_DRAM_OLD_GB))
    vm_config = VMConfig(
        heap_size=gb(heap_gb),
        collector=collector,
        teraheap=TeraHeapConfig(**th_kwargs),
        panthera=panthera,
        mutator_threads=threads,
        page_cache_size=gb(SPARK_DR2_GB),
        young_fraction=1.0 / 6.0 if system == "panthera" else 1.0 / 3.0,
    )
    from ..clock import Clock

    h2_device = _make_device(device_kind, Clock()) if th_enabled else None
    # Panthera's NVM old generation; the VM rebinds it to its own clock.
    old_gen_device = NVM(Clock()) if system == "panthera" else None
    vm = JavaVM(
        vm_config,
        h2_device=h2_device,
        old_gen_device=old_gen_device,
        session=session,
    )
    offheap = _make_device(device_kind, vm.clock)
    policy = {
        "spark-sd": CachePolicy.SD,
        "spark-sd11": CachePolicy.SD,
        "spark-g1": CachePolicy.SD,
        "teraheap": CachePolicy.TERAHEAP,
        "spark-mo": CachePolicy.MO,
        "panthera": CachePolicy.MO,
    }[system]
    ctx = SparkContext(
        vm, SparkConf(cache_policy=policy, offheap_device=offheap)
    )
    return vm, ctx


def run_spark_workload(
    workload: str,
    system: str,
    dram_gb: float,
    cfg: SparkWorkloadConfig,
    device_kind: str = "nvme",
    scale: float = 1.0,
    threads: int = 8,
    dataset_gb: Optional[float] = None,
    teraheap_overrides: Optional[dict] = None,
    session: Optional[RunSession] = None,
) -> ExperimentResult:
    """Run one Spark experiment cell, capturing OOM as a missing bar."""
    vm, ctx = build_spark_vm(
        system,
        dram_gb,
        cfg,
        device_kind,
        threads,
        teraheap_overrides,
        session=session,
    )
    dataset = gb(dataset_gb if dataset_gb is not None else cfg.dataset_gb)
    oom = False
    try:
        SPARK_WORKLOADS[workload](ctx, dataset, scale=scale)
    except OutOfMemoryError:
        oom = True
    return collect_result(
        vm,
        workload,
        system,
        dram_gb,
        heap_gb=vm.config.heap_size / gb(1),
        oom=oom,
    )


# ======================================================================
# Giraph
# ======================================================================
def build_giraph_vm(
    system: str,
    dram_gb: float,
    cfg: GiraphWorkloadConfig,
    device_kind: str = "nvme",
    threads: int = 8,
    teraheap_overrides: Optional[dict] = None,
    session: Optional[RunSession] = None,
):
    th_enabled = system == "giraph-th"
    # Scale Table 4's heap/DR2 split to the requested DRAM.
    if th_enabled:
        frac = cfg.th_h1_gb / (cfg.th_h1_gb + cfg.th_dr2_gb)
    else:
        frac = cfg.ooc_heap_gb / (cfg.ooc_heap_gb + cfg.ooc_dr2_gb)
    heap_gb = dram_gb * frac
    dr2_gb = dram_gb - heap_gb
    th_kwargs = dict(
        enabled=th_enabled,
        h2_size=gb(2048),
        region_size=GIRAPH_H2_REGION,
    )
    if teraheap_overrides:
        th_kwargs.update(teraheap_overrides)
    vm_config = VMConfig(
        heap_size=gb(heap_gb),
        collector="ps",
        teraheap=TeraHeapConfig(**th_kwargs),
        mutator_threads=threads,
        page_cache_size=gb(dr2_gb),
    )
    from ..clock import Clock

    h2_device = _make_device(device_kind, Clock()) if th_enabled else None
    vm = JavaVM(vm_config, h2_device=h2_device, session=session)
    device = _make_device(device_kind, vm.clock)
    use_hint = True
    if teraheap_overrides and "use_move_hint" in teraheap_overrides:
        use_hint = teraheap_overrides["use_move_hint"]
    conf = GiraphConf(
        mode=GiraphMode.TERAHEAP if th_enabled else GiraphMode.OOC,
        device=device,
        use_move_hint=use_hint,
    )
    return vm, conf


def run_giraph_workload(
    workload: str,
    system: str,
    dram_gb: float,
    cfg: GiraphWorkloadConfig,
    device_kind: str = "nvme",
    threads: int = 8,
    dataset_gb: Optional[float] = None,
    teraheap_overrides: Optional[dict] = None,
    seed: int = 42,
    session: Optional[RunSession] = None,
):
    """Run one Giraph experiment cell; returns (result, vm, job)."""
    vm, conf = build_giraph_vm(
        system,
        dram_gb,
        cfg,
        device_kind,
        threads,
        teraheap_overrides,
        session=session,
    )
    graph = make_giraph_graph(
        gb(dataset_gb if dataset_gb is not None else cfg.dataset_gb),
        seed=seed,
    )
    oom = False
    job = None
    try:
        job = run_giraph(vm, conf, graph, workload)
    except OutOfMemoryError:
        oom = True
    result = collect_result(
        vm,
        workload,
        system,
        dram_gb,
        heap_gb=vm.config.heap_size / gb(1),
        oom=oom,
    )
    return result, vm, job


def cell(framework: str, workload: str, system: str, **params):
    """A ``(key, params)`` matrix entry for :func:`run_cell`."""
    return f"{workload}/{system}@{params['dram_gb']}GB", dict(
        framework=framework, workload=workload, system=system, **params
    )


def run_cell(
    framework: str,
    workload: str,
    system: str,
    dram_gb: float,
    scale: float = 1.0,
    threads: int = 8,
    dataset_gb: Optional[float] = None,
    teraheap_overrides: Optional[dict] = None,
    session: Optional[RunSession] = None,
) -> ExperimentResult:
    """One figure cell by workload name, under Table 3's (``"spark"``) or
    Table 4's (``"giraph"``; ``scale`` unused) configuration."""
    kwargs = dict(
        threads=threads,
        dataset_gb=dataset_gb,
        teraheap_overrides=teraheap_overrides,
        session=session,
    )
    if framework == "spark":
        cfg = SPARK_WORKLOADS_TABLE3[workload]
        return run_spark_workload(
            workload, system, dram_gb, cfg, scale=scale, **kwargs
        )
    cfg = GIRAPH_WORKLOADS_TABLE4[workload]
    return run_giraph_workload(workload, system, dram_gb, cfg, **kwargs)[0]
