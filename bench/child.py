"""One benchmark job in a fresh process: set up a workload, run it, report.

``run.py`` starts this script once per sample, one child at a time, with
``PYTHONPATH=src``; it prints one JSON object as its last stdout line::

    PYTHONPATH=src python bench/child.py --workload spark-th-pr --seed 42
    PYTHONPATH=src python bench/child.py --workload giraph-ooc-cdlp --setup-only
    PYTHONPATH=src python bench/child.py --workload spark-sd-lr --trace-out t.json

``setup_s`` runs from this file's first statement (before ``import
repro``) to the measured call: imports, VM/context build and graph
generation.  ``wall_s`` is the measured call alone.  A failure inside the
measured call (OOM included) is reported as ``ok: false``; a failure in
set-up means the benchmark itself is broken and exits non-zero.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

#: The four jobs, pinned here rather than taken from repro.experiments so
#: that a change to the experiment tables cannot silently resize the
#: benchmark.  Spark sizes follow Fig. 13b's rule (DRAM = 0.85 x dataset
#: + 16 GB, of which 16 GB is DR2); Giraph splits DRAM into heap and DR2
#: by Table 4's CDLP row (TeraHeap 60:25, OOC 70:15).  Datasets are sized
#: so one job takes 4-6 s of host time (2-vCPU x86 host): a run of the
#: benchmark then holds several jobs and reports their median.
#:
#: ``--seed`` picks the giraph-th-cdlp graph.  Spark inputs have no random
#: part.  The giraph-ooc-cdlp graph is pinned (``graph_seed``): the OOC
#: scheduler's offload decisions swing its host time between 4.4 and 7.4 s
#: across graphs of one size, far wider than any usable bound, so a seed
#: there would measure the graph instead of the code.
WORKLOADS = {
    "spark-th-pr": dict(
        framework="spark", program="PR", teraheap=True,
        dataset_gb=216, dram_gb=199, scale=2.0,
    ),
    "spark-sd-lr": dict(
        framework="spark", program="LR", teraheap=False,
        dataset_gb=216, dram_gb=199, scale=1.0,
    ),
    "giraph-th-cdlp": dict(
        framework="giraph", program="CDLP", teraheap=True,
        dataset_gb=114, dram_gb=114, heap_share=60 / 85,
    ),
    "giraph-ooc-cdlp": dict(
        framework="giraph", program="CDLP", teraheap=False,
        dataset_gb=57, dram_gb=57, heap_share=70 / 85, graph_seed=42,
    ),
}

SPARK_DR2_GB = 16
SPARK_H2_REGION_KIB = 64
GIRAPH_H2_REGION_KIB = 16
H2_SIZE_GB = 2048
THREADS = 8


def build(spec: dict, seed: int):
    """Build the VM; return it with ``measured()``, the call ``wall_s`` times.

    ``measured()`` returns the framework object whose counters the
    summary reads (the SparkContext or the GiraphJob).
    """
    from repro import Clock, JavaVM, TeraHeapConfig, VMConfig, gb
    from repro.devices.nvme import NVMeSSD
    from repro.units import KiB

    teraheap = spec["teraheap"]
    if spec["framework"] == "spark":
        from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
        from repro.frameworks.spark.workloads import SPARK_WORKLOADS

        dram = spec["dram_gb"]
        config = VMConfig(
            heap_size=gb(dram - SPARK_DR2_GB),
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=teraheap,
                h2_size=gb(H2_SIZE_GB),
                region_size=SPARK_H2_REGION_KIB * KiB,
            ),
            mutator_threads=THREADS,
            page_cache_size=gb(SPARK_DR2_GB),
            young_fraction=1.0 / 3.0,
        )
        vm = JavaVM(config, h2_device=NVMeSSD(Clock()) if teraheap else None)
        ctx = SparkContext(vm, SparkConf(
            cache_policy=CachePolicy.TERAHEAP if teraheap else CachePolicy.SD,
            offheap_device=NVMeSSD(vm.clock),
        ))
        program = SPARK_WORKLOADS[spec["program"]]
        dataset = gb(spec["dataset_gb"])

        def measured():
            program(ctx, dataset, scale=spec["scale"])
            return ctx

        return vm, measured

    from repro.frameworks.giraph import GiraphConf, GiraphMode
    from repro.frameworks.giraph.workloads import make_giraph_graph, run_giraph

    heap_gb = spec["dram_gb"] * spec["heap_share"]
    config = VMConfig(
        heap_size=gb(heap_gb),
        collector="ps",
        teraheap=TeraHeapConfig(
            enabled=teraheap,
            h2_size=gb(H2_SIZE_GB),
            region_size=GIRAPH_H2_REGION_KIB * KiB,
        ),
        mutator_threads=THREADS,
        page_cache_size=gb(spec["dram_gb"] - heap_gb),
    )
    vm = JavaVM(config, h2_device=NVMeSSD(Clock()) if teraheap else None)
    conf = GiraphConf(
        mode=GiraphMode.TERAHEAP if teraheap else GiraphMode.OOC,
        device=NVMeSSD(vm.clock),
    )
    graph = make_giraph_graph(
        gb(spec["dataset_gb"]), seed=spec.get("graph_seed", seed))

    def measured():
        return run_giraph(vm, conf, graph, spec["program"])

    return vm, measured


def summarize(vm, framework) -> dict:
    """The simulated result: bucket seconds plus the modelled counters.

    Every value is a property of the simulation, so it repeats exactly
    for one seed whatever the host speed or tracing.
    """
    breakdown = vm.breakdown()
    devices, caches = [], []
    if vm.h2 is not None:
        devices.append(vm.h2.device)
        caches.append(vm.h2.page_cache)
    ooc = None
    supersteps = 0
    if hasattr(framework, "supersteps_run"):  # GiraphJob
        devices.append(framework.conf.device)
        supersteps = framework.supersteps_run
        ooc = framework.ooc
        if ooc is not None:
            caches.append(ooc.cache)
    else:  # SparkContext
        devices.append(framework.conf.offheap_device)
    h2 = vm.h2
    serializer = vm.serializer
    counters = {
        "gc.minor_count": vm.collector.stats.minor_count,
        "gc.major_count": vm.collector.stats.major_count,
        "gc.sim_minor_s": breakdown["minor_gc"],
        "gc.sim_major_s": breakdown["major_gc"],
        "teraheap.h2_bytes_moved": h2.bytes_moved if h2 else 0,
        "teraheap.regions_allocated": h2.regions_allocated_total if h2 else 0,
        "teraheap.regions_reclaimed": h2.regions_reclaimed if h2 else 0,
        "devices.pc_hits": sum(c.hits for c in caches),
        "devices.pc_misses": sum(c.misses for c in caches),
        "devices.bytes_read": sum(d.traffic.bytes_read for d in devices),
        "devices.bytes_written": sum(d.traffic.bytes_written for d in devices),
        "serdes.sim_s": breakdown["sd_io"],
        "serdes.bytes": (
            serializer.bytes_serialized + serializer.bytes_deserialized
        ),
        "giraph.ooc_offloads": ooc.offload_events if ooc else 0,
        "giraph.bytes_offloaded": ooc.bytes_offloaded if ooc else 0,
        "giraph.bytes_reloaded": ooc.bytes_reloaded if ooc else 0,
        "giraph.supersteps": supersteps,
        "heap.objects_allocated": vm.store.object_count,
    }
    return {
        "buckets": {k: breakdown[k] for k in sorted(breakdown)},
        "counters": counters,
    }


def digest(summary: dict) -> str:
    """Digest of a summary; floats enter as ``repr`` so every bit counts."""
    lines = [f"bucket.{k}={v!r}" for k, v in sorted(summary["buckets"].items())]
    lines += [f"{k}={v!r}" for k, v in sorted(summary["counters"].items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop before the measured call (a set-up time sample)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="wrap the layers, time them, and write a Chrome trace to PATH",
    )
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    vm, measured = build(WORKLOADS[args.workload], args.seed)
    start = time.perf_counter()
    out = {"workload": args.workload, "seed": args.seed,
           "setup_s": start - T0}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    try:
        framework = measured()
        error = None
    except Exception as exc:  # a failed job is a result, counted by run.py
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}".splitlines()[0]
    wall = time.perf_counter() - start
    out.update(
        wall_s=wall,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ok=error is None,
        error=error,
    )
    if error is None:
        summary = summarize(vm, framework)
        out.update(summary, digest=digest(summary))
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        tracer.write_chrome_trace(args.trace_out, origin=start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
