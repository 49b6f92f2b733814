"""VMs in one process are independent: build order and interleaving do
not change any tenant's results.

Three tenants build their VMs in one process: an LR-shaped job on
Spark-SD, a PageRank-shaped job on Spark over TeraHeap and a CDLP job on
Giraph over TeraHeap.  Each is a generator that yields after every step.
Hypothesis draws the order the tenants are built in and how their steps
interleave; each tenant's summary must equal the summary it produces
when it runs alone in a fresh interpreter.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import Clock, JavaVM, TeraHeapConfig, VMConfig, gb
from repro.devices.nvme import NVMeSSD
from repro.frameworks.giraph import GiraphConf, GiraphJob, GiraphMode
from repro.frameworks.giraph.programs import CDLPProgram
from repro.frameworks.giraph.workloads import make_giraph_graph
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.units import KiB


def spark_sd_lr():
    vm = JavaVM(
        VMConfig(
            heap_size=gb(6),
            collector="ps",
            page_cache_size=gb(2),
            young_fraction=1.0 / 3.0,
        )
    )
    ctx = SparkContext(
        vm,
        SparkConf(
            cache_policy=CachePolicy.SD, offheap_device=NVMeSSD(vm.clock)
        ),
    )
    yield vm
    points = ctx.range_rdd(gb(8), chunk_size=8 * KiB, name="lr").persist()
    points.evaluate()
    yield vm
    for _ in range(2):
        points.foreach_cached(96)
        ctx.shuffle(64 * KiB)
        yield vm


def spark_th_pr():
    vm = JavaVM(
        VMConfig(
            heap_size=gb(4),
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(64), region_size=64 * KiB
            ),
            page_cache_size=gb(2),
            young_fraction=1.0 / 3.0,
        ),
        h2_device=NVMeSSD(Clock()),
    )
    ctx = SparkContext(
        vm,
        SparkConf(
            cache_policy=CachePolicy.TERAHEAP,
            offheap_device=NVMeSSD(vm.clock),
        ),
    )
    yield vm
    edges = ctx.range_rdd(gb(6), chunk_size=8 * KiB, name="pr").persist()
    edges.evaluate()
    yield vm
    for it in range(2):
        edges.map(
            ops_per_chunk=64, size_factor=0.12, name=f"pr-contribs-{it}"
        ).evaluate()
        ctx.shuffle(int(gb(6) * 0.10))
        yield vm


def giraph_th_cdlp():
    vm = JavaVM(
        VMConfig(
            heap_size=gb(2),
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(64), region_size=16 * KiB
            ),
            page_cache_size=gb(1),
        ),
        h2_device=NVMeSSD(Clock()),
    )
    graph = make_giraph_graph(gb(1), seed=7)
    job = GiraphJob(
        vm, GiraphConf(mode=GiraphMode.TERAHEAP, device=NVMeSSD(vm.clock)),
        graph,
    )
    yield vm
    job.load_graph()
    yield vm
    job.run(CDLPProgram(graph))
    yield vm


TENANTS = {
    "spark-sd-lr": spark_sd_lr,
    "spark-th-pr": spark_th_pr,
    "giraph-th-cdlp": giraph_th_cdlp,
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def summary(vm) -> dict:
    """Clock buckets, GC counts and every store row's name/size/address."""
    store = vm.store
    return {
        "buckets": {k: repr(v) for k, v in sorted(vm.breakdown().items())},
        "minor_gcs": vm.collector.stats.minor_count,
        "major_gcs": vm.collector.stats.major_count,
        "objects": store.object_count,
        "names": _sha(json.dumps(store.name).encode()),
        "sizes": _sha(store.size.tobytes()),
        "addresses": _sha(store.address.tobytes()),
    }


def run_alone(name: str) -> dict:
    vm = None
    for vm in TENANTS[name]():
        pass
    return summary(vm)


@pytest.fixture(scope="module")
def reference():
    """Each tenant's summary, run alone in its own fresh interpreter."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    here = str(Path(__file__).resolve().parent)
    out = {}
    for name in TENANTS:
        code = (
            f"import sys; sys.path[:0] = [{src!r}, {here!r}]; import json; "
            f"import test_tenant_order as t; "
            f"print(json.dumps(t.run_alone({name!r})))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        out[name] = json.loads(proc.stdout)
    return out


#: yields per tenant generator: build, load/cache, then its work steps
STEPS = {"spark-sd-lr": 4, "spark-th-pr": 4, "giraph-th-cdlp": 3}

#: a drawn interleaving: one tenant name per step, in run order; a
#: tenant's first entry builds its VM
schedules = st.permutations(
    [name for name in TENANTS for _ in range(STEPS[name])]
)


@settings(max_examples=5, deadline=None)
@given(schedule=schedules)
def test_tenants_in_any_order_match_running_alone(reference, schedule):
    running = {name: make() for name, make in TENANTS.items()}
    vms = {}
    for name in schedule:
        vms[name] = next(running[name])
    for name, gen in running.items():
        assert next(gen, None) is None, f"{name} has steps left"
    for name, vm in vms.items():
        assert summary(vm) == reference[name], name
