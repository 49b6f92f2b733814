"""Device brownout end-to-end: the health watchdog sees a slow device,
the H2 governor trips its circuit, caching falls back gracefully, and
half-open probes re-close the circuit once the device recovers.

Builds one governed TeraHeap VM with a scheduled brownout window (50%
service rate, region allocations denied) and drives a small caching
workload across it, printing the device-health and circuit timelines as
they unfold.  Then points at the `brownout` experiment for the full
governor-on/off matrix.

Run:  python examples/device_brownout.py
"""

from repro import FaultConfig, JavaVM, TeraHeapConfig, VMConfig, gb
from repro.config import GovernorConfig
from repro.devices.base import AccessPattern
from repro.metrics.trace import resilience_events_csv
from repro.units import KiB

#: brownout window: starts at 0.2 simulated seconds, lasts 0.5 s,
#: during which the device delivers half its clean service rate
WINDOW = (0.2, 0.5, 0.5)


def make_vm() -> JavaVM:
    return JavaVM(
        VMConfig(
            heap_size=gb(4),
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(64), region_size=16 * KiB
            ),
            page_cache_size=64 * KiB,  # tiny: loads go to the device
            faults=FaultConfig(seed=42, brownout_windows=(WINDOW,)),
            governor=GovernorConfig(probe_backoff=0.01),
        )
    )


def main() -> None:
    vm = make_vm()
    vm.health.add_listener(
        lambda t: print(f"  [health]  {t.line()}")
    )

    groups = []
    for g in range(10):
        label = f"rdd-{g}"
        with vm.roots.frame() as frame:
            records = [frame.push(vm.allocate(4096)) for _ in range(12)]
            root = vm.allocate(1024, refs=records, name=label)
        vm.roots.add(root)
        vm.h2_tag_root(root, label)
        vm.h2_move(label)
        vm.major_gc()
        groups.append(records)
        # Stream reads over everything cached so far: H2-resident loads
        # miss the tiny page cache and feed the health monitor.
        for cached in groups:
            for record in cached:
                vm.read_object(record, AccessPattern.RANDOM)

    print("\ncircuit timeline:")
    for line in vm.governor.timeline_digest().splitlines():
        print(f"  {line}")
    print(f"\ngovernor: {vm.governor.describe()}")
    print(f"devices:  {vm.health.describe()}")
    print(
        f"halts={vm.collector.policy.governor_halts} "
        f"alloc_stalls={vm.alloc_stalls} "
        f"emergency_gcs={vm.emergency_gcs}"
    )

    print("\nresilience events CSV (first lines):")
    for line in resilience_events_csv(vm.resilience.log).splitlines()[:12]:
        print(f"  {line}")

    print(
        "\nFull governor-on/off matrix: "
        "python -m repro brownout  (see EXPERIMENTS.md)"
    )


if __name__ == "__main__":
    main()
