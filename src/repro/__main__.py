"""Command-line entry point: run paper experiments from the shell.

Usage::

    python -m repro list
    python -m repro fig06 --workloads PR LR --scale 0.5
    python -m repro fig12 --panel spark-mo
    python -m repro gcscale --smoke
    python -m repro phoenix --csv-out phoenix.csv --trace-out phoenix.json

Figures and tables take ``--workloads``, ``--scale`` and ``--panel``.
The gated experiments run on the experiment harness (``--smoke`` picks
the small matrix; exit 1 on digest drift or a failed check), and those
with an exporter take ``--csv-out``/``--trace-out``.  Every experiment
takes ``--faults SEED`` (with ``--fault-rate``), ``--fault-seed`` and
``--audit``; the first and last arm one
:class:`~repro.faults.session.RunSession` that every VM the experiment
builds takes its defaults from and reports into.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from .faults.plan import FaultConfig
from .faults.session import RunSession
from .experiments import (
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


def _fig06(args: argparse.Namespace, session: RunSession) -> str:
    text = fig06.format_results(
        fig06.run_spark(
            workloads=args.workloads, scale=args.scale, session=session
        )
    )
    if not args.workloads:
        text += "\n" + fig06.format_results(fig06.run_giraph(session=session))
    return text


#: figure/table name -> report text for the parsed arguments and session
FIGURES: Dict[str, Callable[[argparse.Namespace, RunSession], str]] = {
    "table5": lambda a, s: table5.format_results(table5.run()),
    "barrier": lambda a, s: barrier.format_result(barrier.run(session=s)),
    "fig06": _fig06,
    "fig07": lambda a, s: fig07.format_results(
        fig07.run(scale=a.scale, session=s)
    ),
    "fig08": lambda a, s: fig08.format_results(
        fig08.run(workloads=a.workloads, scale=a.scale, session=s)
    ),
    "fig09a": lambda a, s: fig09.format_pairs(
        fig09.run_hint_ablation(a.workloads, session=s)
    ),
    "fig09b": lambda a, s: fig09.format_pairs(
        fig09.run_low_threshold_ablation(session=s)
    ),
    "fig10": lambda a, s: fig10.format_results(
        fig10.run(workloads=a.workloads, session=s)
    ),
    "fig11a": lambda a, s: fig11.format_card_sweep(
        fig11.run_card_segment_sweep(workloads=a.workloads, session=s)
    ),
    "fig11b": lambda a, s: fig11.format_phases(
        fig11.run_major_phase_breakdown(workloads=a.workloads, session=s)
    ),
    "fig12": lambda a, s: fig12.format_pairs(
        fig12.run_panel(
            a.panel, workloads=a.workloads, scale=a.scale, session=s
        )
    ),
    "fig13a": lambda a, s: fig13.format_thread_scaling(
        fig13.run_thread_scaling(scale=a.scale, session=s)
    ),
    "fig13b": lambda a, s: fig13.format_dataset_scaling(
        fig13.run_dataset_scaling(scale=a.scale, session=s)
    ),
}

#: gated experiment name -> harness spec
GATED = harness.specs()


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--faults",
        type=int,
        default=None,
        metavar="SEED",
        help="inject deterministic H2 faults with this seed",
    )
    common.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        help="per-operation fault probability (needs --faults; "
        "default 0.01)",
    )
    common.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="decouple the fault/crash schedule from the workload seed "
        "(default: derived from --faults)",
    )
    common.add_argument(
        "--audit",
        choices=["cheap", "full"],
        default=None,
        help="verify heap invariants after every GC cycle",
    )
    figure = argparse.ArgumentParser(add_help=False)
    figure.add_argument(
        "--workloads", nargs="*", default=None, help="subset of workloads"
    )
    figure.add_argument(
        "--scale", type=float, default=1.0, help="iteration-count scale"
    )
    figure.add_argument(
        "--panel",
        default="spark-sd",
        choices=["spark-sd", "spark-mo", "panthera"],
        help="figure 12 panel",
    )

    parser = argparse.ArgumentParser(
        prog="repro", description="TeraHeap reproduction experiment runner"
    )
    sub = parser.add_subparsers(
        dest="experiment", required=True, metavar="experiment"
    )
    sub.add_parser("list", help="print every experiment name")
    for name in FIGURES:
        sub.add_parser(name, parents=[common, figure], help="paper result")
    for name, spec in GATED.items():
        gated = sub.add_parser(name, parents=[common], help=spec.description)
        gated.add_argument(
            "--smoke", action="store_true", help="the small CI matrix"
        )
        if spec.csv:
            gated.add_argument(
                "--csv-out", metavar="PATH", help="write the CSV artifact"
            )
        if spec.trace:
            gated.add_argument(
                "--trace-out",
                metavar="PATH",
                help="write the Chrome-trace artifact",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("\n".join([*FIGURES, *GATED]))
        return 0

    if args.fault_rate is not None and args.faults is None:
        parser.error("--fault-rate has no effect without --faults")
    faults = None
    if args.faults is not None:
        rate = 0.01 if args.fault_rate is None else args.fault_rate
        faults = FaultConfig(
            seed=args.faults,
            fault_seed=args.fault_seed,
            read_error_rate=rate,
            write_error_rate=rate,
            latency_spike_rate=rate,
            sigbus_rate=rate / 4,
            device_full_rate=rate / 10,
        )
    session = RunSession(faults=faults, audit=args.audit)
    status = 0
    if args.experiment in FIGURES:
        print(FIGURES[args.experiment](args, session))
    else:
        status = harness.run_cli(
            GATED[args.experiment],
            smoke=args.smoke,
            fault_seed=args.fault_seed,
            csv_out=getattr(args, "csv_out", None),
            trace_out=getattr(args, "trace_out", None),
            session=session,
        )

    if args.faults is not None or args.audit is not None:
        summary = session.summary()
        print(
            "resilience: "
            f"faults_injected={summary['faults_injected']:.0f} "
            f"ops_retried={summary['ops_retried']:.0f} "
            f"retry_exhaustions={summary['retry_exhaustions']:.0f} "
            f"degradations={summary['degradations']:.0f} "
            f"crashes={summary['crashes']:.0f} "
            f"recoveries={summary['recoveries']:.0f} "
            f"audits_run={summary['audits_run']:.0f} "
            f"invariant_violations={summary['invariant_violations']:.0f}"
        )
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
