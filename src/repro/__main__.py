"""Command-line entry point: run paper experiments from the shell.

Usage::

    python -m repro list
    python -m repro fig06 --smoke
    python -m repro fig08
    python -m repro gcscale --smoke
    python -m repro phoenix --csv-out phoenix.csv --trace-out phoenix.json

Every experiment — the paper's figures and tables and the gated
experiments — runs on the experiment harness: ``--smoke`` picks the
small matrix tier-1 runs, every cell runs twice, and the exit status is
1 on digest drift or a failed check.  Those with an exporter take
``--csv-out``/``--trace-out``.  Every experiment takes ``--faults SEED``
(with ``--fault-rate``), ``--fault-seed`` and ``--audit``; the first and
last arm one :class:`~repro.faults.session.RunSession` that every VM the
experiment builds takes its defaults from and reports into.
"""

from __future__ import annotations

import argparse
import sys

from .faults.plan import FaultConfig
from .faults.session import RunSession
from .experiments import harness

#: experiment name -> harness spec, in CLI order
SPECS = harness.specs()


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

    parser = argparse.ArgumentParser(
        prog="repro", description="TeraHeap reproduction experiment runner"
    )
    sub = parser.add_subparsers(
        dest="experiment", required=True, metavar="experiment"
    )
    sub.add_parser("list", help="print every experiment name")
    for name, spec in SPECS.items():
        experiment = sub.add_parser(
            name, parents=[common], help=spec.description
        )
        experiment.add_argument(
            "--smoke", action="store_true", help="the small CI matrix"
        )
        if spec.csv:
            experiment.add_argument(
                "--csv-out", metavar="PATH", help="write the CSV artifact"
            )
        if spec.trace:
            experiment.add_argument(
                "--trace-out",
                metavar="PATH",
                help="write the Chrome-trace artifact",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("\n".join(SPECS))
        return 0

    spec = SPECS[args.experiment]
    if args.fault_rate is not None and args.faults is None:
        parser.error("--fault-rate has no effect without --faults")
    if args.fault_rate is not None and not 0.0 <= args.fault_rate <= 1.0:
        parser.error("--fault-rate must be in [0, 1]")
    seeded = any("fault_seed" in p for _, p in spec.cells(args.smoke))
    if args.fault_seed is not None and args.faults is None and not seeded:
        parser.error("--fault-seed has no effect on this matrix without --faults")
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
    status = harness.run_cli(
        spec,
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
