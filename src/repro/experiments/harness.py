"""One harness for every experiment: a spec each, one runner.

A :class:`Spec` lists a matrix's cells (the full one, or the smoke one
tier-1 runs), runs one, checks the finished matrix and renders it (and,
optionally, its CSV/Chrome-trace artifacts).  The paper's figures and
tables and the six gated experiments are all specs.
The runner digests each cell's result (sha256 of its sorted-key JSON;
floats in ``repr`` form), runs every cell twice and fails on any drift,
then applies the check; artifacts are rendered from the first runs, so
no cell runs a third time.  Every cell runs under the caller's
:class:`~repro.faults.session.RunSession` (``run_cell(..., session=)``).
Result fields declared with :func:`handle` (a VM, a server box) stay out
of the digest and are released unless an artifact needs them.  See
docs/architecture.md, "Experiment harness".
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..faults.session import RunSession

Params = Dict[str, Any]

#: the paper's figures and tables, one ``SPEC`` each, in CLI order
FIGURE_MODULES: Tuple[str, ...] = (
    "table5",
    "barrier",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
)

#: the gated experiments, one ``SPEC`` each, in CLI order
GATED_MODULES: Tuple[str, ...] = (
    "gc_scaling",
    "chaoskill",
    "brownout",
    "phoenix",
    "streamscale",
    "serverscale",
)


def handle() -> Any:
    """A result field the digest skips: a run-local object kept for export."""
    return dataclasses.field(
        default=None, repr=False, compare=False, metadata={"digest": False}
    )


def canonical(value: Any) -> Any:
    """``value`` as plain JSON data; :func:`handle` fields are dropped."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("digest", True)
        }
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(type(value), "__slots__"):  # a slotted record
        return {
            name: canonical(getattr(value, name))
            for name in type(value).__slots__
        }
    return value


def digest(value: Any) -> str:
    """sha256 of ``value``'s canonical JSON (sorted keys; json.dumps writes
    a float as its ``repr``)."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Cell:
    """One finished cell: its key, parameters, first-run result, digest,
    and the session it ran under (for baselines its check recomputes)."""

    key: str
    params: Params
    result: Any
    digest: str
    session: Optional[RunSession]


def nest(cells: List[Cell], *axes: str, **where: Any) -> Dict[Any, Any]:
    """The results of the cells whose params match ``where``, nested by
    the params named in ``axes``, in cell order."""
    out: Dict[Any, Any] = {}
    for c in cells:
        if all(c.params.get(k) == v for k, v in where.items()):
            node = out
            for axis in axes[:-1]:
                node = node.setdefault(c.params[axis], {})
            node[c.params[axes[-1]]] = c.result
    return out


@dataclass(frozen=True)
class Spec:
    """An experiment as the runner sees it."""

    name: str
    description: str
    cells: Callable[[bool], List[Tuple[str, Params]]]
    run_cell: Callable[..., Any]
    check: Callable[[List[Cell]], List[str]]
    report: Callable[[List[Cell]], str]
    csv: Optional[Callable[[List[Cell]], str]] = None
    trace: Optional[Callable[[List[Cell]], str]] = None


def run(
    spec: Spec,
    smoke: bool = False,
    fault_seed: Optional[int] = None,
    keep_handles: bool = False,
    session: Optional[RunSession] = None,
) -> Tuple[List[Cell], List[str]]:
    """Run every cell twice, then ``check``; returns (cells, failures).

    ``fault_seed`` replaces the ``fault_seed`` parameter of the cells
    that take one.
    """
    cells: List[Cell] = []
    failures: List[str] = []
    for key, params in spec.cells(smoke):
        if fault_seed is not None and "fault_seed" in params:
            params = dict(params, fault_seed=fault_seed)
        result = spec.run_cell(**params, session=session)
        first = digest(result)
        if digest(spec.run_cell(**params, session=session)) != first:
            failures.append(f"{key}: digest differs across reruns")
        if not keep_handles and dataclasses.is_dataclass(result):
            for f in dataclasses.fields(result):
                if not f.metadata.get("digest", True):
                    setattr(result, f.name, None)
        cells.append(Cell(key, params, result, first, session))
    failures.extend(spec.check(cells))
    return cells, failures


def run_cli(
    spec: Spec,
    smoke: bool = False,
    fault_seed: Optional[int] = None,
    csv_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    session: Optional[RunSession] = None,
) -> int:
    """Run, print the report, write the artifacts; 1 on any failure."""
    artifacts = [
        (path, render)
        for path, render in ((csv_out, spec.csv), (trace_out, spec.trace))
        if path
    ]
    cells, failures = run(
        spec, smoke, fault_seed, keep_handles=bool(artifacts), session=session
    )
    print(spec.report(cells))
    for path, render in artifacts:
        with open(path, "w", newline="") as f:
            f.write(render(cells))
        print(f"wrote {path}")
    print()
    if failures:
        print(f"{len(failures)} failure(s):")
        print("\n".join(f"  {msg}" for msg in failures))
        return 1
    print(
        f"{spec.name}: {len(cells)} cells passed acceptance, "
        "each byte-identical across two runs"
    )
    return 0


def specs(
    modules: Tuple[str, ...] = FIGURE_MODULES + GATED_MODULES,
) -> Dict[str, Spec]:
    """The specs of ``modules`` (default: every experiment), keyed by CLI
    name, in CLI order."""
    found = [import_module(f"{__package__}.{m}").SPEC for m in modules]
    return {spec.name: spec for spec in found}
