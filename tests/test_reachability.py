"""Every function, method and class in ``src/repro`` is reached by name.

What runs is the CLI, the experiment specs, the benchmark jobs and the
examples, so a definition counts as used when a ``Name``, an
``Attribute`` or a string constant somewhere in ``src/``, ``bench/`` or
``examples/`` carries its name.  Importing or re-exporting a name is not
a use: an import statement and the strings of an ``__all__`` list do not
count, and a name imported under an ``as`` alias counts where the alias
is used.  A reference inside the definition's own body (recursion, or a
method calling its namesake on another object) does not count.  String
constants count because ``bench/layers.py`` wraps its entry points by
name.  Dunder methods are called by Python itself and are skipped.

Definitions only tests refer to are listed in :data:`ALLOWED`, each
keyed by its one definition (``path:Qualname``) with the reason it stays,
so an entry never covers a namesake defined elsewhere; anything else
unreferenced is dead code to delete.
"""

import ast
from functools import cache
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "bench", "examples")

#: definitions (``path:Qualname``) no program code refers to, kept on
#: purpose
ALLOWED: Dict[str, str] = {
    "src/repro/clock.py:Clock.snapshot": "test observation accessor",
    "src/repro/clock.py:Clock.sub_breakdown": (
        "test observation accessor (golden clock digests)"
    ),
    "src/repro/devices/base.py:DeviceTraffic.snapshot": (
        "test observation accessor"
    ),
    "src/repro/devices/durability.py:DurableImage.is_durable": (
        "test observation accessor (crash image pages)"
    ),
    "src/repro/devices/health.py:DeviceHealthMonitor.slo_violations": (
        "test observation accessor"
    ),
    "src/repro/devices/health.py:DeviceHealthMonitor.state_of": (
        "test observation accessor"
    ),
    "src/repro/frameworks/spark/rdd.py:RDD.unpersist": (
        "Spark API twin of persist; tests evict through it"
    ),
    "src/repro/gc/engine/engine.py:PhaseExecution.charged_seconds": (
        "test observation accessor (engine phase charge)"
    ),
    "src/repro/heap/card_table.py:CardTable.dirty_count": (
        "test observation accessor"
    ),
    "src/repro/heap/card_table.py:CardTable.is_dirty": (
        "test observation accessor"
    ),
    "src/repro/heap/heap.py:ManagedHeap.all_oids": (
        "test observation accessor (every live heap object)"
    ),
    "src/repro/server/box.py:Tenant.attach_vm": (
        "tenant restart hook the tenant-isolation tests drive"
    ),
    "src/repro/teraheap/h2_heap.py:H2Heap.assign_address": (
        "one-object form tests compare place_objects with"
    ),
    "src/repro/teraheap/h2_heap.py:H2Heap.mark_region_live": (
        "one-region form tests and their reference use"
    ),
    "src/repro/teraheap/promotion.py:PromotionManager.write_object": (
        "one-object form tests compare write_many with"
    ),
    "src/repro/workloads/generators.py:GraphDataset.num_edges": (
        "test observation accessor (graph dataset size)"
    ),
}


class _Scan(ast.NodeVisitor):
    """Collects definitions (``src`` only) and references (everywhere)."""

    def __init__(self) -> None:
        #: ``path:Qualname`` -> the definition's name and line
        self.defined: Dict[str, Tuple[str, int]] = {}
        self.referenced: Set[str] = set()
        self._where = ""
        self._collect_defs = False
        self._enclosing: List[str] = []
        #: this file's import aliases: alias -> imported name
        self._aliases: Dict[str, str] = {}

    def scan(self, path: Path, collect_defs: bool) -> None:
        self._where = path.relative_to(ROOT).as_posix()
        self._collect_defs = collect_defs
        self._aliases = {}
        self.visit(ast.parse(path.read_text(), self._where))

    def _refer(self, name: str) -> None:
        name = self._aliases.get(name, name)
        if name not in self._enclosing:
            self.referenced.add(name)

    def _define(self, node) -> None:
        if self._collect_defs:
            qualname = ".".join(self._enclosing + [node.name])
            self.defined.setdefault(
                f"{self._where}:{qualname}", (node.name, node.lineno)
            )
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Name(self, node: ast.Name) -> None:
        self._refer(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._refer(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        if node.asname:
            self._aliases[node.asname] = node.name.rsplit(".", 1)[-1]

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self._refer(node.value)


@cache
def _scan() -> _Scan:
    scan = _Scan()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            scan.scan(path, collect_defs=top == "src")
    return scan


def _unreferenced(scan: _Scan) -> Dict[str, int]:
    """``path:Qualname`` -> line of every definition whose name nothing
    refers to."""
    return {
        key: line
        for key, (name, line) in sorted(scan.defined.items())
        if not (name.startswith("__") and name.endswith("__"))
        and name not in scan.referenced
    }


def test_every_definition_is_reached_or_allowed():
    dead = {
        key: line
        for key, line in _unreferenced(_scan()).items()
        if key not in ALLOWED
    }
    listing = "\n".join(f"  {key} (line {line})" for key, line in dead.items())
    assert not dead, (
        "unreferenced definitions (delete, or allow with a reason):\n"
        + listing
    )


def test_allowlist_names_only_unreferenced_definitions():
    """An entry whose name got a caller, or whose definition went, is
    stale and must leave the list."""
    unreferenced = _unreferenced(_scan())
    stale = sorted(key for key in ALLOWED if key not in unreferenced)
    assert not stale, f"stale ALLOWED entries: {stale}"
