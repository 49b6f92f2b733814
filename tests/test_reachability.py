"""Every function, method and class in ``src/repro`` is reached by name.

What runs is the CLI, the experiment specs, the benchmark jobs and the
examples, so a definition counts as used when a ``Name``, an
``Attribute``, an import alias or a string constant somewhere in
``src/``, ``bench/`` or ``examples/`` carries its name.  A reference
inside the definition's own body (recursion, or a method calling its
namesake on another object) does not count.  String constants count
because ``bench/layers.py`` wraps its entry points by name.  Dunder
methods are called by Python itself and are skipped.

Names only tests refer to are listed in :data:`ALLOWED`, each with the
reason it stays; anything else unreferenced is dead code to delete.
"""

import ast
from functools import cache
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "bench", "examples")

#: names no program code refers to, kept on purpose
ALLOWED: Dict[str, str] = {
    "all_objects": "test observation accessor (every live heap object)",
    "assign_address": "one-object form tests compare place_objects with",
    "attach_vm": "tenant restart hook the tenant-isolation tests drive",
    "charged_seconds": "test observation accessor (engine phase charge)",
    "contains_address": "test observation accessor (space/region bounds)",
    "dirty_count": "test observation accessor (card table)",
    "group_members": "test observation accessor (union-find groups)",
    "is_dirty": "test observation accessor (card table)",
    "is_durable": "test observation accessor (crash image pages)",
    "live_regions": "union-find liveness rule the region-group tests state",
    "mark_region_live": "one-region form tests and their reference use",
    "num_edges": "test observation accessor (graph dataset size)",
    "same_group": "test observation accessor (union-find groups)",
    "slo_violations": "test observation accessor (device health)",
    "snapshot": "test observation accessor (clock and device traffic)",
    "state_of": "test observation accessor (device health)",
    "sub_breakdown": "test observation accessor (golden clock digests)",
    "unpersist": "Spark API twin of persist; tests evict through it",
    "write_object": "one-object form tests compare write_many with",
}


class _Scan(ast.NodeVisitor):
    """Collects definitions (``src`` only) and references (everywhere)."""

    def __init__(self) -> None:
        self.defined: Dict[str, List[str]] = {}
        self.referenced: Set[str] = set()
        self._where = ""
        self._collect_defs = False
        self._enclosing: List[str] = []

    def scan(self, path: Path, collect_defs: bool) -> None:
        self._where = str(path.relative_to(ROOT))
        self._collect_defs = collect_defs
        self.visit(ast.parse(path.read_text(), self._where))

    def _refer(self, name: str) -> None:
        if name not in self._enclosing:
            self.referenced.add(name)

    def _define(self, node) -> None:
        if self._collect_defs:
            self.defined.setdefault(node.name, []).append(
                f"{self._where}:{node.lineno}"
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
        self._refer(node.name.rsplit(".", 1)[-1])
        if node.asname:
            self._refer(node.asname)

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


def _unreferenced(scan: _Scan) -> Dict[str, List[str]]:
    return {
        name: where
        for name, where in sorted(scan.defined.items())
        if not (name.startswith("__") and name.endswith("__"))
        and name not in scan.referenced
    }


def test_every_definition_is_reached_or_allowed():
    dead = {
        name: where
        for name, where in _unreferenced(_scan()).items()
        if name not in ALLOWED
    }
    listing = "\n".join(
        f"  {name}: {', '.join(where)}" for name, where in dead.items()
    )
    assert not dead, (
        "unreferenced definitions (delete, or allow with a reason):\n"
        + listing
    )


def test_allowlist_names_only_unreferenced_definitions():
    """An entry whose name got a caller, or whose definition went, is
    stale and must leave the list."""
    unreferenced = _unreferenced(_scan())
    stale = sorted(name for name in ALLOWED if name not in unreferenced)
    assert not stale, f"stale ALLOWED entries: {stale}"
