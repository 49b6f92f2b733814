"""Every config field in ``src/repro`` is an option someone uses.

A field of a config dataclass earns its place when some program code
(``src/``, ``bench/``, ``examples/``) sets it to a value other than its
default and some program code reads it.  A setting made only in
``tests/`` does not count: a value that only tests set is not an
option.  A field with one value in use is a module constant next to the
code that reads it (a test that needs another value sets the runtime
attribute the program already holds); a field nothing reads is deleted.

These count as setting a field:

- a keyword, or a positional argument, in a call that names the class;
- a keyword in a ``replace(...)`` or ``dict(...)`` call, and a string
  key in a dict literal (the figure ablation tables), when every name
  in it is a field of the class;
- an assignment ``overrides["field"] = value``;
- an attribute assignment ``obj.field = value``, unless a non-config
  class in ``src`` has an attribute of that name too (names are matched
  bare, so the two could not be told apart).

A value equal to the default does not count: the same expression, or a
literal or integer arithmetic over the :mod:`repro.units` names whose
value equals the default's (``32 * KiB`` is ``32 * MB``).  Neither does
an assignment through ``self`` (a config normalising itself in
``__post_init__``).  A read is an attribute load of the field's name
other than another class's ``self.name``, or a ``getattr`` with it.

Fields kept on purpose are listed in :data:`ALLOWED`, keyed
``Class.field`` with the reason they stay.
"""

import ast
import re
from functools import cache
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro import units

ROOT = Path(__file__).resolve().parents[1]
#: the directories scanned for settings and reads
PROGRAM = ("src", "bench", "examples")

#: dataclasses in ``src/repro`` that are configuration: every
#: ``*Config``/``*Conf`` class plus these
CONFIG_EXTRAS = ("CostModel", "ServerSpec")
_CONFIG_NAME = re.compile(r"(Config|Conf)$")

_CALIBRATION = (
    "calibration constant (docs/calibration.md); the Figure 8 "
    "recalibration edits it"
)

#: names a value may use in integer arithmetic and still compare equal
_UNITS = {
    name: getattr(units, name)
    for name in ("KiB", "MiB", "GiB", "MB", "GB", "TB")
}

#: node types of a literal or arithmetic expression (names aside)
_ARITHMETIC = (
    ast.BinOp,
    ast.UnaryOp,
    ast.Constant,
    ast.operator,
    ast.unaryop,
    ast.Load,
)

#: ``Class.field`` -> why a field nothing sets to another value stays
ALLOWED: Dict[str, str] = {
    **{
        f"CostModel.{name}": _CALIBRATION
        for name in (
            "dram_read_bw",
            "dram_latency",
            "gc_visit_cost",
            "gc_ref_cost",
            "gc_copy_bw",
            "card_check_cost",
            "gc_pause_overhead",
            "gc_forward_cost",
            "gc_root_scan_cost",
            "gc_task_dispatch_cost",
            "gc_steal_cost",
            "gc_termination_cost",
            "serialize_obj_cost",
            "serialize_bw",
            "deserialize_obj_cost",
            "deserialize_bw",
            "sd_temp_object_ratio",
            "mutator_op_cost",
            "alloc_cost",
            "barrier_cost",
            "teraheap_barrier_extra",
            "fsync_cost",
            "stream_block_dispatch_cost",
        )
    },
    "VMConfig.cost": (
        "tests swap in a whole CostModel (test_config.py) to check a VM "
        "charges by the one its config carries"
    ),
    "FaultConfig.crash_rate": (
        "fault mode: test_executor_restart.py's TestRetryPolicy crashes every "
        "incarnation with it, the only way to reach JobRetryPolicy's restart "
        "and poisoned-partition bounds"
    ),
}


class Field(NamedTuple):
    owner: str
    name: str
    #: the default's expression; ``None`` for a required field
    default: Optional[ast.expr]


def _called(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _default(value: Optional[ast.expr]) -> Optional[ast.expr]:
    """A field's default as an expression: ``field(default_factory=F)``
    becomes ``F()``, ``field(default=x)`` becomes ``x``."""
    if isinstance(value, ast.Call) and _called(value.func) == "field":
        for kw in value.keywords:
            if kw.arg == "default":
                return kw.value
            if kw.arg == "default_factory":
                return ast.Call(func=kw.value, args=[], keywords=[])
        return None
    return value


def _literal(node: ast.expr):
    """``node``'s value when it is a literal or arithmetic over literals
    and :data:`_UNITS` names, else ``ValueError``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        pass
    if all(
        isinstance(sub, _ARITHMETIC)
        or (isinstance(sub, ast.Name) and sub.id in _UNITS)
        for sub in ast.walk(node)
    ):
        code = compile(ast.Expression(node), "<value>", "eval")
        return eval(code, {"__builtins__": {}}, dict(_UNITS))
    return ValueError


def _same(value: ast.expr, default: Optional[ast.expr]) -> bool:
    """Whether ``value`` equals ``default`` (a required field has none,
    so every value sets it)."""
    if default is None:
        return False
    if ast.dump(value) == ast.dump(default):
        return True
    a, b = _literal(value), _literal(default)
    return a is not ValueError and type(a) is type(b) and a == b


def _configs() -> Dict[str, List[Field]]:
    """Config class name -> its fields, in declaration order."""
    out: Dict[str, List[Field]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (
                isinstance(node, ast.ClassDef)
                and any(
                    _called(d.func if isinstance(d, ast.Call) else d)
                    == "dataclass"
                    for d in node.decorator_list
                )
                and (
                    node.name in CONFIG_EXTRAS
                    or _CONFIG_NAME.search(node.name)
                )
            ):
                continue
            out[node.name] = [
                Field(node.name, stmt.target.id, _default(stmt.value))
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ]
    return out


class _Scan(ast.NodeVisitor):
    """Collects the values code sets config fields to, and the names
    program code reads."""

    def __init__(self, configs: Dict[str, List[Field]]) -> None:
        self.configs = configs
        self._names = {c: {f.name for f in fs} for c, fs in configs.items()}
        #: (class, field) -> values set through a call or a dict
        self.sets: Dict[Tuple[str, str], List[ast.expr]] = {}
        #: field name -> values set by attribute assignment
        self.attribute_sets: Dict[str, List[ast.expr]] = {}
        self.reads: Set[str] = set()
        #: attribute names non-config ``src`` classes give themselves
        self.own_attributes: Set[str] = set()
        self._src = False
        self._classes: List[str] = []

    def scan(self, path: Path, top: str) -> None:
        self._src = top == "src"
        self.visit(ast.parse(path.read_text(), str(path)))

    def _set_all(self, items: List[Tuple[str, ast.expr]]) -> None:
        """Settings made together: they set the fields of each config
        class that has every one of the names."""
        names = {name for name, _ in items}
        for cls, fields in self._names.items():
            if names and names <= fields:
                for name, value in items:
                    self.sets.setdefault((cls, name), []).append(value)

    def _in_other_class(self) -> bool:
        return bool(self._classes) and self._classes[-1] not in self.configs

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._src and node.name not in self.configs:
            self.own_attributes.update(
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            )
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        called = _called(node.func)
        keywords = [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
        if called in self.configs:
            positional = []
            for arg, fld in zip(node.args, self.configs[called]):
                if isinstance(arg, ast.Starred):
                    break
                positional.append((fld.name, arg))
            for name, value in positional + keywords:
                self.sets.setdefault((called, name), []).append(value)
        elif called in ("replace", "dict"):
            self._set_all(keywords)
        elif (
            called == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            self.reads.add(node.args[1].value)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        items = [
            (key.value, value)
            for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        ]
        if len(items) == len(node.keys):
            self._set_all(items)
        self.generic_visit(node)

    def _assign(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        if value is None:
            return
        if isinstance(target, ast.Subscript):
            key = target.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self._set_all([(key.value, value)])
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                if self._src and self._in_other_class():
                    self.own_attributes.add(target.attr)
            else:
                self.attribute_sets.setdefault(target.attr, []).append(value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._assign(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._assign(node.target, node.value)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            through_self = (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            )
            if not (through_self and self._in_other_class()):
                self.reads.add(node.attr)
        self.generic_visit(node)


@cache
def _scan() -> _Scan:
    scan = _Scan(_configs())
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            scan.scan(path, top)
    return scan


def _unused(scan: _Scan) -> Dict[str, str]:
    """``Class.field`` -> why it is not an option."""
    out: Dict[str, str] = {}
    for fields in scan.configs.values():
        for fld in fields:
            values = list(scan.sets.get((fld.owner, fld.name), []))
            if fld.name not in scan.own_attributes:
                values += scan.attribute_sets.get(fld.name, [])
            key = f"{fld.owner}.{fld.name}"
            if fld.name not in scan.reads:
                out[key] = "nothing reads it"
            elif all(_same(value, fld.default) for value in values):
                out[key] = "nothing sets it to another value"
    return dict(sorted(out.items()))


def test_every_config_field_is_set_and_read_or_allowed():
    unused = {
        key: why for key, why in _unused(_scan()).items() if key not in ALLOWED
    }
    listing = "\n".join(f"  {key}: {why}" for key, why in unused.items())
    assert not unused, (
        f"{len(unused)} config fields with one value in use (make them "
        "module constants, delete them, or allow with a reason):\n" + listing
    )


def test_allowlist_names_only_unused_fields():
    """An entry whose field got a setter, or whose field went, is stale
    and must leave the list."""
    unused = _unused(_scan())
    stale = sorted(key for key in ALLOWED if key not in unused)
    assert not stale, f"stale ALLOWED entries: {stale}"


def test_every_config_class_is_found():
    """The scan sees the classes it is meant to; a rename that drops one
    out of the naming rule fails here."""
    assert set(CONFIG_EXTRAS) <= set(_scan().configs)
    assert "VMConfig" in _scan().configs


def _expr(text: str) -> ast.expr:
    return ast.parse(text, mode="eval").body


def test_same_compares_values_not_spellings():
    """A default written another way is still the default; a value that
    differs is a setting."""
    assert _same(_expr("32 * KiB"), _expr("32 * MB"))
    assert _same(_expr("0.85"), _expr("0.85"))
    assert not _same(_expr("16 * KiB"), _expr("32 * MB"))
    assert not _same(_expr("3"), _expr("3.0"))
    assert not _same(_expr("CostModel()"), None)
