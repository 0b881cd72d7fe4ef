"""Checks on the package source that need no linter: every module-level
import is used, every function parameter is read, every module-level
private name is used somewhere in the package, every module-level
function and class is referenced outside its own body, and every member
of a class is read somewhere in the package, so deleting code cannot
leave a dead import, parameter, helper, definition or member behind; and
no module imports,
when it is itself imported, what only a fan-out to worker processes
needs or what no command needs; and only the CLI's entry point
changes the garbage collector's settings."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import twindom

PACKAGE = sorted(Path(twindom.__file__).resolve().parent.glob("*.py"))
# __init__.py imports names only to re-export them
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that no
    expression of it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path as osp\nimport xml.dom\nfrom a import b, c as d\n"
        "def f(x: d) -> None:\n    import json\n    return xml.dom\n"
    )
    assert unused_imports(source) == ["b", "os", "osp"]


def unused_parameters(source: str) -> list[str]:
    """The parameters of every function and lambda in ``source`` that its
    body never reads, as "line: function(parameter)". ``self`` and ``cls``
    are exempt, and so is the ``args`` of a per-graph command: ``cli._drive``
    calls each one as ``fn(g, args)``, whether or not it reads its options."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn, ast.Lambda) else ast.Module(fn.body, [])
        read = {n.id for n in ast.walk(body) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exempt = {"self", "cls"} | ({"args"} if params[:2] == ["g", "args"] else set())
        name = getattr(fn, "name", "lambda")
        found += [(fn.lineno, fn.col_offset, i, f"{fn.lineno}: {name}({p})")
                  for i, p in enumerate(params) if p not in read | exempt]
    return [report for *_, report in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_an_unused_parameter_is_reported():
    source = (
        "def f(a, b=1, *rest, c, **kw):\n    return a + c\n"
        "class C:\n    def m(self, x):\n        return lambda y, z: y\n"
        "    @classmethod\n    def k(cls, x):\n        def inner():\n            return x\n        return inner\n"
        "def _cmd(g, args):\n    return g.n\n"
        "def _other(h, args):\n    return h\n"
    )
    assert unused_parameters(source) == [
        "1: f(b)", "1: f(rest)", "1: f(kw)", "4: m(x)", "5: lambda(z)", "13: _other(args)",
    ]


# Slow to import and needed by no per-graph command: never imported at all,
# or imported only inside the functions that fork or run a worker.
# fanout.ordered_map forks its workers itself, so multiprocessing is banned,
# and they end through a pipe, so ctypes is too.
BANNED = {"ctypes", "dataclasses", "multiprocessing"}
DEFERRED = {"pickle"}


def slow_imports(source: str) -> list[str]:
    """The imports in ``source`` of a module in ``BANNED`` anywhere, and of
    a module in ``DEFERRED`` outside a function body, as "line: module"."""
    tree = ast.parse(source)
    deferred = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            root = module.split(".")[0]
            if root in BANNED or (root in DEFERRED and id(node) not in deferred):
                found.append((node.lineno, module))
    return [f"{line}: {module}" for line, module in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_slow_import_runs_at_import_time(path):
    assert slow_imports(path.read_text(encoding="utf-8")) == []


def test_a_slow_import_is_reported():
    source = (
        "import ctypes\nfrom multiprocessing.pool import Pool\nfrom . import sweep\n"
        "def f():\n    import multiprocessing\n    from dataclasses import field\n    import pickle\n"
        "class C:\n    import ctypes.util as u\n"
        "if True:\n    import os, dataclasses, pickle\n"
    )
    assert slow_imports(source) == [
        "1: ctypes", "2: multiprocessing.pool", "5: multiprocessing", "6: dataclasses",
        "9: ctypes.util", "11: dataclasses", "11: pickle",
    ]


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _used_names(node: ast.AST) -> set[str]:
    """Every name ``node`` reads, reaches as an attribute or imports."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name)
    return used


def _unused(source: str, others: list[str], candidates) -> list[str]:
    """The names ``candidates`` picks from each module-level statement of
    ``source`` that neither another statement of ``source`` nor any of
    the ``others`` uses."""
    tree = ast.parse(source)
    used_elsewhere = set().union(*(_used_names(ast.parse(o)) for o in others))
    dead = []
    for stmt in tree.body:
        rest = [s for s in tree.body if s is not stmt]
        for name in candidates(stmt):
            if name not in used_elsewhere and not any(name in _used_names(s) for s in rest):
                dead.append(name)
    return sorted(dead)


def unused_private_names(source: str, others: list[str]) -> list[str]:
    """Module-level ``_names`` that ``source`` defines and that neither
    another statement of ``source`` nor any of the ``others`` uses."""
    return _unused(source, others, lambda stmt: [
        name for name in _defined_names(stmt) if name.startswith("_") and not name.startswith("__")])


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_private_helper_is_used(path):
    others = [p.read_text(encoding="utf-8") for p in PACKAGE if p != path]
    assert unused_private_names(path.read_text(encoding="utf-8"), others) == []


def test_an_unused_helper_is_reported():
    source = (
        "_CAP = 3\n_SEEN: set = set()\n"
        "def _used(x):\n    return x + _CAP\n"
        "def _recursive(x):\n    return _recursive(x - 1) if x else _used(0)\n"
        "class _Planted:\n    pass\n"
        "def public():\n    return _used(1)\n"
    )
    other = "from .mod import _SEEN\n"
    assert unused_private_names(source, [other]) == ["_Planted", "_recursive"]


def unreferenced_definitions(source: str, others: list[str]) -> list[str]:
    """Module-level functions and classes, public or private, that
    ``source`` defines and that neither another statement of ``source``
    nor any of the ``others`` names, reaches as an attribute or imports:
    re-exporting a public one from ``__init__`` counts as a use."""
    return _unused(source, others, lambda stmt: [stmt.name] if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else [])


# the paper's construction of yes graphs, for library callers: no command
# builds one
UNREFERENCED = {"generators.py": ["construction_h"]}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_function_and_class_is_referenced(path):
    others = [p.read_text(encoding="utf-8") for p in PACKAGE if p != path]
    found = unreferenced_definitions(path.read_text(encoding="utf-8"), others)
    assert found == UNREFERENCED.get(path.name, [])


def test_an_unreferenced_definition_is_reported():
    source = (
        "CAP = 3\n"
        "class Used:\n    pass\n"
        "class _Lonely:\n    def method(self):\n        return _Lonely\n"
        "def recursive(x):\n    return recursive(x - 1) if x else Used\n"
        "def exported():\n    pass\n"
        "def reached():\n    pass\n"
        "async def waited():\n    pass\n"
    )
    others = ["from .mod import exported\n", "value = mod.reached()\n"]
    assert unreferenced_definitions(source, others) == ["_Lonely", "recursive", "waited"]


def class_members(source: str) -> list[tuple[str, str]]:
    """(class, member) for each non-dunder method, ``__slots__`` entry and
    NamedTuple field of the module-level classes of ``source``."""
    found = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        named_tuple = any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in cls.bases)
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets):
                names = list(ast.literal_eval(stmt.value))
            elif named_tuple and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
            else:
                continue
            found += [(cls.name, name) for name in names if not (name.startswith("__") and name.endswith("__"))]
    return found


def unread_members(source: str, others: list[str]) -> list[str]:
    """The members :func:`class_members` finds in ``source`` whose name
    neither ``source`` nor any of the ``others`` loads as an attribute, as
    "Class.member": a store, such as ``self.x = ...``, is no read."""
    read = {n.attr for text in (source, *others) for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{cls}.{name}" for cls, name in class_members(source) if name not in read)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_class_member_is_read(path):
    others = [p.read_text(encoding="utf-8") for p in PACKAGE if p != path]
    assert unread_members(path.read_text(encoding="utf-8"), others) == []


def test_an_unread_member_is_reported():
    source = (
        "import typing\nfrom typing import NamedTuple\n"
        "class P(NamedTuple):\n    x: int\n    y: int\n    def norm(self):\n        return self.x\n"
        "class Q(typing.NamedTuple):\n    z: int\n"
        "class S:\n    __slots__ = ('a', 'b', '__weakref__')\n    limit: int = 3\n"
        "    def __init__(self):\n        self.a = self.b = 0\n"
        "    def used(self):\n        return self.a\n    def _lonely(self):\n        pass\n"
        "def f(s, p):\n    return s.used(), p.norm()\n"
    )
    others = ["def g(s):\n    s.b += 1\n    del s.z\n"]
    assert unread_members(source, others) == ["P.y", "Q.z", "S._lonely", "S.b"]


# The CLI's entry point freezes the objects start-up leaves, for a faster
# exit; a library caller keeps the collector as it set it.
GC_SETTINGS = {"freeze", "unfreeze", "disable", "enable", "collect", "set_threshold"}


def gc_setting_calls(source: str, allowed: tuple[str, ...] = ()) -> list[str]:
    """The calls in ``source`` of a function in ``GC_SETTINGS``, through
    ``import gc`` (under any name) or ``from gc import``, outside the
    module-level functions named in ``allowed``, as "line: gc.function"."""
    tree = ast.parse(source)
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc" and node.level == 0:
            functions.update((a.asname or a.name, a.name) for a in node.names)
    exempt = {
        id(node)
        for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in allowed
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules:
            name = f.attr
        elif isinstance(f, ast.Name) and f.id in functions:
            name = functions[f.id]
        else:
            continue
        if name in GC_SETTINGS:
            found.append((node.lineno, f"gc.{name}"))
    return [f"{line}: {call}" for line, call in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_cli_entry_point_sets_the_gc(path):
    allowed = ("main",) if path.name == "cli.py" else ()
    assert gc_setting_calls(path.read_text(encoding="utf-8"), allowed) == []


def test_a_gc_setting_call_is_reported():
    source = (
        "import gc\nimport gc as collector\nfrom gc import collect as sweep, get_count\n"
        "def main():\n    gc.freeze()\n    def inner():\n        gc.disable()\n"
        "def run():\n    gc.get_stats()\n    collector.set_threshold(0)\n    return sweep()\n"
        "class C:\n    def main(self):\n        gc.enable()\n"
        "gc.unfreeze()\nget_count()\n"
    )
    assert gc_setting_calls(source, ("main",)) == [
        "10: gc.set_threshold", "11: gc.collect", "14: gc.enable", "15: gc.unfreeze",
    ]
    assert gc_setting_calls(source)[:2] == ["5: gc.freeze", "7: gc.disable"]
