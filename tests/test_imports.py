"""A check on the package source that needs no linter: every module-level
import is used, so deleting code cannot leave a dead import behind."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import twindom

# __init__.py imports names only to re-export them
MODULES = sorted(p for p in Path(twindom.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


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
