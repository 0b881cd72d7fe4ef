"""Every name the benchmark traces resolves to a library callable.

``perfbench/run.py`` wraps each name in ``TRACED`` by looking it up; a name
that no longer resolves is only listed in the trace's ``details.missing``.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402


@pytest.mark.parametrize("name", run.TRACED)
def test_a_traced_name_is_a_callable_of_its_layer(name):
    layer, *path = name.split(".")
    assert layer in run.LAYERS
    owner = importlib.import_module(f"twindom.{layer}")
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)
