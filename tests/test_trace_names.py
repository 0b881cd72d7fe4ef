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
import spans  # noqa: E402


@pytest.mark.parametrize("name", run.TRACED)
def test_a_traced_name_is_a_callable_of_its_layer(name):
    layer, *path = name.split(".")
    assert layer in run.LAYERS
    owner = importlib.import_module(f"twindom.{layer}")
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)


def test_a_traced_classify_run_counts_every_parse(tmp_path, capsys):
    # the tracer wraps a name only in the modules of run.LAYERS, so a parse
    # reached from any other module would go uncounted, and unreported
    from twindom import cli
    from twindom.generators import enumerate_small_graphs
    from twindom.graphs import serialize_graph6

    lines = [serialize_graph6(g).decode("ascii") for g in enumerate_small_graphs(4, "isolate_free")]
    f = tmp_path / "in.g6"
    f.write_text("".join(line + "\n" for line in lines))
    tracer = spans.Tracer()
    tracer.install(run._layer_modules(), run.TRACED)
    try:
        assert cli.run(["classify", str(f), "--json", "--jobs", "1"]) == 0
    finally:
        tracer.uninstall()
    assert len(capsys.readouterr().out.splitlines()) == len(lines)
    assert tracer.missing == []
    assert tracer.stats.get("graphs.parse_graph6", spans.Stat()).calls == len(lines)
