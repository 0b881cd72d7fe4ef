"""The result records keep one contract: a ``repr`` naming every field in
order, value equality and hashing, a pickle round trip (so a record can
cross a process boundary), and no assignment to a field. ``Pattern``
compares and hashes by name and graph alone."""

from __future__ import annotations

import ast
import importlib
import pickle
from pathlib import Path

import pytest

import twindom
from twindom import (
    C6,
    Pattern,
    classify,
    enumerate_gamma_sets,
    exact_gamma,
    exact_gamma_total,
    find_induced,
    special_classes,
)
from twindom.forbidden import PATTERNS
from twindom.generators import cycle, fixture, path
from twindom.graphs import Graph, parse_graph6

FIG1_CLASSES = ("SpecialClasses(special=frozenset({0, 1}), classes=(frozenset({0, 1}),), "
                "representatives=frozenset({0}))")
C6_CLASSES = "SpecialClasses(special=frozenset(), classes=(), representatives=frozenset())"


def _report(g, fallback="none"):
    return classify(g, fallback)._replace(elapsed_micros=0)


# (record, its repr before the records left dataclasses)
RECORDS = [
    (_report(fixture("fig1")),
     "ClassificationReport(method='main_theorem', eligible=False, verdict='unknown', "
     "ineligibility_witness=Embedding(pattern='c6', mapping=(2, 3, 4, 6, 7, 5)), "
     f"s_set={FIG1_CLASSES}, packing_violation=None, uncovered_vertex=None, "
     "implied_values=None, gamma_set_count=None, elapsed_micros=0)"),
    (_report(cycle(6), "oracle"),
     "ClassificationReport(method='exact_oracle', eligible=False, verdict='is_gamma2', "
     "ineligibility_witness=Embedding(pattern='c6', mapping=(0, 1, 2, 3, 4, 5)), "
     f"s_set={C6_CLASSES}, packing_violation=None, uncovered_vertex=None, "
     "implied_values=(2, 4), gamma_set_count=None, elapsed_micros=0)"),
    (_report(path(4)),
     "ClassificationReport(method='chordal_fast_path', eligible=True, verdict='not_gamma2', "
     "ineligibility_witness=None, s_set=SpecialClasses(special=frozenset({1, 2}), "
     "classes=(frozenset({1}), frozenset({2})), representatives=frozenset({1, 2})), "
     "packing_violation=(1, 2), uncovered_vertex=None, implied_values=None, "
     "gamma_set_count=None, elapsed_micros=0)"),
    (exact_gamma(fixture("fig1")), "DominationCertificate(kind='gamma', value=2, witness=frozenset({0, 6}))"),
    (exact_gamma_total(fixture("fig1")),
     "DominationCertificate(kind='gamma_total', value=3, witness=frozenset({1, 4, 5}))"),
    (enumerate_gamma_sets(fixture("fig1"), list_cap=3),
     "GammaSetEnumeration(gamma=2, count=7, sets=(frozenset({0, 6}), frozenset({0, 7}), frozenset({1, 6})))"),
    (special_classes(fixture("fig1")), FIG1_CLASSES),
    (special_classes(cycle(6)), C6_CLASSES),
    (find_induced(cycle(6), C6), "Embedding(pattern='c6', mapping=(0, 1, 2, 3, 4, 5))"),
]
IDS = [f"{type(r).__name__}-{i}" for i, (r, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_is_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_records_compare_hash_and_pickle_by_value(record, text):
    twin = pickle.loads(pickle.dumps(record))
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)
    assert repr(twin) == text
    first = record._fields[0]
    assert record._replace(**{first: "changed"}) != record


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, text):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


class TestPattern:
    def test_repr_names_the_pattern_and_its_graph(self):
        assert [repr(p) for p in PATTERNS.values()] == [
            "Pattern(name='c3', graph=Graph(n=3, m=3))",
            "Pattern(name='c6', graph=Graph(n=6, m=6))",
            "Pattern(name='h1', graph=Graph(n=6, m=7))",
            "Pattern(name='h2', graph=Graph(n=6, m=8))",
        ]

    def test_equality_and_hash_read_name_and_graph_only(self):
        same = Pattern("c6", cycle(6))
        assert same == C6 and hash(same) == hash(C6) and same is not C6
        assert Pattern("hexagon", cycle(6)) != C6
        assert Pattern("c6", path(6)) != C6
        assert C6 != ("c6", cycle(6))
        assert {C6: "found"}[same] == "found"

    def test_lookups_by_name_return_the_module_patterns(self):
        assert all(PATTERNS[name].name == name for name in ("c3", "c6", "h1", "h2"))
        assert PATTERNS["c6"] is C6

    def test_pickle_keeps_the_plan(self):
        paw = Pattern("paw", Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
        for p in (*PATTERNS.values(), paw):
            twin = pickle.loads(pickle.dumps(p))
            assert twin == p and hash(twin) == hash(p)
            for slot in Pattern.__slots__:
                assert getattr(twin, slot) == getattr(p, slot)


def _raised(call) -> Exception:
    try:
        call()
    except Exception as e:
        return e
    raise AssertionError(f"{call} raised nothing")


# each error class of the package, raised where the package raises it
ERRORS = {
    "OracleCapExceeded": lambda: exact_gamma(cycle(33)),
    "IsolatedVertexError": lambda: classify(Graph(3, [(0, 1)])),
    "GraphParseError": lambda: parse_graph6("?x", line=3),
}


def lost_in_pickle(errors) -> list[str]:
    """The class names of the ``errors`` that a pickle round trip, as a
    worker's error takes to the parent, does not give back with the same
    type and message."""
    lost = []
    for e in errors:
        try:
            twin = pickle.loads(pickle.dumps(e))
        except Exception:
            twin = None
        if type(twin) is not type(e) or str(twin) != str(e):
            lost.append(type(e).__name__)
    return lost


def test_every_error_survives_a_pickle():
    errors = [_raised(call) for call in ERRORS.values()]
    assert [type(e).__name__ for e in errors] == list(ERRORS)
    assert str(errors[0]) == "exact search refused: n=33 exceeds oracle cap 32"
    assert lost_in_pickle(errors) == []


def test_every_error_class_is_listed():
    found = []
    for path in sorted(Path(twindom.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"twindom.{path.stem}")
        found += [node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.ClassDef) and issubclass(getattr(module, node.name), BaseException)]
    assert sorted(found) == sorted(ERRORS)


class _TwoArguments(ValueError):
    # pickled as its message alone, so unpickling it misses an argument
    def __init__(self, n, cap):
        super().__init__(f"n={n} exceeds cap {cap}")


def test_an_error_lost_in_a_pickle_is_reported():
    assert lost_in_pickle([_TwoArguments(33, 32), ValueError("kept")]) == ["_TwoArguments"]
