"""The sweep's per-graph claim checks (``sweep.check_graph``).

The violation entries are built only when a claim fails, so each claim
gets one planted failure here and its entry is pinned: the graph6 echo
and the detail text, with its wording, list order and number format.
"""

from __future__ import annotations

import pytest

from twindom import characterize, domination, structure, sweep
from twindom.generators import cycle, path
from twindom.graphs import Graph, component_masks, serialize_graph6

# small int sets iterate by id mod 8: {1, 8} as 8, 1 and {1, 4, 8} as 8, 1, 4,
# so only a sorted rendering prints them in order
TWO_STARS = Graph(10, [(1, 0), (1, 2), (8, 3), (8, 4), (8, 5), (8, 6), (8, 7), (8, 9)])
# gamma-sets {1, 4, 8} and {1, 4, 9}; twin classes {1}, {4}, {8, 9}
STARS_AND_EDGE = Graph(10, [(1, 0), (1, 2), (1, 3), (4, 5), (4, 6), (4, 7), (8, 9)])
# blocks {0,8,9}, {1,8}, {1,2,3} and the edges 3-4 ... 3-7
BLOCK_GRAPH = Graph(10, [(0, 8), (0, 9), (8, 9), (8, 1), (1, 2), (1, 3), (2, 3),
                         (3, 4), (3, 5), (3, 6), (3, 7)])


def _gamma_t_at(value):
    genuine = domination.exact_gamma_total
    return lambda g, cap=domination.DEFAULT_ORACLE_CAP: genuine(g, cap)._replace(value=value)


def _flipped_verdict():
    genuine = characterize.classify

    def flipped(g, *args):
        report = genuine(g, *args)
        yes = report.verdict == characterize.VERDICT_YES
        return report._replace(verdict=characterize.VERDICT_NO if yes else characterize.VERDICT_YES)
    return flipped


def _count_plus_one():
    genuine = domination.enumerate_gamma_sets
    return lambda g, *args, **kwargs: (e := genuine(g, *args, **kwargs))._replace(count=e.count + 1)


def _support_added():
    genuine = structure.support_vertices
    return lambda g: genuine(g) | {9}


def _last_block_dropped():
    genuine = structure.clique_blocks
    return lambda g: (blocks := genuine(g)) and blocks[:-1]


# (claim, graph, (module, name, replacement factory), graph6, detail)
PLANTED = [
    ("bounds", path(4), (domination, "exact_gamma_total", lambda: _gamma_t_at(3)),
     "Ch", "gamma=2 gamma_t=3 n=4"),
    ("lemma6", TWO_STARS, (domination, "exact_gamma_total", lambda: _gamma_t_at(3)),
     "Ig????^?G", "representatives [1, 8] pack+dominate but gamma_t=3 != 2*2"),
    ("prop7", TWO_STARS, (characterize, "classify", _flipped_verdict),
     "Ig????^?G", "classifier=not_gamma2 oracle gamma=2 gamma_t=4"),
    ("cor2", TWO_STARS, (sweep, "is_free", lambda: lambda g, *args: (False, "planted witness")),
     "Ig????^?G", "chordal graph: free=False classifier=is_gamma2 gamma=2 gamma_t=4"),
    ("lemma5", STARS_AND_EDGE, (domination, "is_packing", lambda: lambda g, s: (False, None)),
     "Ii?GOO??G", "gamma-sets [[1, 4, 8], [1, 4, 9]] are not packings"),
    ("cor9", STARS_AND_EDGE, (domination, "enumerate_gamma_sets", _count_plus_one),
     "Ii?GOO??G", "twin-class product 2, enumerated 3"),
    ("cor4", cycle(6), (sweep, "girth", lambda: lambda g: 7),
     "EhEG", "girth=7 induced c3/c6 present=True"),
    ("supports", TWO_STARS, (structure, "support_vertices", _support_added),
     "Ig????^?G", "representatives [1, 8], supports [1, 8, 9], classes [[1], [8]]"),
    ("blocks", BLOCK_GRAPH, (structure, "clique_blocks", _last_block_dropped),
     "IJCO_b?_G", "special [3, 8], distinguished cut vertices [1, 3], classes [[3], [8]]"),
]


class TestViolationText:
    def test_every_claim_is_planted(self):
        assert sorted(claim for claim, *_ in PLANTED) == sorted(sweep.CLAIM_NAMES)

    @pytest.mark.parametrize("claim, g, plant, graph6, detail", PLANTED, ids=[p[0] for p in PLANTED])
    def test_planted_failure_renders_as_before(self, monkeypatch, claim, g, plant, graph6, detail):
        assert sweep.check_graph(g, (claim,)) == {claim: []}
        module, name, replacement = plant
        monkeypatch.setattr(module, name, replacement())
        assert sweep.check_graph(g, (claim,)) == {claim: [{"graph6": graph6, "detail": detail}]}
        assert serialize_graph6(g).decode("ascii") == graph6

    def test_a_set_of_claims_renders_each_failure(self, monkeypatch):
        monkeypatch.setattr(domination, "exact_gamma_total", _gamma_t_at(3))
        assert sweep.check_graph(TWO_STARS, frozenset(sweep.CLAIM_NAMES)) == {
            "bounds": [],  # 3 <= 2n/3
            "lemma6": [{"graph6": "Ig????^?G",
                        "detail": "representatives [1, 8] pack+dominate but gamma_t=3 != 2*2"}],
            "prop7": [{"graph6": "Ig????^?G", "detail": "classifier=is_gamma2 oracle gamma=2 gamma_t=3"}],
            "cor2": [{"graph6": "Ig????^?G",
                      "detail": "chordal graph: free=True classifier=is_gamma2 gamma=2 gamma_t=3"}],
            "supports": [],
        }


class TestReportedValues:
    # prop7 and cor9 check the values classify reports, not values rederived
    # from its classes
    def test_wrong_implied_values_are_flagged(self, monkeypatch):
        genuine = characterize.classify
        monkeypatch.setattr(characterize, "classify", lambda g, *args: (r := genuine(g, *args))._replace(
            implied_values=(r.implied_values[0], r.implied_values[1] + 1)))
        assert sweep.check_graph(TWO_STARS, ("prop7",)) == {"prop7": [
            {"graph6": "Ig????^?G", "detail": "classifier=is_gamma2 oracle gamma=2 gamma_t=4 implied=(2, 5)"}]}

    def test_wrong_gamma_set_count_is_flagged(self, monkeypatch):
        genuine = characterize.classify
        monkeypatch.setattr(characterize, "classify", lambda g, *args: (r := genuine(g, *args))._replace(
            gamma_set_count=r.gamma_set_count + 1))
        assert sweep.check_graph(STARS_AND_EDGE, ("cor9",)) == {"cor9": [
            {"graph6": "Ii?GOO??G", "detail": "twin-class product 3, enumerated 2"}]}

    def test_merged_singleton_classes_are_flagged(self, monkeypatch):
        # two singleton classes become one, and the reported count stays 1
        genuine = characterize.classify

        def merged(g, *args):
            report = genuine(g, *args)
            s_set = report.s_set
            assert s_set.classes == (frozenset({1}), frozenset({8})) and report.gamma_set_count == 1
            return report._replace(s_set=s_set._replace(classes=(frozenset({1, 8}),)))
        monkeypatch.setattr(characterize, "classify", merged)
        assert sweep.check_graph(TWO_STARS, ("cor9",)) == {"cor9": [
            {"graph6": "Ig????^?G", "detail": "twin-class product 1, enumerated 1, classes [[1, 8]]"}]}


class TestBoundsConnectivity:
    # gamma_t <= 2n/3 is claimed for connected graphs of order >= 3 only
    def test_connected_path_over_two_thirds_is_flagged(self, monkeypatch):
        g = path(4)
        assert len(component_masks(g)) == 1 and 3 * 3 > 2 * g.n
        monkeypatch.setattr(domination, "exact_gamma_total", _gamma_t_at(3))
        assert sweep.check_graph(g, ("bounds",)) == {
            "bounds": [{"graph6": "Ch", "detail": "gamma=2 gamma_t=3 n=4"}]}

    def test_disconnected_graph_over_two_thirds_passes(self):
        g = Graph(4, [(0, 1), (2, 3)])
        gamma_t = domination.exact_gamma_total(g).value
        assert (domination.exact_gamma(g).value, gamma_t) == (2, 4)
        assert len(component_masks(g)) == 2 and 3 * gamma_t > 2 * g.n
        assert sweep.check_graph(g, ("bounds",)) == {"bounds": []}


def test_the_null_graph_has_no_cor4_entry():
    # its minimum degree is undefined, so "every vertex has degree >= 2" is
    # no reason to check it
    outcome = sweep.check_graph(Graph(0))
    assert "cor4" not in outcome and not any(outcome.values())


class TestClaimNames:
    # a sweep that checks nothing must not report ok after running the oracles
    @pytest.mark.parametrize("claims,message", [
        (("lemma9",), "unknown claim 'lemma9'; expected from"),
        (("bounds", "lemma9"), "unknown claim 'lemma9'; expected from"),
        ((), "no claims given"),
    ], ids=["unknown", "one-unknown", "none"])
    def test_is_refused_before_any_graph_is_read(self, claims, message):
        read = []
        graphs = (read.append(g) or g for g in (path(4), cycle(6)))
        with pytest.raises(ValueError, match=message):
            sweep.sweep_graphs(graphs, claims)
        assert read == []
