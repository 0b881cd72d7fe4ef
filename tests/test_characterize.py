from __future__ import annotations

import pytest

from twindom.characterize import classify
from twindom.domination import IsolatedVertexError, OracleCapExceeded, enumerate_gamma_sets
from twindom.generators import (
    complete,
    corona_p2,
    cycle,
    enumerate_small_graphs,
    fixture,
    path,
    star,
)
from twindom.graphs import Graph
from twindom.sweep import check_graph

from conftest import is_gamma2_exact

# Forests, trees and block graphs from the paper's specializations; all
# are chordal, so classify decides them on its chordal path. A string
# names a conftest fixture; each dict pins the report fields it lists.
SPECIALIZATION_CASES = [
    pytest.param(Graph(5, [(0, 1), (2, 3), (3, 4)]), {"verdict": "is_gamma2", "count": 2},
                 id="lone-edge-and-p3"),
    pytest.param("spider", {"verdict": "not_gamma2", "packing_violation": (1, 2)}, id="spider"),
    pytest.param(path(6), {"verdict": "is_gamma2", "reps": [1, 4], "implied": (2, 4)}, id="p6"),
    pytest.param("two_triangles", {"verdict": "is_gamma2", "reps": [0], "implied": (1, 2)},
                 id="two-triangles"),
    pytest.param(Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]),
                 {"verdict": "not_gamma2", "reps": [0, 1, 2]}, id="triangle-with-pendants"),
    *(pytest.param(corona_p2(path(k)), {"verdict": "is_gamma2"}, id=f"corona-p{k}")
      for k in range(1, 5)),
]


def check_specialization(g, want):
    """Classify a chordal specialization and pin the report fields in want."""
    rep = classify(g)
    assert rep.method == "chordal_fast_path"
    got = {
        "verdict": rep.verdict,
        "implied": rep.implied_values,
        "reps": sorted(rep.s_set.representatives),
        "classes": rep.s_set.classes,
        "count": rep.gamma_set_count,
        "packing_ok": rep.packing_ok,
        "packing_violation": rep.packing_violation,
    }
    assert {k: got[k] for k in want} == want
    assert (rep.verdict == "is_gamma2") == is_gamma2_exact(g)
    if rep.verdict == "is_gamma2":
        assert rep.gamma_set_count == enumerate_gamma_sets(g).count


class TestClassifyBySupports:
    def test_k2(self):
        # the lone edge is one twin class of two specials: both endpoints
        # alone are minimum dominating sets
        check_specialization(complete(2), {"verdict": "is_gamma2", "implied": (1, 2),
                                           "reps": [0], "classes": (frozenset({0, 1}),),
                                           "count": 2})


class TestClassifyTree:
    def test_k2_smallest_tree(self):
        check_specialization(complete(2), {"verdict": "is_gamma2"})

    def test_p4_no(self):
        check_specialization(path(4), {"verdict": "not_gamma2"})


class TestClassifyBlockGraph:
    def test_p4_is_a_block_graph_but_no(self):
        check_specialization(path(4), {"verdict": "not_gamma2", "packing_ok": False})


class TestClassify:
    def test_star_is_gamma2(self):
        rep = classify(star(3))
        assert rep.verdict == "is_gamma2"
        assert rep.method == "chordal_fast_path"
        assert rep.implied_values == (1, 2)
        assert sorted(rep.s_set.representatives) == [0]

    def test_p4_packing_violation(self):
        rep = classify(path(4))
        assert rep.eligible and rep.verdict == "not_gamma2"
        assert rep.packing_ok is False
        assert rep.packing_violation == (1, 2)
        assert rep.implied_values is None

    def test_two_triangles(self, two_triangles):
        rep = classify(two_triangles)
        assert rep.verdict == "is_gamma2"
        assert rep.implied_values == (1, 2)

    def test_c6_unknown_without_fallback(self):
        rep = classify(cycle(6))
        assert not rep.eligible
        assert rep.verdict == "unknown"
        assert rep.ineligibility_witness.pattern == "c6"
        assert rep.implied_values is None

    def test_c6_oracle_fallback(self):
        rep = classify(cycle(6), fallback="oracle")
        assert rep.method == "exact_oracle"
        assert rep.verdict == "is_gamma2"
        assert rep.implied_values == (2, 4)

    def test_fig1_ineligible_then_oracle_says_no(self):
        rep = classify(fixture("fig1"))
        assert not rep.eligible and rep.ineligibility_witness.pattern == "c6"
        rep = classify(fixture("fig1"), fallback="oracle")
        assert rep.verdict == "not_gamma2"
        assert rep.implied_values == (2, 3)

    def test_g2_sharpness(self):
        # attains the identity by oracle, yet its special vertices fail to dominate
        rep = classify(fixture("g2"), fallback="oracle")
        assert not rep.eligible and rep.ineligibility_witness.pattern == "h2"
        assert rep.verdict == "is_gamma2" and rep.implied_values == (3, 6)

    def test_each_forbidden_pattern_is_necessary(self):
        # dropping any one pattern breaks the characterization: these three
        # graphs attain the identity while their special representatives
        # fail to be a packing and dominating set
        from twindom.domination import is_dominating, is_packing
        from twindom.structure import special_classes

        for name in ("g1", "g2", "c6"):
            g = fixture(name)
            assert is_gamma2_exact(g), name
            reps = sorted(special_classes(g).representatives)
            assert not (is_packing(g, reps)[0] and is_dominating(g, reps)), name

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            classify(Graph(2))

    def test_big_eligible_graph_needs_no_fallback(self):
        rep = classify(corona_p2(cycle(20)))  # girth 20: no induced c6/h1/h2
        assert rep.eligible and rep.verdict == "is_gamma2"

    def test_oracle_fallback_respects_cap(self):
        hexagon_plus_far_cycle = Graph(
            33,
            [(i, (i + 1) % 6) for i in range(6)]
            + [(6 + i, 6 + (i + 1) % 27) for i in range(27)],
        )
        rep = classify(hexagon_plus_far_cycle)
        assert not rep.eligible  # induced hexagon present
        with pytest.raises(OracleCapExceeded):
            classify(hexagon_plus_far_cycle, fallback="oracle", oracle_cap=32)

    @pytest.mark.parametrize("g, want", SPECIALIZATION_CASES)
    def test_specialization_cases(self, g, want, request):
        if isinstance(g, str):
            g = request.getfixturevalue(g)
        check_specialization(g, want)

    def test_yes_verdict_forces_certificates(self):
        for n in range(2, 6):
            for g in enumerate_small_graphs(n, "isolate_free"):
                rep = classify(g)
                if rep.eligible and rep.verdict == "is_gamma2":
                    assert rep.packing_ok and rep.dominating_ok
                    k = len(rep.s_set.representatives)
                    assert rep.implied_values == (k, 2 * k)
                elif rep.eligible:
                    assert rep.packing_violation is not None or rep.uncovered_vertex is not None

    def test_matches_oracle_on_eligible_small_graphs(self):
        for n in range(2, 6):
            for g in enumerate_small_graphs(n, "isolate_free"):
                rep = classify(g, fallback="oracle")
                assert (rep.verdict == "is_gamma2") == is_gamma2_exact(g), g

    def test_implied_values_match_oracle_when_yes(self):
        from twindom.domination import exact_gamma, exact_gamma_total

        for n in range(2, 6):
            for g in enumerate_small_graphs(n, "isolate_free"):
                rep = classify(g)
                if rep.eligible and rep.verdict == "is_gamma2":
                    assert rep.implied_values == (
                        exact_gamma(g).value,
                        exact_gamma_total(g).value,
                    )


class TestGirthImplication:
    # the sweep's cor4 claim: gamma_t = 2*gamma and minimum degree >= 2
    # force an induced triangle or hexagon and girth at most 6
    @staticmethod
    def cor4(g):
        """(cor4 applied, its violations) on one graph."""
        _, checked, violations = check_graph(g, ("cor4",))
        return checked.get("cor4", 0), violations

    def test_c6(self):
        assert self.cor4(cycle(6)) == (1, [])

    def test_triangle(self):
        assert self.cor4(complete(3)) == (1, [])

    def test_trees_vacuous(self):
        assert self.cor4(path(5)) == (0, [])

    def test_exhaustive_small(self):
        applied = 0
        for n in range(2, 6):
            for g in enumerate_small_graphs(n, "isolate_free"):
                checked, violations = self.cor4(g)
                assert violations == [], g
                applied += checked
        assert applied > 0


class TestGammaSetCount:
    # classify reports the twin-class product when it decides yes on an
    # eligible graph, and None otherwise
    def test_complete_graphs(self):
        for n in (2, 3, 5):
            assert classify(complete(n)).gamma_set_count == n

    def test_star(self):
        assert classify(star(3)).gamma_set_count == 1

    def test_fig1_without_tail_pair(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
                      (1, 5), (2, 3), (2, 5), (3, 4)])
        assert classify(g).gamma_set_count == 2 == enumerate_gamma_sets(g).count

    def test_requires_eligibility(self):
        rep = classify(cycle(6))
        assert not rep.eligible and rep.gamma_set_count is None

    def test_requires_yes_verdict(self):
        rep = classify(path(4))
        assert rep.verdict == "not_gamma2" and rep.gamma_set_count is None


class TestReportJson:
    def test_schema_keys_and_order(self):
        d = classify(star(3)).to_json_dict()
        assert list(d) == [
            "schemaVersion", "method", "eligible", "verdict", "sSet", "packingViolation",
            "uncoveredVertex", "impliedGamma", "impliedGammaT", "gammaSetCount",
            "witnessEmbedding", "elapsedMicros",
        ]
        assert d["schemaVersion"] == 1

    def test_deterministic_modulo_timing(self):
        a = classify(fixture("g2"), fallback="oracle").to_json_dict()
        b = classify(fixture("g2"), fallback="oracle").to_json_dict()
        a.pop("elapsedMicros")
        b.pop("elapsedMicros")
        assert a == b

    def test_witness_embedding_serialized(self):
        d = classify(cycle(6)).to_json_dict()
        assert d["witnessEmbedding"]["pattern"] == "c6"
        assert sorted(d["witnessEmbedding"]["mapping"]) == [0, 1, 2, 3, 4, 5]

    def test_sets_sorted(self):
        d = classify(fixture("fig1")).to_json_dict()
        assert d["sSet"]["special"] == [0, 1]
        assert d["sSet"]["classes"] == [[0, 1]]
