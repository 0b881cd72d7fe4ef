from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from twindom.domination import (
    IsolatedVertexError,
    OracleCapExceeded,
    enumerate_gamma_sets,
    exact_gamma,
    exact_gamma_total,
    is_dominating,
    is_packing,
)
from twindom.generators import complete, cycle, enumerate_small_graphs, fixture, path, star
from twindom.graphs import Graph

from conftest import (
    brute_gamma,
    brute_gamma_sets,
    brute_gamma_total,
    brute_is_dominating,
    brute_is_packing,
    brute_is_total_dominating,
    is_gamma2_exact,
    small_graphs,
)


class TestPredicates:
    def test_c6_antipodal_dominates(self):
        assert is_dominating(cycle(6), {0, 3})

    def test_fig1_v1_alone_misses_far_pair(self):
        assert not is_dominating(fixture("fig1"), {0})

    def test_whole_vertex_set_dominates(self):
        g = fixture("g2")
        assert is_dominating(g, set(range(g.n)))

    # total domination is decided by the exact oracle alone
    def test_k2_totally_dominated_by_both(self):
        cert = exact_gamma_total(complete(2))
        assert (cert.value, cert.witness) == (2, {0, 1})

    def test_c6_antipodal_not_total(self):
        assert not brute_is_total_dominating(cycle(6), {0, 3})
        assert exact_gamma_total(cycle(6)).value == 4  # so no pair is total

    def test_c6_four_in_a_row_total(self):
        # independent direct evaluation of the open-neighborhood union
        cert = exact_gamma_total(cycle(6))
        assert cert.witness == {0, 1, 2, 3}
        assert brute_is_total_dominating(cycle(6), cert.witness)

    def test_c6_packing(self):
        assert is_packing(cycle(6), {0, 3}) == (True, None)

    def test_p4_adjacent_pair_violates(self):
        assert is_packing(path(4), {1, 2}) == (False, (1, 2))

    def test_small_sets_vacuous(self):
        g = cycle(5)
        assert is_packing(g, set()) == (True, None)
        assert is_packing(g, {2}) == (True, None)

    def test_violation_pair_is_lexicographically_least(self):
        # 1-5 share nothing; 1-3 share 2; 0-5 adjacent: least violating pair is (0,5)
        g = Graph(6, [(0, 5), (1, 2), (2, 3)])
        ok, pair = is_packing(g, {0, 1, 3, 5})
        assert not ok and pair == (0, 5)

    @given(small_graphs())
    def test_predicates_match_brute_force(self, g):
        rng = random.Random(g.n * 31 + g.edge_count)
        s = {v for v in range(g.n) if rng.random() < 0.4}
        assert is_dominating(g, s) == brute_is_dominating(g, s)
        assert is_packing(g, s)[0] == brute_is_packing(g, s)


class TestExactGamma:
    @pytest.mark.parametrize(
        "name,expect",
        [("c6", 2), ("g1", 2), ("g2", 3), ("k5", 1), ("k2", 1), ("fig1", 2)],
    )
    def test_known_values(self, name, expect):
        assert exact_gamma(fixture(name)).value == expect

    @pytest.mark.parametrize(
        "name,expect",
        [("c6", 4), ("g1", 4), ("g2", 6), ("k2", 2), ("fig1", 3)],
    )
    def test_known_total_values(self, name, expect):
        assert exact_gamma_total(fixture(name)).value == expect

    def test_witness_passes_predicate(self):
        for name in ("c6", "g1", "g2", "fig1", "p7"):
            g = fixture(name)
            cert = exact_gamma(g)
            assert is_dominating(g, cert.witness)
            assert len(cert.witness) == cert.value
            cert_t = exact_gamma_total(g)
            assert brute_is_total_dominating(g, cert_t.witness)
            assert len(cert_t.witness) == cert_t.value

    def test_nothing_smaller_exists(self):
        for n in range(2, 7):
            g = cycle(n + 1) if n % 2 else path(n + 1)
            for kind, pred in ((exact_gamma, is_dominating), (exact_gamma_total, brute_is_total_dominating)):
                value = kind(g).value
                for s in combinations(range(g.n), value - 1):
                    assert not pred(g, s)

    def test_gamma_total_rejects_isolated(self):
        with pytest.raises(IsolatedVertexError):
            exact_gamma_total(Graph(3, [(0, 1)]))

    def test_cap_refusal(self):
        g = path(12)
        with pytest.raises(OracleCapExceeded):
            exact_gamma(g, cap=10)
        with pytest.raises(OracleCapExceeded):
            exact_gamma_total(g, cap=10)
        assert exact_gamma(g, cap=12).value == 4

    def test_agrees_with_naive_enumeration_exhaustive(self):
        for n in range(1, 6):
            for g in enumerate_small_graphs(n):
                assert exact_gamma(g).value == brute_gamma(g), g
                expected_t = brute_gamma_total(g)
                if expected_t is None:
                    with pytest.raises(IsolatedVertexError):
                        exact_gamma_total(g)
                else:
                    assert exact_gamma_total(g).value == expected_t, g

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=7, min_n=6))
    def test_agrees_with_naive_enumeration_random(self, g):
        assert exact_gamma(g).value == brute_gamma(g)
        expected_t = brute_gamma_total(g)
        if expected_t is not None:
            assert exact_gamma_total(g).value == expected_t

    def test_disconnected_graphs_handled_whole(self):
        g = Graph(7, [(0, 1), (2, 3), (3, 4), (5, 6)])
        assert exact_gamma(g).value == brute_gamma(g)
        assert exact_gamma_total(g).value == brute_gamma_total(g)

    def test_deterministic_witness(self):
        g = fixture("fig1")
        assert exact_gamma(g).witness == exact_gamma(g).witness
        assert exact_gamma_total(g).witness == exact_gamma_total(g).witness


class TestEnumerateGammaSets:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_complete_graph_counts_singletons(self, n):
        e = enumerate_gamma_sets(complete(n))
        assert e.gamma == 1 and e.count == n
        assert e.sets == tuple(frozenset({v}) for v in range(n))

    def test_star_has_unique_gamma_set(self):
        e = enumerate_gamma_sets(star(3))
        assert e.count == 1 and e.sets == (frozenset({0}),)

    def test_c6_count_matches_pairwise_oracle(self):
        g = cycle(6)
        expect = sum(
            1 for u in range(6) for v in range(u + 1, 6) if brute_is_dominating(g, {u, v})
        )
        e = enumerate_gamma_sets(g)
        assert e.gamma == 2
        assert e.count == expect == 3

    def test_list_cap_truncates_but_count_exact(self):
        e = enumerate_gamma_sets(complete(6), list_cap=2)
        assert e.count == 6 and len(e.sets) == 2

    def test_matches_brute_sets_exhaustive(self):
        for n in range(1, 6):
            for g in enumerate_small_graphs(n):
                e = enumerate_gamma_sets(g)
                assert set(e.sets) == brute_gamma_sets(g)
                assert e.count == len(brute_gamma_sets(g))


class TestIsGamma2:
    @pytest.mark.parametrize(
        "name,expect",
        [("c6", True), ("g1", True), ("g2", True), ("p4", False), ("k3", True), ("fig1", False)],
    )
    def test_examples(self, name, expect):
        assert is_gamma2_exact(fixture(name)) is expect


class TestBounds:
    def test_sandwich_and_two_thirds_small(self):
        for n in range(2, 6):
            for g in enumerate_small_graphs(n, "isolate_free"):
                gamma = exact_gamma(g).value
                gamma_t = exact_gamma_total(g).value
                assert gamma <= gamma_t <= 2 * gamma
