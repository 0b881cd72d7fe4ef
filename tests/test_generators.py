from __future__ import annotations

import math

import pytest

from twindom.domination import exact_gamma, exact_gamma_total, is_dominating, is_packing
from twindom.forbidden import H1, H2, find_induced, girth
from twindom.generators import (
    complete,
    construction_h,
    corona_p2,
    cycle,
    enumerate_small_graphs,
    fixture,
    path,
    random_block_graph,
    random_tree,
    star,
)
from twindom.graphs import Graph, basic_stats
from twindom.structure import blocks_and_cut_vertices, special_classes

from conftest import brute_cut_vertices, is_block_graph


class TestFixtures:
    def test_fig1_pinned_edges(self):
        g = fixture("fig1")
        assert g.n == 8
        assert sorted(g.edges()) == [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 3), (2, 5), (3, 4), (4, 6), (5, 7), (6, 7),
        ]
        assert g.labels == ("v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8")

    def test_fig1_special_set(self):
        assert sorted(special_classes(fixture("fig1")).special) == [0, 1]

    def test_g1_shape_and_values(self):
        g = fixture("g1")
        assert (g.n, g.edge_count) == (7, 8)
        assert exact_gamma(g).value == 2
        assert exact_gamma_total(g).value == 4

    def test_g2_shape_and_values(self):
        g = fixture("g2")
        assert g.n == 13
        assert sum(1 for v in range(g.n) if g.degree(v) == 1) == 2  # two pendants
        assert exact_gamma(g).value == 3
        assert exact_gamma_total(g).value == 6
        # behavioral pins for the drawn shape
        assert find_induced(g, H2) is not None
        assert find_induced(g, H1) is None

    def test_pattern_fixture_degree_sequences(self):
        assert sorted(fixture("h1").degree(v) for v in range(6)) == [2, 2, 2, 2, 3, 3]
        assert sorted(fixture("h2").degree(v) for v in range(6)) == [2, 2, 3, 3, 3, 3]

    def test_g1_contains_h1_not_h2(self):
        g1 = fixture("g1")
        assert find_induced(g1, H1) is not None
        assert find_induced(g1, H2) is None

    def test_families(self):
        assert fixture("c6") == cycle(6)
        assert fixture("p4") == path(4)
        assert fixture("star3") == star(3)
        assert fixture("k5") == complete(5)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture("nope")
        with pytest.raises(ValueError):
            fixture("c2")


class TestCorona:
    def test_single_vertex_gives_p3(self):
        assert corona_p2(Graph(1)) == path(3)

    def test_triangle_corona_attains_identity(self):
        g = corona_p2(cycle(3))
        assert g.n == 9
        assert exact_gamma(g).value == 3
        assert exact_gamma_total(g).value == 6

    def test_girth_preserved(self):
        assert girth(corona_p2(cycle(8))) == 8
        assert girth(corona_p2(path(4))) == math.inf

    def test_total_domination_hits_two_thirds(self):
        for nh in range(2, 5):
            for h in enumerate_small_graphs(nh, "connected"):
                c = corona_p2(h)
                assert 3 * exact_gamma_total(c).value == 2 * c.n


class TestConstruction:
    def test_singleton_case_is_p3(self):
        assert construction_h(Graph(1), [Graph(1)]) == path(3)

    def test_c4_with_singletons_matches_corona_values(self):
        g = construction_h(cycle(4), [Graph(1)] * 4)
        assert exact_gamma(g).value == 4
        assert exact_gamma_total(g).value == 8
        reps = special_classes(g).representatives
        assert reps == {4, 6, 8, 10}  # the four hubs

    def test_hubs_become_special_packing_dominating(self):
        g = construction_h(path(2), [complete(2), complete(3)])
        classes = special_classes(g)
        assert sorted(classes.special) == [2, 5]  # hub ids
        reps = sorted(classes.representatives)
        assert is_packing(g, reps)[0] and is_dominating(g, reps)
        assert exact_gamma_total(g).value == 2 * exact_gamma(g).value

    def test_every_small_spec_lands_in_the_identity_family(self):
        bases = [Graph(1), path(2), path(3), cycle(3)]
        attachments = [Graph(1), complete(2), Graph(2), complete(3)]
        for base in bases:
            spec = [attachments[i % len(attachments)] for i in range(base.n)]
            g = construction_h(base, spec)
            classes = special_classes(g)
            reps = sorted(classes.representatives)
            assert is_packing(g, reps)[0] and is_dominating(g, reps)
            assert exact_gamma_total(g).value == 2 * exact_gamma(g).value

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            construction_h(path(2), [Graph(1)])

    def test_empty_attachment_rejected(self):
        with pytest.raises(ValueError):
            construction_h(Graph(1), [Graph(0)])


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_small_graphs(3)) == 8
        assert sum(1 for _ in enumerate_small_graphs(4, "connected")) == 38
        assert [g.edge_count for g in enumerate_small_graphs(2, "isolate_free")] == [1]

    def test_all_distinct(self):
        seen = {g.adj for g in enumerate_small_graphs(4)}
        assert len(seen) == 64

    def test_deterministic_order(self):
        first = [g.adj for g in enumerate_small_graphs(3)]
        second = [g.adj for g in enumerate_small_graphs(3)]
        assert first == second
        assert first[0] == (0, 0, 0)  # edge mask ascending starts edgeless

    def test_refuses_large_order(self):
        with pytest.raises(ValueError):
            next(enumerate_small_graphs(8))


class TestRandomTree:
    def test_tiny_orders(self):
        assert random_tree(1, 0) == Graph(1)
        assert random_tree(2, 0) == complete(2)

    def test_is_a_tree(self):
        for seed in range(30):
            t = random_tree(3 + seed % 15, seed)
            stats = basic_stats(t)
            assert stats.component_count == 1
            assert stats.edge_count == t.n - 1

    def test_pinned_seed(self):
        # frozen from the first run; guards the determinism contract
        t = random_tree(8, 42)
        assert sorted(t.edges()) == [(0, 1), (0, 4), (1, 5), (2, 3), (2, 7), (3, 4), (3, 6)]

    def test_same_seed_same_tree(self):
        assert random_tree(12, 7) == random_tree(12, 7)
        assert random_tree(12, 7) != random_tree(12, 8)


class TestRandomBlockGraph:
    def test_two_cliques_share_a_vertex(self):
        g = random_block_graph(2, 3, 1)
        assert is_block_graph(g)
        assert len(blocks_and_cut_vertices(g).blocks) == 2

    def test_block_count_and_cliqueness(self):
        for seed in range(30):
            b = 2 + seed % 5
            g = random_block_graph(b, 2 + seed % 3, seed)
            assert is_block_graph(g)
            d = blocks_and_cut_vertices(g)
            assert len(d.blocks) == b
            assert basic_stats(g).component_count == 1
            assert d.cut_vertices == brute_cut_vertices(g)

    def test_deterministic(self):
        assert random_block_graph(5, 4, 7) == random_block_graph(5, 4, 7)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_block_graph(1, 3, 0)
        with pytest.raises(ValueError):
            random_block_graph(2, 1, 0)
