from __future__ import annotations

import pytest
from hypothesis import given

from twindom.generators import complete, cycle, enumerate_small_graphs, fixture, path, star
from twindom.graphs import Graph, mask_of
from twindom.structure import (
    blocks_and_cut_vertices,
    is_special,
    special_classes,
    special_vertices,
    support_vertices,
)

from conftest import brute_cut_vertices, is_block_graph, small_graphs


class TestSpecial:
    def test_fig1_only_v1_v2(self):
        assert special_vertices(fixture("fig1")) == [0, 1]

    def test_c6_has_none(self):
        assert special_vertices(cycle(6)) == []

    def test_star_center_only(self):
        g = star(3)
        assert is_special(g, 0)
        assert not any(is_special(g, leaf) for leaf in (1, 2, 3))

    def test_isolated_vertex_not_special(self):
        assert not is_special(Graph(1), 0)

    def test_g1_unique_special(self):
        assert special_vertices(fixture("g1")) == [0]

    @given(small_graphs(max_n=7))
    def test_twins_share_specialness(self, g):
        for v in range(g.n):
            if is_special(g, v):
                for u in range(g.n):
                    if g.closed[u] == g.closed[v]:  # a true twin of v
                        assert is_special(g, u)


class TestSpecialClasses:
    def test_fig1_one_class(self):
        s = special_classes(fixture("fig1"))
        assert s.special == {0, 1}
        assert s.classes == (frozenset({0, 1}),)
        assert s.representatives == {0}

    def test_g2_two_singletons(self):
        s = special_classes(fixture("g2"))
        assert s.special == {1, 11}
        assert s.classes == (frozenset({1}), frozenset({11}))
        assert s.representatives == {1, 11}

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_complete_graph_single_class(self, n):
        s = special_classes(complete(n))
        assert s.special == set(range(n))
        assert len(s.classes) == 1
        assert s.representatives == {0}

    def test_empty_for_c6(self):
        s = special_classes(cycle(6))
        assert s.special == frozenset()
        assert s.classes == ()

    @given(small_graphs(max_n=7))
    def test_classes_partition_specials(self, g):
        s = special_classes(g)
        seen = set()
        for c in s.classes:
            assert c, "classes are nonempty"
            assert not (c & seen)
            seen |= c
            assert min(c) in s.representatives
        assert seen == s.special
        assert s.special == set(special_vertices(g))


class TestSupports:
    def test_p3(self):
        assert support_vertices(path(3)) == {1}

    def test_k2_min_id_convention(self):
        assert support_vertices(complete(2)) == {0}

    def test_c6_none(self):
        assert support_vertices(cycle(6)) == set()

    def test_two_isolated_edges(self):
        g = Graph(4, [(0, 3), (1, 2)])
        assert support_vertices(g) == {0, 1}

    def test_supports_represent_specials_when_triangle_and_hexagon_free(self):
        # for every triangle-free, hexagon-free graph the support vertices
        # are the class representatives of the special vertices; classes
        # are singletons except the twin pair of a lone-edge component
        from twindom.forbidden import C3, C6, find_induced

        for n in range(2, 6):
            for g in enumerate_small_graphs(n, "isolate_free"):
                if find_induced(g, C3) or find_induced(g, C6):
                    continue
                s = special_classes(g)
                assert s.representatives == support_vertices(g)
                for c in s.classes:
                    a = min(c)
                    assert len(c) == 1 or (
                        len(c) == 2 and g.degree(a) == 1 and g.adj[a] == mask_of(c - {a})
                    )


class TestBlocks:
    def test_two_triangles(self, two_triangles):
        d = blocks_and_cut_vertices(two_triangles)
        assert sorted(sorted(b) for b in d.blocks) == [[0, 1, 2], [0, 3, 4]]
        assert d.cut_vertices == {0}
        assert d.lone_block_cuts == {0}
        assert d.multi_block_cuts == {0}

    def test_p4(self):
        d = blocks_and_cut_vertices(path(4))
        assert sorted(sorted(b) for b in d.blocks) == [[0, 1], [1, 2], [2, 3]]
        assert d.cut_vertices == {1, 2}
        assert d.lone_block_cuts == {1, 2}
        assert d.multi_block_cuts == set()

    def test_c6_single_block(self):
        d = blocks_and_cut_vertices(cycle(6))
        assert len(d.blocks) == 1
        assert d.cut_vertices == set()
        assert d.lone_block_cuts == set() == d.multi_block_cuts

    def test_triangle_with_three_pendants(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
        d = blocks_and_cut_vertices(g)
        assert d.cut_vertices == {0, 1, 2}
        assert d.lone_block_cuts == {0, 1, 2}
        assert d.multi_block_cuts == set()

    def test_every_edge_in_exactly_one_block(self):
        for g in (fixture("fig1"), fixture("g2"), path(6), star(4)):
            d = blocks_and_cut_vertices(g)
            for u, v in g.edges():
                holders = [b for b in d.blocks if u in b and v in b]
                assert len(holders) == 1

    def test_cut_vertices_match_removal_oracle_exhaustive(self):
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                d = blocks_and_cut_vertices(g)
                assert d.cut_vertices == brute_cut_vertices(g), g

    def test_vertex_is_cut_iff_in_two_blocks(self):
        for n in range(2, 7):
            for g in enumerate_small_graphs(n):
                d = blocks_and_cut_vertices(g)
                for v in range(g.n):
                    n_blocks = sum(1 for b in d.blocks if v in b)
                    assert (v in d.cut_vertices) == (n_blocks >= 2)

    @given(small_graphs(max_n=8))
    def test_cut_vertices_match_removal_oracle_random(self, g):
        assert blocks_and_cut_vertices(g).cut_vertices == brute_cut_vertices(g)


class TestBlockGraph:
    def test_two_triangles_yes(self, two_triangles):
        assert is_block_graph(two_triangles)

    def test_c6_no(self):
        assert not is_block_graph(cycle(6))

    def test_trees_yes(self):
        assert is_block_graph(path(7))
        assert is_block_graph(star(5))

    def test_specials_equal_distinguished_cuts_on_block_graphs(self):
        from twindom.generators import random_block_graph

        for seed in range(80):
            g = random_block_graph(2 + seed % 5, 2 + seed % 3, seed)
            d = blocks_and_cut_vertices(g)
            assert set(special_vertices(g)) == (d.lone_block_cuts | d.multi_block_cuts)
