from __future__ import annotations

import random

import pytest
from hypothesis import given

from twindom.generators import (
    complete,
    corona_p2,
    cycle,
    enumerate_small_graphs,
    fixture,
    path,
    random_block_graph,
    random_tree,
    star,
)
from twindom.graphs import Graph, bit_indices, mask_of
from twindom.structure import clique_blocks, special_classes, support_vertices
from twindom.sweep import _distinguished_cuts

from conftest import (
    brute_closed,
    brute_cut_vertices,
    brute_special,
    in_two_blocks,
    is_block_graph,
    small_graphs,
    twin_rich_graphs,
)


def specials(g: Graph) -> list[int]:
    return sorted(special_classes(g).special)


def by_definition(g: Graph) -> set[int]:
    return {v for v in range(g.n) if brute_special(g, v)}


def assert_matches_definition(g: Graph) -> None:
    """special_classes(g) against the per-vertex definition: the special
    vertices, grouped by equal N[v] in order of least member, and the class
    minima as representatives."""
    s = special_classes(g)
    special = by_definition(g)
    assert s.special == special
    groups: dict[frozenset[int], set[int]] = {}
    for v in sorted(special):
        groups.setdefault(frozenset(brute_closed(g, v)), set()).add(v)
    assert s.classes == tuple(frozenset(c) for c in groups.values())
    assert s.representatives == {min(c) for c in groups.values()}


class TestSpecial:
    def test_fig1_only_v1_v2(self):
        assert specials(fixture("fig1")) == [0, 1]

    def test_c6_has_none(self):
        assert specials(cycle(6)) == []

    def test_star_center_only(self):
        # a leaf's inner part is empty, so its one outer neighbor covers it
        assert specials(star(3)) == [0]

    def test_isolated_vertex_not_special(self):
        assert specials(Graph(1)) == []
        assert specials(Graph(3, [(0, 1)])) == [0, 1]

    def test_g1_unique_special(self):
        assert specials(fixture("g1")) == [0]

    @given(small_graphs(max_n=7))
    def test_twins_share_specialness(self, g):
        # special_classes shares specialness by construction, so the claim
        # is checked on the definition, vertex by vertex
        for v in range(g.n):
            for u in range(g.n):
                if g.closed[u] == g.closed[v]:  # a true twin of v
                    assert brute_special(g, u) == brute_special(g, v)
        assert special_classes(g).special == by_definition(g)


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
        assert s.special == by_definition(g)

    def test_matches_definition_exhaustive(self):
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                assert_matches_definition(g)

    @given(twin_rich_graphs())
    def test_matches_definition_on_twin_rich_graphs(self, g):
        assert_matches_definition(g)


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


def distinguished(g: Graph) -> set[int] | None:
    """The ``blocks`` claim's distinguished cut vertices; None off block graphs."""
    blocks = clique_blocks(g)
    return None if blocks is None else set(bit_indices(_distinguished_cuts(blocks)))


class TestBlocks:
    def test_two_triangles(self, two_triangles):
        blocks = clique_blocks(two_triangles)
        assert blocks == [mask_of([0, 1, 2]), mask_of([0, 3, 4])]
        assert in_two_blocks(blocks) == {0}
        assert distinguished(two_triangles) == {0}

    def test_p4(self):
        blocks = clique_blocks(path(4))
        assert blocks == [mask_of([0, 1]), mask_of([1, 2]), mask_of([2, 3])]
        assert in_two_blocks(blocks) == {1, 2}
        assert distinguished(path(4)) == {1, 2}

    def test_c6_single_block(self):
        # one block, but not a clique
        assert clique_blocks(cycle(6)) is None
        assert distinguished(cycle(6)) is None

    def test_triangle_with_three_pendants(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
        assert in_two_blocks(clique_blocks(g)) == {0, 1, 2}
        assert distinguished(g) == {0, 1, 2}

    def test_k2_plus_c4_is_not_connected(self):
        # every B(uv) is a clique and sum(|B| - 1) = 5 = n - 1, yet two components
        g = Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)])
        assert clique_blocks(g) is None
        assert not is_block_graph(g)

    def test_every_edge_in_exactly_one_block(self):
        for g in (path(6), star(4), complete(4), corona_p2(path(3)), random_block_graph(6, 4, 3)):
            blocks = clique_blocks(g)
            for u, v in g.edges():
                holders = [b for b in blocks if b >> u & 1 and b >> v & 1]
                assert len(holders) == 1

    def test_cut_vertices_match_removal_oracle_exhaustive(self):
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                blocks = clique_blocks(g)
                assert (blocks is not None) == is_block_graph(g), g
                if blocks is not None:
                    assert in_two_blocks(blocks) == brute_cut_vertices(g), g

    def test_vertex_is_cut_iff_in_two_blocks(self):
        # on block graphs: cliques meeting in at most one vertex, and a vertex
        # separates the graph exactly when it lies in two of them
        for n in range(2, 7):
            for g in enumerate_small_graphs(n):
                blocks = clique_blocks(g)
                if blocks is None:
                    continue
                assert all(b & ~g.closed[v] == 0 for b in blocks for v in bit_indices(b))
                assert all((a & b).bit_count() <= 1 for i, a in enumerate(blocks) for b in blocks[:i])
                cuts = brute_cut_vertices(g)
                for v in range(g.n):
                    assert (v in cuts) == (sum(b >> v & 1 for b in blocks) >= 2)

    @given(small_graphs(max_n=8))
    def test_cut_vertices_match_removal_oracle_random(self, g):
        blocks = clique_blocks(g)
        assert (blocks is not None) == is_block_graph(g)
        if blocks is not None:
            assert in_two_blocks(blocks) == brute_cut_vertices(g)

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(6)
        graphs = []
        for _ in range(300):
            n, p = rng.randint(1, 80), rng.uniform(0.02, 0.3)
            graphs.append(Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p]))
        for seed in range(100):
            graphs.append(random_block_graph(rng.randint(2, 12), rng.randint(2, 5), seed))
            graphs.append(random_tree(rng.randint(1, 60), seed))
            g = random_block_graph(rng.randint(2, 12), rng.randint(2, 5), 1000 + seed)
            u, v = rng.choice([(u, v) for v in range(g.n) for u in range(v) if not g.has_edge(u, v)])
            graphs.append(Graph(g.n, [*g.edges(), (u, v)]))
        outcomes = {True: 0, False: 0}
        for g in graphs:
            ref = nx.Graph(g.edges())
            ref.add_nodes_from(range(g.n))
            components = [mask_of(c) for c in nx.biconnected_components(ref)]
            want = nx.is_connected(ref) and all(
                b & ~g.closed[v] == 0 for b in components for v in bit_indices(b)
            )
            blocks = clique_blocks(g)
            assert (blocks is not None) == want, list(g.edges())
            outcomes[want] += 1
            if want:
                assert blocks == sorted(components), list(g.edges())
                assert in_two_blocks(blocks) == set(nx.articulation_points(ref)), list(g.edges())
        assert min(outcomes.values()) >= 100, outcomes


class TestBlockGraph:
    def test_two_triangles_yes(self, two_triangles):
        assert is_block_graph(two_triangles)
        assert clique_blocks(two_triangles) is not None

    def test_c6_no(self):
        assert not is_block_graph(cycle(6))
        assert clique_blocks(cycle(6)) is None

    def test_trees_yes(self):
        for g in (path(7), star(5)):
            assert is_block_graph(g)
            assert len(clique_blocks(g)) == g.n - 1

    def test_specials_equal_distinguished_cuts_on_block_graphs(self):
        for seed in range(80):
            g = random_block_graph(2 + seed % 5, 2 + seed % 3, seed)
            assert special_classes(g).special == distinguished(g)
