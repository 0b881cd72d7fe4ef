from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings

from twindom.forbidden import C3, C6, H1, H2, PATTERNS, find_induced, girth, is_chordal, is_free
from twindom.generators import complete, cycle, enumerate_small_graphs, fixture, path, star
from twindom.graphs import Graph, basic_stats, bit_indices

from conftest import brute_find_induced, brute_girth, brute_is_chordal, small_graphs


class TestPatternShapes:
    def test_degree_sequences(self):
        assert sorted(H1.graph.degree(v) for v in range(6)) == [2, 2, 2, 2, 3, 3]
        assert sorted(H2.graph.degree(v) for v in range(6)) == [2, 2, 3, 3, 3, 3]

    def test_h1_single_short_chord(self):
        # chord endpoints sit at distance two on the hexagon
        extra = set(H1.graph.edges()) - set(C6.graph.edges())
        assert extra == {(1, 5)}
        assert H1.graph.has_edge(0, 1) and H1.graph.has_edge(0, 5)

    def test_h2_chords_disjoint_and_opposite(self):
        extra = sorted(set(H2.graph.edges()) - set(C6.graph.edges()))
        assert extra == [(1, 5), (2, 4)]
        assert not set((1, 5)) & set((2, 4))


class TestFindInduced:
    def test_c6_in_itself(self):
        emb = find_induced(cycle(6), C6)
        assert emb is not None
        assert sorted(emb.mapping) == [0, 1, 2, 3, 4, 5]

    def test_g1_facts(self):
        g1 = fixture("g1")
        assert find_induced(g1, H1) is not None
        assert find_induced(g1, H2) is None
        assert find_induced(g1, C6) is None

    def test_g2_facts(self):
        g2 = fixture("g2")
        assert find_induced(g2, H2) is not None
        assert find_induced(g2, H1) is None
        assert find_induced(g2, C6) is None

    def test_embedding_preserves_adjacency_and_nonadjacency(self):
        host = fixture("fig1")
        emb = find_induced(host, C6)
        assert emb is not None
        p = C6.graph
        m = emb.mapping
        for i in range(6):
            for j in range(i + 1, 6):
                assert p.has_edge(i, j) == host.has_edge(m[i], m[j])

    def test_lexicographically_least_witness(self):
        emb = find_induced(complete(5), C3)
        assert emb.mapping == (0, 1, 2)

    def test_agrees_with_naive_oracle_exhaustive(self):
        patterns = list(PATTERNS.values())
        for n in range(1, 6):
            for g in enumerate_small_graphs(n):
                for p in patterns:
                    assert (find_induced(g, p) is not None) == (
                        brute_find_induced(g, p.graph) is not None
                    ), (g, p.name)

    def test_agrees_with_naive_oracle_on_fixtures(self):
        for name in ("fig1", "g1", "g2", "c6", "c7", "star4", "k6"):
            g = fixture(name)
            for p in PATTERNS.values():
                assert (find_induced(g, p) is not None) == (
                    brute_find_induced(g, p.graph) is not None
                ), (name, p.name)

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(max_n=8, min_n=6))
    def test_agrees_with_naive_oracle_random(self, g):
        for p in (C6, H1, H2):
            assert (find_induced(g, p) is not None) == (
                brute_find_induced(g, p.graph) is not None
            )


class TestIsFree:
    def test_trees_are_free(self):
        assert is_free(path(8)) == (True, None)
        assert is_free(star(5)) == (True, None)

    def test_c6_witnessed_by_itself(self):
        free, emb = is_free(cycle(6))
        assert not free
        assert emb.pattern == "c6"

    def test_fig1_has_induced_hexagon(self):
        free, emb = is_free(fixture("fig1"), (C6,))
        assert not free
        hexagon = {2, 3, 4, 5, 6, 7}  # v3,v4,v5,v6,v7,v8
        assert set(emb.mapping) == hexagon

    def test_pattern_order_determines_witness(self):
        free, emb = is_free(fixture("g2"), (H1, H2, C6))
        assert not free and emb.pattern == "h2"


class TestChordal:
    def test_trees(self):
        assert is_chordal(path(9))
        assert is_chordal(star(6))

    def test_c6_not(self):
        assert not is_chordal(cycle(6))

    def test_two_triangles(self, two_triangles):
        assert is_chordal(two_triangles)

    def test_agrees_with_subset_oracle_exhaustive(self):
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                assert is_chordal(g) == brute_is_chordal(g), g

    @given(small_graphs(max_n=8, min_n=7))
    def test_agrees_with_subset_oracle_random(self, g):
        assert is_chordal(g) == brute_is_chordal(g)

    def test_chordal_implies_pattern_free(self):
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                if is_chordal(g):
                    assert is_free(g)[0]

    def test_agrees_with_networkx_beyond_brute_force(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2017)
        answers = []
        for _ in range(300):
            g = _near_chordal(rng, rng.randint(20, 80))
            ref = nx.Graph(g.edges())
            ref.add_nodes_from(range(g.n))
            answers.append(is_chordal(g))
            assert answers[-1] == nx.is_chordal(ref), sorted(g.edges())
        assert True in answers and False in answers


def _near_chordal(rng: random.Random, n: int) -> Graph:
    """A chordal graph, joining each new vertex to a clique of earlier ones,
    with 0-2 random vertex pairs then toggled between edge and non-edge."""
    adj = [0] * n
    for v in range(1, n):
        clique, common = 0, (1 << v) - 1  # common: earlier vertices adjacent to all of clique
        for u in rng.sample(range(v), min(v, rng.randint(1, 5))):
            if common >> u & 1:
                clique |= 1 << u
                common &= adj[u]
        adj[v] = clique
        for u in bit_indices(clique):
            adj[u] |= 1 << v
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
    return Graph.from_masks(n, adj)


class TestGirth:
    @pytest.mark.parametrize(
        "g,expect", [(cycle(6), 6), (complete(3), 3), (path(5), math.inf), (star(4), math.inf)]
    )
    def test_examples(self, g, expect):
        assert girth(g) == expect

    def test_agrees_with_subset_oracle(self):
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                expect = brute_girth(g)
                got = girth(g)
                assert (got == math.inf and expect is None) or got == expect, g

    @given(small_graphs(max_n=9))
    def test_forest_iff_edge_count_formula(self, g):
        stats = basic_stats(g)
        is_forest = stats.edge_count == g.n - stats.component_count
        assert (girth(g) == math.inf) == is_forest
