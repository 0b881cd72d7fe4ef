from __future__ import annotations

import math
import random
import tracemalloc
from itertools import combinations

import pytest

from twindom import generators
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
from twindom.structure import clique_blocks, special_classes

from conftest import brute_cut_vertices, in_two_blocks, is_block_graph


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
        assert len(clique_blocks(g)) == 2

    def test_block_count_and_cliqueness(self):
        for seed in range(30):
            b = 2 + seed % 5
            g = random_block_graph(b, 2 + seed % 3, seed)
            assert is_block_graph(g)
            blocks = clique_blocks(g)
            assert len(blocks) == b
            assert basic_stats(g).component_count == 1
            assert in_two_blocks(blocks) == brute_cut_vertices(g)

    def test_deterministic(self):
        assert random_block_graph(5, 4, 7) == random_block_graph(5, 4, 7)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_block_graph(1, 3, 0)
        with pytest.raises(ValueError):
            random_block_graph(2, 1, 0)


def edge_built_block_graph(blocks: int, max_clique: int, seed: int) -> Graph:
    """random_block_graph's construction from edge tuples, drawing the same
    random numbers in the same order."""
    rng = random.Random(seed)
    sizes = [rng.randint(2, max_clique) for _ in range(blocks)]
    n = sizes[0]
    edges = list(combinations(range(n), 2))
    for size in sizes[1:]:
        edges += combinations([rng.randrange(n), *range(n, n + size - 1)], 2)
        n += size - 1
    return Graph(n, edges)


class TestMaskBuiltGenerators:
    """complete, corona_p2 and random_block_graph are built from adjacency
    masks; each must equal its construction from edge tuples."""

    def test_complete(self):
        for k in range(1, 9):
            assert complete(k) == Graph(k, combinations(range(k), 2))

    def test_corona(self):
        for h in (Graph(1), complete(2), cycle(5), fixture("g2"), Graph(3, [(0, 2)])):
            n = h.n
            edges = [*h.edges()]
            edges += [e for i in range(n) for e in ((i, n + 2 * i), (n + 2 * i, n + 2 * i + 1))]
            assert corona_p2(h) == Graph(3 * n, edges)

    def test_block_graph(self):
        for seed in range(40):
            b, k = 2 + seed % 7, 2 + seed % 5
            assert random_block_graph(b, k, seed) == edge_built_block_graph(b, k, seed)

    def test_complete_allocates_no_edge_list(self):
        # from edge tuples, complete(2000) peaked at 184 MiB to keep 1.3 MiB
        tracemalloc.start()
        try:
            complete(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestOrderCap:
    """Each builder checks the order it would build against the cap before
    building anything. The cap is lowered to CAP here, so a builder that
    lost its check builds a small graph instead of exhausting memory; the
    CLI tests use the real one."""

    CAP = 60

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_ORDER", self.CAP)

    @pytest.mark.parametrize("build, order", [
        (path, lambda k: k),
        (cycle, lambda k: k),
        (star, lambda k: k + 1),
        (complete, lambda k: k),
        (lambda k: fixture(f"c{k}"), lambda k: k),
        (lambda k: fixture(f"star{k}"), lambda k: k + 1),
        (lambda k: random_tree(k, 0), lambda k: k),
        # 1 + b(k - 1), the largest order it could draw, whatever it draws
        (lambda b: random_block_graph(b, 3, 0), lambda b: 1 + 2 * b),
        (lambda k: corona_p2(path(k)), lambda k: 3 * k),
    ], ids=["path", "cycle", "star", "complete", "fixture-c", "fixture-star", "tree",
            "blockgraph", "corona"])
    def test_refused_exactly_over_the_cap(self, build, order):
        k = max(k for k in range(2, self.CAP + 1) if order(k) <= self.CAP)
        assert build(k).n <= self.CAP
        with pytest.raises(ValueError, match=f"order {order(k + 1)} exceeds the order cap {self.CAP}"):
            build(k + 1)
