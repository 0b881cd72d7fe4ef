from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, settings

from twindom.forbidden import (
    C3, C6, H1, H2, PATTERNS, Embedding, Pattern, _core, find_induced, girth, is_chordal, is_free,
)
from twindom.generators import complete, corona_p2, cycle, enumerate_small_graphs, fixture, path, random_tree, star
from twindom.graphs import MAX_ORDER, Graph, bit_indices, component_masks
from twindom.sweep import _has_triangle

from conftest import (
    blow_up,
    brute_find_induced,
    brute_girth,
    brute_is_chordal,
    brute_reduced_host,
    small_graphs,
    twin_rich_graphs,
)

# a 5-cycle whose ids do not run around it: find_induced drops exhausted roots
# of every cycle pattern, however it is labeled
C5_RELABELED = Pattern("c5", Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]))


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

    # brute force tries image tuples in lexicographic order, so its first
    # hit is the least witness, the one find_induced promises

    def test_agrees_with_naive_oracle_exhaustive(self):
        # a copy of an n-vertex pattern in an n-vertex host is the whole
        # host, so only a host with the pattern's degree sequence can hold one
        hits = set()
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                degrees = sorted(map(g.degree, range(n)))
                for p in PATTERNS.values():
                    whole = p.graph.n == n and degrees != sorted(map(p.graph.degree, range(n)))
                    expect = None if whole else brute_find_induced(g, p.graph)
                    assert _mapping(find_induced(g, p)) == expect, (g, p.name)
                    hits.add((n, p.name, expect is not None))
        assert {(6, p, True) for p in PATTERNS} <= hits

    def test_agrees_with_naive_oracle_on_fixtures(self):
        for name in ("fig1", "g1", "g2", "c6", "c7", "star4", "k6"):
            g = fixture(name)
            for p in PATTERNS.values():
                assert _mapping(find_induced(g, p)) == brute_find_induced(g, p.graph), (name, p.name)

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(max_n=8, min_n=6))
    def test_agrees_with_naive_oracle_random(self, g):
        for p in (C6, H1, H2, C5_RELABELED):
            assert _mapping(find_induced(g, p)) == brute_find_induced(g, p.graph), p.name

    @settings(max_examples=30, deadline=None)
    @given(twin_rich_graphs())
    def test_agrees_with_naive_oracle_on_twin_blow_ups(self, g):
        # twin classes are what the c6/h1/h2 search collapses, and what the
        # c3 search must not
        for p in PATTERNS.values():
            assert _mapping(find_induced(g, p)) == brute_find_induced(g, p.graph), p.name

    @pytest.mark.parametrize("pattern", [
        Pattern("paw", Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])),  # a leaf and true twins
        Pattern("c4", Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),  # two false-twin pairs
        Pattern("p4", path(4)),  # twin-free with leaves
        Pattern("k2+k1", Graph(3, [(0, 1)])),  # minimum degree 0
    ])
    def test_reductions_follow_the_pattern_profile(self, pattern):
        hosts = [fixture("fig1"), complete(5), blow_up(Graph(2, [(0, 1)]), [3, 3], [False, False], range(6)),
                 blow_up(cycle(4), [2, 1, 3, 1], [True, False, False, True], range(7))]
        hosts += [Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), path(5)]
        for g in hosts:
            assert _mapping(find_induced(g, pattern)) == brute_find_induced(g, pattern.graph), g

    def test_pattern_profiles(self):
        assert [p.profile for p in (C3, C6, H1, H2)] == [(2, False, 3), (2, True, 6), (2, True, 6), (2, True, 6)]
        assert Pattern("c4", cycle(4)).profile == (2, False, 4)
        assert Pattern("paw", Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])).profile == (1, False, 4)
        assert Pattern("p4", path(4)).profile == (1, True, 4)
        # only a connected 2-regular pattern, a cycle, has its exhausted roots dropped
        assert [p._cycle for p in (C3, C6, H1, H2, C5_RELABELED)] == [True, True, False, False, True]
        assert not Pattern("c3+c4", Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]))._cycle

    def test_agrees_with_networkx_beyond_brute_force(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        rng = random.Random(2017)
        seen = set()
        for i in range(200):
            n = rng.randint(20, 80)
            g = _twin_free(rng, n) if i % 2 else _sparse_blow_up(rng, n)
            host = nx.Graph(g.edges())
            host.add_nodes_from(range(g.n))
            for p in (C3, C6, H1, H2):
                emb = find_induced(g, p)
                found = GraphMatcher(host, nx.Graph(p.graph.edges())).subgraph_is_isomorphic()
                assert (emb is not None) == found, (p.name, sorted(g.edges()))
                if emb is not None:
                    assert _is_induced_copy(g, p, emb.mapping)
                seen.add((i % 2, p.name, emb is not None))
        # both kinds of host both hold and lack each hexagon pattern
        assert {(k, p, hit) for k in (0, 1) for p in ("c6", "h1") for hit in (False, True)} <= seen

    def test_agrees_with_networkx_on_dense_hosts(self):
        # A co-bipartite host has no three pairwise non-adjacent vertices,
        # so it holds no c6 or h1 and those searches run to exhaustion.
        # networkx matches the complements, since a graph holds an induced
        # copy of a pattern exactly when its complement holds one of the
        # pattern's complement, and there it rules out a copy quickly.
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        rng = random.Random(1980)
        seen = set()
        for i in range(60):
            if i % 3:
                g = _co_bipartite(rng, rng.randint(3, 50), rng.random())
            else:
                n = rng.randint(10, 100)
                g = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5])
            host = nx.complement(nx.Graph(g.edges()))
            host.add_nodes_from(range(g.n))
            for p in (C3, C6, H1, H2):
                emb = find_induced(g, p)
                pattern = nx.complement(nx.Graph(p.graph.edges()))
                pattern.add_nodes_from(range(p.graph.n))
                assert (emb is not None) == GraphMatcher(host, pattern).subgraph_is_isomorphic(), (p.name, i)
                if emb is not None:
                    assert _is_induced_copy(g, p, emb.mapping), (p.name, i)
                seen.add((i % 3 > 0, p.name, emb is not None))
        # co-bipartite hosts both hold and lack h2; G(n, 1/2) holds all three
        assert {(True, p, False) for p in ("c6", "h1", "h2")} | {(True, "h2", True)} <= seen
        assert {(False, p, True) for p in ("c6", "h1", "h2")} <= seen

    def test_dense_co_bipartite_host_within_seconds(self):
        # cliques of 160 joined at random: no c6 or h1, found h2
        g = _co_bipartite(random.Random(1), 160, 0.5)
        started = time.monotonic()
        assert find_induced(g, C6) is None
        assert find_induced(g, H1) is None
        emb = find_induced(g, H2)
        assert time.monotonic() - started < 30
        assert emb is not None and _is_induced_copy(g, H2, emb.mapping)


def _is_induced_copy(g: Graph, p: Pattern, mapping) -> bool:
    k = p.graph.n
    return len(set(mapping)) == k and all(
        p.graph.has_edge(a, b) == g.has_edge(mapping[a], mapping[b]) for a in range(k) for b in range(a))


def _co_bipartite(rng: random.Random, a: int, p: float) -> Graph:
    """Two cliques on ``a`` vertices each, every pair across them an edge
    with probability ``p``, randomly relabeled."""
    edges = [(u, v) for u in range(2 * a) for v in range(u + 1, 2 * a) if v < a or u >= a or rng.random() < p]
    order = list(range(2 * a))
    rng.shuffle(order)
    return Graph(2 * a, [(order[u], order[v]) for u, v in edges])


def _mapping(emb):
    return None if emb is None else emb.mapping


def _sparse(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """The edges of a random tree on ``n`` vertices plus up to n/2 random others."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = len(edges) + rng.randint(0, n // 2)
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return edges


def _twin_free(rng: random.Random, n: int) -> Graph:
    """A sparse random graph, joined to a random new neighbor of one twin
    at a time until no two vertices are twins."""
    edges = _sparse(rng, n)
    while True:
        g = Graph(n, edges)
        first: dict = {}
        twin = next((v for v in range(n) for key in (("open", g.adj[v]), ("closed", g.closed[v]))
                     if first.setdefault(key, v) != v), None)
        if twin is None:
            return g
        u = rng.choice([w for w in range(n) if w != twin and not g.has_edge(w, twin)])
        edges.add((min(u, twin), max(u, twin)))


def _sparse_blow_up(rng: random.Random, n: int) -> Graph:
    """A random true/false-twin blow-up of a sparse graph on 3n/5 to 3n/4
    vertices, with ``n`` vertices in all. The base stays small enough in
    degree for the networkx matcher to exhaust its search."""
    k = rng.randint(3 * n // 5, 3 * n // 4)
    sizes = [1] * k
    for _ in range(n - k):
        sizes[rng.randrange(k)] += 1
    order = list(range(n))
    rng.shuffle(order)
    return blow_up(Graph(k, _sparse(rng, k)), sizes, [rng.random() < 0.5 for _ in range(k)], order)


class TestTriangleByMasks:
    # the sweep's cor4 and supports claims test for a triangle without the
    # pattern search; a triangle is always induced
    def test_agrees_with_pattern_search_exhaustive(self):
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                assert _has_triangle(g) == (find_induced(g, C3) is not None), g

    @given(twin_rich_graphs())
    def test_agrees_with_pattern_search_on_twin_blow_ups(self, g):
        assert _has_triangle(g) == (find_induced(g, C3) is not None)


def _thread_rich_hosts() -> list[Graph]:
    """Hosts whose reduced hosts lose threads: cycles C_4 ... C_12 with
    pendant trees, theta graphs (two vertices joined by three paths of 1-6
    edges), K_4 with each edge subdivided 0-3 times, figure eights (C_a and
    C_b, 3 <= a <= b <= 8, sharing one vertex, which is both ends of each
    loop's thread), and coronas of cycles; all but the coronas randomly
    relabeled."""
    rng = random.Random(1704)
    hosts = []
    for n in range(4, 13):
        edges, size = list(cycle(n).edges()), n
        for _ in range(rng.randint(1, 6)):  # each new vertex hangs from an earlier one
            edges.append((rng.randrange(size), size))
            size += 1
        hosts.append(_relabeled(rng, size, edges))
    for a in range(1, 7):
        for b in range(max(a, 2), 7):
            for c in range(b, 7):
                edges, size = [], 2
                for length in (a, b, c):
                    inner = list(range(size, size + length - 1))
                    edges += list(zip([0] + inner, inner + [1]))
                    size += length - 1
                hosts.append(_relabeled(rng, size, edges))
    for _ in range(20):
        edges, size = [], 4
        for u, v in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            inner = list(range(size, size + rng.randint(0, 3)))
            edges += list(zip([u] + inner, inner + [v]))
            size += len(inner)
        hosts.append(_relabeled(rng, size, edges))
    for a in range(3, 9):
        for b in range(a, 9):
            inner = list(range(a, a + b - 1))
            hosts.append(_relabeled(rng, a + b - 1, list(cycle(a).edges()) + list(zip([0] + inner, inner + [0]))))
    return hosts + [corona_p2(cycle(n)) for n in range(3, 13)]


def _relabeled(rng: random.Random, n: int, edges) -> Graph:
    order = list(range(n))
    rng.shuffle(order)
    return Graph(n, [(order[a], order[b]) for a, b in edges])


THREAD_RICH = _thread_rich_hosts()


def _unreduced(g: Graph):
    """The whole of ``g`` as a reduced host, with its degrees."""
    return g.full, [m.bit_count() for m in g.adj]


class TestReducedHost:
    @staticmethod
    def assert_matches_definition(g, orders=(3, 6)) -> int:
        """How many vertices the thread rule removed, summed over ``orders``."""
        for profile in ((2, True), (2, False)):
            for k in orders:
                alive, deg = _core(g, *profile, k)
                expect = brute_reduced_host(g, *profile, k)
                assert set(bit_indices(alive)) == expect, (profile, k, sorted(g.edges()))
                for v in expect:
                    assert deg[v] == sum(g.has_edge(u, v) for u in expect), (profile, k, sorted(g.edges()), v)
        # no collapse, and at order n no thread is too long
        two_core = len(brute_reduced_host(g, 2, False, g.n))
        return sum(two_core - len(brute_reduced_host(g, 2, False, k)) for k in orders)

    def test_agrees_with_definition_exhaustive(self):
        # at k = 3 a thread of two vertices, or a cycle of four, already drops
        assert sum(self.assert_matches_definition(g) for n in range(1, 7) for g in enumerate_small_graphs(n))

    @given(twin_rich_graphs())
    def test_agrees_with_definition_on_twin_blow_ups(self, g):
        self.assert_matches_definition(g)

    def test_agrees_with_definition_on_thread_rich_hosts(self):
        assert all(self.assert_matches_definition(g) for g in THREAD_RICH[:9])  # every pendant cycle sheds a thread
        assert sum(map(self.assert_matches_definition, THREAD_RICH[9:]))

    @pytest.mark.parametrize("k", [4, 5, 8])
    def test_agrees_with_definition_at_custom_orders(self, k):
        # the orders of custom patterns such as c4, c5 and c8
        assert sum(self.assert_matches_definition(g, (k,)) for g in THREAD_RICH)

    @pytest.mark.parametrize("n", [7, 50, 2000])
    def test_long_cycles_empty(self, n):
        assert _core(cycle(n), 2, True, 6)[0] == 0

    def test_corona_of_a_long_cycle_empties(self):
        assert _core(corona_p2(cycle(700)), 2, True, 6)[0] == 0

    def test_hexagon_keeps_all_six(self):
        assert _core(cycle(6), 2, True, 6)[0] == cycle(6).full

    def test_no_vertex_of_a_raised_degree_is_left(self):
        # two hexagons survive whole, all of degree 2: h1 and h2 need a
        # vertex of degree 3, so their searches end before the first root
        g = Graph(12, _cycle_edges(list(range(6))) + _cycle_edges(list(range(6, 12))))
        assert _core(g, *H1.profile)[0] == g.full
        for p, expect in ((C6, (0, 1, 2, 3, 4, 5)), (H1, None), (H2, None)):
            assert _mapping(find_induced(g, p)) == brute_find_induced(g, p.graph) == expect, p.name


class TestThreads:
    # a copy that holds a thread vertex holds its whole thread and ends, so
    # dropping the long threads keeps the least copy
    SEARCHED = (C3, C6, H1, H2, Pattern("c4", cycle(4)), C5_RELABELED, Pattern("c8", cycle(8)))

    def test_witnesses_agree_with_naive_oracle(self):
        small = [g for g in THREAD_RICH if g.n <= 9]
        assert len(small) >= 20
        for g in small:
            for p in (*PATTERNS.values(), C5_RELABELED):
                assert _mapping(find_induced(g, p)) == brute_find_induced(g, p.graph), (p.name, sorted(g.edges()))

    def test_witnesses_agree_with_networkx_and_the_unreduced_host(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        seen = set()
        for g in THREAD_RICH:
            host = nx.Graph(g.edges())
            host.add_nodes_from(range(g.n))
            for p in self.SEARCHED:
                emb = find_induced(g, p)
                assert (emb is not None) == GraphMatcher(host, nx.Graph(p.graph.edges())).subgraph_is_isomorphic()
                assert emb == _search_on(g, p, _unreduced(g)), (p.name, sorted(g.edges()))
                seen.add((p.name, emb is not None))
        assert {(name, hit) for name in ("c6", "h1", "c4", "c5", "c8") for hit in (False, True)} <= seen

    @pytest.mark.parametrize("host", [cycle(8), corona_p2(cycle(8))], ids=["c8", "corona-c8"])
    def test_a_larger_pattern_gets_its_own_host(self, host):
        # c6's reduced host has lost the 8-cycle, so c8 must not search it
        c8 = self.SEARCHED[-1]
        assert is_free(host, (C6, c8)) == (False, Embedding("c8", tuple(range(8))))
        assert brute_find_induced(host, c8.graph) == tuple(range(8))


class TestPartialCore:
    # A host reduced for order k holds every copy of every pattern of order
    # at most k, and the collapse may stop once fewer than k vertices are
    # left: for each k >= 6 the witness on that host is the one on the
    # unreduced host.
    @staticmethod
    def stopped_early(g) -> int:
        """How many hosts reduced for k > 6 differ from the one for k = 6 and hold at least six vertices."""
        witnesses = [_search_on(g, p, _unreduced(g)) for p in (C6, H1, H2)]
        least = _core(g, 2, True, 6)
        partial = {}
        for k in range(6, g.n + 2):
            core = _core(g, 2, True, k)
            partial.setdefault(core[0], core)
        for alive, core in partial.items():
            assert alive & least[0] == least[0], sorted(g.edges())
            assert [_search_on(g, p, core) for p in (C6, H1, H2)] == witnesses, (alive, sorted(g.edges()))
        return sum(alive.bit_count() >= 6 for alive in partial if alive != least[0])

    def test_same_witness_exhaustive(self):
        assert sum(self.stopped_early(g) for n in range(1, 7) for g in enumerate_small_graphs(n))

    @given(twin_rich_graphs())
    def test_same_witness_on_twin_blow_ups(self, g):
        self.stopped_early(g)


def _search_on(g: Graph, p: Pattern, core):
    """find_induced on a copy of ``g`` whose reduced host is ``core``."""
    h = Graph.from_masks(g.n, list(g.adj))
    h._cores = {p.profile: core}
    return find_induced(h, p)


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

    def test_agrees_with_networkx_on_dense_hosts(self):
        # many visit-count levels are live at once: G(n, 0.9), co-bipartite
        # graphs and split graphs (chordal); networkx takes seconds on K_300,
        # which is chordal by definition
        nx = pytest.importorskip("networkx")
        rng = random.Random(1984)
        answers = []
        for n in (10, 30, 60, 120, 300):
            assert is_chordal(complete(n))
            a = n // 2
            hosts = [
                Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.9]),
                _co_bipartite(rng, a, rng.random()),
                Graph(n, [(i, j) for j in range(n) for i in range(j) if j < a or i < a and rng.random() < 0.5]),
            ]
            for g in hosts:
                ref = nx.Graph(g.edges())
                ref.add_nodes_from(range(g.n))
                answers.append(is_chordal(g))
                assert answers[-1] == nx.is_chordal(ref), (n, g.edge_count)
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


def _cycle_edges(vertices) -> list[tuple[int, int]]:
    return list(zip(vertices, vertices[1:] + vertices[:1]))


PETERSEN = Graph(10, _cycle_edges(list(range(5))) + [(i, i + 5) for i in range(5)]
                 + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])
HEAWOOD = Graph(14, _cycle_edges(list(range(14))) + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def _sparse_gnp(rng: random.Random, n: int) -> Graph:
    """G(n, p) with average degree between 1 and 3."""
    p = rng.uniform(1, 3) / (n - 1)
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])


def _subdivided_cubic(nx, rng: random.Random, k: int) -> Graph:
    """A random cubic graph on ``k`` vertices with every edge subdivided
    once, randomly relabeled."""
    cubic = nx.random_regular_graph(3, k, seed=rng.randrange(1 << 30))
    edges = []
    for mid, (a, b) in enumerate(cubic.edges(), start=k):
        edges += [(a, mid), (mid, b)]
    order = list(range(k + cubic.number_of_edges()))
    rng.shuffle(order)
    return Graph(len(order), [(order[a], order[b]) for a, b in edges])


class TestGirth:
    @pytest.mark.parametrize("g,expect", [
        (cycle(6), 6), (complete(3), 3), (path(5), math.inf), (star(4), math.inf),
        (Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]), 4),  # K_{3,3}
        (PETERSEN, 5),
        (HEAWOOD, 6),
        (Graph(10, _cycle_edges(list(range(10))) + [(0, 3)]), 4),  # the chord splits c10 into 4 and 8
        # c7 and c5 joined by a path of two edges
        (Graph(13, _cycle_edges(list(range(7))) + [(6, 7), (7, 8)] + _cycle_edges(list(range(8, 13)))), 5),
    ])
    def test_examples(self, g, expect):
        assert girth(g) == expect

    def test_agrees_with_subset_oracle(self):
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                expect = brute_girth(g)
                got = girth(g)
                assert (got == math.inf and expect is None) or got == expect, g

    @given(twin_rich_graphs())
    def test_agrees_with_subset_oracle_on_twin_blow_ups(self, g):
        expect = brute_girth(g)
        assert girth(g) == (math.inf if expect is None else expect)

    @given(small_graphs(max_n=9))
    def test_forest_iff_edge_count_formula(self, g):
        is_forest = g.edge_count == g.n - len(component_masks(g))
        assert (girth(g) == math.inf) == is_forest

    def test_agrees_with_networkx_beyond_brute_force(self):
        # large 2-cores of long girth: each start vertex is deleted and the rest peeled again
        nx = pytest.importorskip("networkx")
        rng = random.Random(1978)
        graphs = [_sparse_gnp(rng, round(math.exp(rng.uniform(math.log(20), math.log(300)))))
                  for _ in range(200)]
        graphs += [_subdivided_cubic(nx, rng, rng.randrange(10, 60, 2)) for _ in range(20)]
        seen = set()
        for g in graphs:
            ref = nx.Graph(g.edges())
            ref.add_nodes_from(range(g.n))
            got = girth(g)
            seen.add(got)
            assert got == nx.girth(ref), sorted(g.edges())
        assert math.inf in seen and max(v for v in seen if v < math.inf) >= 8

    @pytest.mark.parametrize("build,expect", [
        (lambda: random_tree(MAX_ORDER, 1978), math.inf),
        (lambda: corona_p2(cycle(10922)), 10922),
        (lambda: cycle(MAX_ORDER), MAX_ORDER),
    ], ids=["tree", "corona-c10922", "cycle"])
    def test_order_cap_within_seconds(self, build, expect):
        g = build()
        started = time.monotonic()
        assert girth(g) == expect
        assert time.monotonic() - started < 10
