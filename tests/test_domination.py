from __future__ import annotations

import hashlib
import random
import signal
import tracemalloc
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import given, settings

from twindom import sweep
from twindom.domination import (
    IsolatedVertexError,
    OracleCapExceeded,
    enumerate_gamma_sets,
    exact_gamma,
    exact_gamma_total,
    is_dominating,
    is_packing,
)
from twindom.generators import (
    complete,
    construction_h,
    cycle,
    enumerate_small_graphs,
    fixture,
    path,
    random_block_graph,
    random_tree,
    star,
)
from twindom.graphs import Graph, parse_graph6

from conftest import (
    brute_gamma,
    brute_gamma_sets,
    brute_gamma_total,
    brute_is_dominating,
    brute_is_packing,
    brute_is_total_dominating,
    SPARSE_GAMMA9_G6,
    is_gamma2_exact,
    small_graphs,
    twin_rich_graphs,
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

    # {0, 3} dominates c6 and is a packing, and closed[-1] is vertex 5's mask,
    # so a negative id let through would go unnoticed
    @pytest.mark.parametrize("members, bad", [([-1], -1), ([6], 6), ([0, -1, 3], -1), ([0, 3, 6], 6)])
    @pytest.mark.parametrize("predicate", [is_dominating, is_packing])
    def test_out_of_range_members_are_refused(self, predicate, members, bad):
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range for graph of order 6$"):
            predicate(cycle(6), members)

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
        for n in range(1, 7):
            for g in enumerate_small_graphs(n):
                e = enumerate_gamma_sets(g)
                assert e.sets == tuple(sorted(brute_gamma_sets(g), key=sorted)), g
                assert e.count == len(e.sets) and e.gamma == brute_gamma(g)

    @settings(max_examples=60, deadline=None)
    @given(twin_rich_graphs())
    def test_matches_brute_sets_on_twin_blow_ups(self, g):
        e = enumerate_gamma_sets(g)
        assert e.sets == tuple(sorted(brute_gamma_sets(g), key=sorted))
        assert e.count == len(e.sets)

    @pytest.mark.parametrize("list_cap, listed", [(None, 6), (5, 5), (2, 2), (1, 1), (0, 0), (-1, 0)])
    def test_list_cap_keeps_the_sorted_prefix(self, list_cap, listed):
        # C4 as 0-2-1-3: the search meets {2,3} before {1,3}, so truncating
        # in search order would keep {2,3} and drop {1,3}; caps 1 and 2 also
        # cut the kept sets down while the search runs
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        e = enumerate_gamma_sets(g, list_cap=list_cap)
        every = tuple(frozenset(s) for s in combinations(range(4), 2))  # every pair dominates
        assert (e.gamma, e.count) == (2, 6)
        assert e.sets == every[:listed]

    def test_sparse_32_vertex_graph(self):
        g = parse_graph6(SPARSE_GAMMA9_G6.encode())
        e = enumerate_gamma_sets(g)
        assert (e.gamma, e.count) == (9, 10)
        assert len(set(e.sets)) == 10
        assert all(len(s) == 9 and is_dominating(g, s) for s in e.sets)

    def test_disjoint_union_count_is_the_product(self):
        # gamma-sets of a disjoint union are one gamma-set per component:
        # three per triangle, two for the edge
        edges = [(3 * t + a, 3 * t + b) for t in range(8) for a, b in ((0, 1), (0, 2), (1, 2))]
        g = Graph(26, [*edges, (24, 25)])
        e = enumerate_gamma_sets(g, list_cap=0)
        assert (e.gamma, e.count, e.sets) == (9, 3**8 * 2, ())

    @pytest.mark.parametrize("list_cap", [0, 3])
    def test_memory_is_bounded_by_the_list_cap(self, list_cap):
        # 3**9 * 2 = 39,366 gamma-sets of 10 vertices: holding them all until
        # the search ends takes about 5 MiB
        edges = [(3 * t + a, 3 * t + b) for t in range(9) for a, b in ((0, 1), (0, 2), (1, 2))]
        g = Graph(29, [*edges, (27, 28)])
        tracemalloc.start()
        try:
            e = enumerate_gamma_sets(g, list_cap=list_cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (e.gamma, e.count) == (10, 3**9 * 2)
        assert e.sets == enumerate_gamma_sets(g).sets[:list_cap]
        assert peak < 1 << 20

    def test_cap_is_checked_before_isolated_vertices(self):
        g = Graph(12, [(v, v + 1) for v in range(10)])  # vertex 11 is isolated
        for search in (enumerate_gamma_sets, exact_gamma, exact_gamma_total):
            with pytest.raises(OracleCapExceeded):
                search(g, cap=10)
        with pytest.raises(IsolatedVertexError):
            exact_gamma_total(g, cap=12)


def seeded_gnp(seed: int, low: int = 7, high: int = 20) -> Graph:
    """An isolate-free G(n, p), n in [low, high], p in [0.1, 0.5]: each
    isolated vertex is joined to its successor."""
    rng = random.Random(seed)
    n = rng.randint(low, high)
    p = rng.uniform(0.1, 0.5)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    touched = {v for e in edges for v in e}
    return Graph(n, [*edges, *((v, (v + 1) % n) for v in range(n) if v not in touched)])


def witness_digest(graphs) -> str:
    """sha256 of every graph's sorted gamma and gamma_t witnesses."""
    rows = [(sorted(exact_gamma(g).witness), sorted(exact_gamma_total(g).witness)) for g in graphs]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@contextmanager
def alarm(seconds: float):
    """Fail the block if it runs longer than ``seconds``."""
    def ring(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")
    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestSearchAnswers:
    """The packing bound cuts only subtrees that hold no cover, so the
    witnesses (the first cover found, which ``gamma`` and ``gamma-t``
    print) and the listed gamma-sets are those of the search without it.
    The digests were taken from that search."""

    def test_witnesses_on_every_small_isolate_free_graph(self):
        graphs = [g for n in range(1, 7) for g in enumerate_small_graphs(n, "isolate_free")]
        assert len(graphs) == 28263
        assert witness_digest(graphs) == "4722a9a23c19722d52f2d627b86d0f69e30b1be5ea3c8903959377aa42737e23"

    def test_witnesses_on_seeded_random_graphs(self):
        graphs = [seeded_gnp(seed) for seed in range(200)]
        assert {g.n for g in graphs} == set(range(7, 21))
        assert witness_digest(graphs) == "e7d375bfcaa77cd1016fd999bfa4c8514cbac48947dabda1afc0a8a320635e8c"

    def test_gamma_sets_on_seeded_random_graphs_match_brute_force(self):
        for seed in range(40):
            g = seeded_gnp(seed, high=10)
            every = tuple(sorted(brute_gamma_sets(g), key=sorted))
            for list_cap in (None, 0, 1, 3):
                e = enumerate_gamma_sets(g, list_cap=list_cap)
                assert (e.gamma, e.count) == (brute_gamma(g), len(every)), g
                assert e.sets == every[:list_cap], g

    def test_null_graph(self):
        g = Graph(0)
        assert exact_gamma(g) == ("gamma", 0, frozenset())
        assert exact_gamma_total(g) == ("gamma_total", 0, frozenset())
        assert enumerate_gamma_sets(g) == (0, 1, (frozenset(),))

    def test_a_search_deeper_than_the_recursion_limit_is_refused(self):
        # a perfect matching on 2,000 vertices: every cover has 1,000 of them
        g = Graph(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
        with pytest.raises(ValueError, match=r"^exact search too deep: covers of 1000 vertices"):
            exact_gamma(g, cap=g.n)


class TestReach:
    """The packing bound takes the oracle past n = 30 on sparse graphs,
    where the uncovered-count bound alone searched for about a minute."""

    def test_random_tree_of_order_60(self):
        g = random_tree(60, 1)
        with alarm(5):
            gamma = exact_gamma(g, cap=64)
            gamma_t = exact_gamma_total(g, cap=64)
        # the search without the bound gave these in 55 s and 0.2 s
        assert sorted(gamma.witness) == [0, 1, 2, 3, 4, 5, 6, 7, 13, 15, 16, 18, 19, 22, 27, 31, 32, 37,
                                         38, 44, 48, 49, 50]
        assert sorted(gamma_t.witness) == [0, 1, 4, 6, 7, 8, 13, 14, 16, 17, 20, 22, 24, 27, 28, 31, 34,
                                           36, 37, 38, 41, 44, 48, 49, 50, 51, 53, 54]
        assert (gamma.value, gamma_t.value) == (23, 28)
        assert is_dominating(g, gamma.witness) and brute_is_total_dominating(g, gamma_t.witness)

    @staticmethod
    def _construction_h(seed: int, low: int, high: int) -> Graph:
        rng = random.Random(seed)
        menu = (Graph(1), complete(2), complete(3))
        while True:
            b = rng.randint(low // 3, high // 2)
            g = construction_h(random_tree(b, rng.randrange(1 << 30)), [rng.choice(menu) for _ in range(b)])
            if low <= g.n <= high:
                return g

    @staticmethod
    def _block_graph(seed: int) -> Graph:
        rng = random.Random(seed)
        while True:
            g = random_block_graph(rng.randint(10, 30), rng.randint(2, 4), rng.randrange(1 << 30))
            if 30 <= g.n <= 60:
                return g

    @staticmethod
    def _check(graphs) -> dict[str, int]:
        """Check prop7, cor9 and lemma5 on each graph, with the oracle capped
        at 64; how many graphs each claim applied to."""
        applied = {"prop7": 0, "cor9": 0, "lemma5": 0}
        for g in graphs:
            assert g.n >= 30
            outcome = sweep.check_graph(g, tuple(applied), oracle_cap=64)
            for claim, violations in outcome.items():
                assert violations == [], (claim, violations)
                applied[claim] += 1
        return applied

    def test_claims_on_trees_and_block_graphs(self):
        trees = (random_tree(30 + seed % 31, seed) for seed in range(20))
        blocks = (self._block_graph(seed) for seed in range(20))
        assert self._check(trees) == {"prop7": 20, "cor9": 0, "lemma5": 0}
        assert self._check(blocks)["prop7"] == 20

    def test_claims_on_construction_h_outputs(self):
        # every output has gamma_t = 2 gamma, so all three claims apply
        graphs = [self._construction_h(seed, 30, 40) for seed in range(10)]
        assert self._check(graphs) == {"prop7": 10, "cor9": 10, "lemma5": 10}

    @pytest.mark.slow
    def test_claims_on_larger_construction_h_outputs(self):
        # about 25 s: gamma_t must rule out every size below 2 gamma, and
        # past n = 50 that takes up to a minute per graph
        graphs = [self._construction_h(seed, 41, 50) for seed in range(10)]
        assert self._check(graphs) == {"prop7": 10, "cor9": 10, "lemma5": 10}


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
