"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately use the dumbest correct method available
(full subset enumeration, all injective maps, vertex-removal recounts) so
they share no code path with the implementations they check.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from twindom.domination import exact_gamma, exact_gamma_total
from twindom.graphs import Graph, bit_indices


# -- independent oracles -----------------------------------------------------


def brute_closed(g: Graph, v: int) -> set[int]:
    return {v} | {u for u in range(g.n) if g.has_edge(u, v)}


def brute_special(g: Graph, v: int) -> bool:
    """The README's definition, for one vertex, over Python sets: ``v`` has
    a neighbor, and no neighbor of ``v`` with a neighbor outside N[v] is
    adjacent to every neighbor of ``v`` whose closed neighborhood lies
    strictly inside N[v]."""
    nv = brute_closed(g, v)
    nbrs = nv - {v}
    if not nbrs:
        return False
    inner = [u for u in nbrs if brute_closed(g, u) < nv]
    outer = [w for w in nbrs if not brute_closed(g, w) <= nv]
    return not any(all(g.has_edge(w, u) for u in inner) for w in outer)


def brute_is_dominating(g: Graph, s) -> bool:
    covered = set()
    for v in s:
        covered |= brute_closed(g, v)
    return covered == set(range(g.n))


def brute_is_total_dominating(g: Graph, s) -> bool:
    covered = set()
    for v in s:
        covered |= {u for u in range(g.n) if g.has_edge(u, v)}
    return covered == set(range(g.n))


def brute_gamma(g: Graph) -> int:
    for k in range(0, g.n + 1):
        for s in combinations(range(g.n), k):
            if brute_is_dominating(g, s):
                return k
    raise AssertionError


def brute_gamma_total(g: Graph) -> int | None:
    """None when no total dominating set exists (isolated vertex)."""
    for k in range(1, g.n + 1):
        for s in combinations(range(g.n), k):
            if brute_is_total_dominating(g, s):
                return k
    return None


def brute_gamma_sets(g: Graph) -> set[frozenset[int]]:
    k = brute_gamma(g)
    return {
        frozenset(s) for s in combinations(range(g.n), k) if brute_is_dominating(g, s)
    }


def brute_is_packing(g: Graph, s) -> bool:
    members = sorted(s)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if brute_closed(g, u) & brute_closed(g, v):
                return False
    return True


def brute_find_induced(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """All injective maps, checked edge by edge."""
    k = pattern.n
    if k > host.n:
        return None
    for img in permutations(range(host.n), k):
        if all(
            pattern.has_edge(i, j) == host.has_edge(img[i], img[j])
            for i in range(k)
            for j in range(i + 1, k)
        ):
            return img
    return None


def brute_is_chordal(g: Graph) -> bool:
    """No chordless cycle of length >= 4, by subset enumeration."""
    for size in range(4, g.n + 1):
        for subset in combinations(range(g.n), size):
            if _induces_cycle(g, subset):
                return False
    return True


def _induces_cycle(g: Graph, subset) -> bool:
    degs = [sum(1 for u in subset if u != v and g.has_edge(u, v)) for v in subset]
    if any(d != 2 for d in degs):
        return False
    # 2-regular induced subgraph is a cycle iff connected
    seen = {subset[0]}
    frontier = [subset[0]]
    while frontier:
        v = frontier.pop()
        for u in subset:
            if u not in seen and g.has_edge(u, v):
                seen.add(u)
                frontier.append(u)
    return len(seen) == len(subset)


def brute_cut_vertices(g: Graph) -> set[int]:
    """Vertices whose removal increases the component count among the rest."""

    def components(vertices: list[int]) -> int:
        todo = set(vertices)
        count = 0
        while todo:
            count += 1
            stack = [todo.pop()]
            while stack:
                v = stack.pop()
                for u in list(todo):
                    if g.has_edge(u, v):
                        todo.discard(u)
                        stack.append(u)
        return count

    everyone = list(range(g.n))
    base = components(everyone)
    out = set()
    for v in everyone:
        rest = [u for u in everyone if u != v]
        drop = 1 if g.degree(v) == 0 else 0  # removing an isolated vertex loses its component
        if components(rest) > base - drop:
            out.add(v)
    return out


def is_block_graph(g: Graph) -> bool:
    """Connected, and every two non-adjacent vertices are separated by
    removing one vertex. By Menger's theorem such a pair is joined by no two
    internally disjoint paths, so lies in no common block: every block is a
    clique."""
    nbrs = [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]

    def component_of(removed: int | None) -> dict[int, int]:
        # each vertex but ``removed`` mapped to the least vertex of its component
        label: dict[int, int] = {}
        for root in range(g.n):
            if root != removed and root not in label:
                label[root] = root
                stack = [root]
                while stack:
                    for u in nbrs[stack.pop()]:
                        if u != removed and u not in label:
                            label[u] = root
                            stack.append(u)
        return label

    if g.n == 0 or set(component_of(None).values()) != {0}:
        return False
    split = [component_of(w) for w in range(g.n)]
    return all(
        any(w not in (u, v) and split[w][u] != split[w][v] for w in range(g.n))
        for u, v in combinations(range(g.n), 2) if v not in nbrs[u]
    )


def brute_girth(g: Graph) -> int | None:
    """Shortest cycle length by trying all vertex subsets; None if acyclic."""
    for size in range(3, g.n + 1):
        for subset in combinations(range(g.n), size):
            if _induces_cycle(g, subset):
                return size
    return None


# -- predicates over the library's own results -------------------------------


def is_gamma2_exact(g: Graph) -> bool:
    """gamma_t = 2*gamma, by the exact oracles."""
    return exact_gamma_total(g).value == 2 * exact_gamma(g).value


def in_two_blocks(blocks: list[int]) -> set[int]:
    """The vertices lying in two or more of the block masks ``blocks``."""
    return {v for b in blocks for v in bit_indices(b) if sum(c >> v & 1 for c in blocks) >= 2}


def blow_up(base: Graph, sizes, cliques, order) -> Graph:
    """Replace base vertex ``v`` by ``sizes[v]`` twins: true twins (a clique)
    when ``cliques[v]``, else false twins (an independent set). Vertex ``i``
    of the result is renamed ``order[i]``."""
    starts = [sum(sizes[:v]) for v in range(base.n)]
    twins = [range(s, s + z) for s, z in zip(starts, sizes)]
    edges = [e for v in range(base.n) if cliques[v] for e in combinations(twins[v], 2)]
    edges += [e for u, v in base.edges() for e in product(twins[u], twins[v])]
    return Graph(len(order), [(order[a], order[b]) for a, b in edges])


# -- hypothesis strategies ----------------------------------------------------


@st.composite
def small_graphs(draw, max_n: int = 8, min_n: int = 1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, picked)


@st.composite
def twin_rich_graphs(draw, max_base: int = 5, max_n: int = 9):
    """Random true/false-twin blow-ups of graphs on at most ``max_base``
    vertices, at most ``max_n`` vertices in all, randomly relabeled."""
    base = draw(small_graphs(max_n=max_base))
    sizes = []
    for _ in range(base.n):
        sizes.append(draw(st.integers(1, max_n - sum(sizes) - (base.n - len(sizes) - 1))))
    cliques = draw(st.lists(st.booleans(), min_size=base.n, max_size=base.n))
    return blow_up(base, sizes, cliques, draw(st.permutations(range(sum(sizes)))))


# -- shared graphs ------------------------------------------------------------


@pytest.fixture
def two_triangles() -> Graph:
    """Two triangles glued at vertex 0."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


@pytest.fixture
def spider() -> Graph:
    """Star with three leaves, every edge subdivided once."""
    return Graph(7, [(0, 1), (1, 4), (0, 2), (2, 5), (0, 3), (3, 6)])
