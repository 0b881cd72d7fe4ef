"""Induced-subgraph detection, chordality, and girth.

The named patterns are the triangle ``c3``, the hexagon ``c6``, and two
chorded hexagons: ``h1`` adds one short chord (between two cycle vertices
at distance two), ``h2`` adds two short chords on opposite sides. A graph
is *free* of a pattern list when none of them embeds as an induced
subgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, bit_indices

_HEX = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]


@dataclass(frozen=True)
class Pattern:
    name: str
    graph: Graph


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern-vertex -> host-vertex preserving adjacency and
    non-adjacency. ``mapping[i]`` is the image of pattern vertex ``i``."""

    pattern: str
    mapping: tuple[int, ...]


C3 = Pattern("c3", Graph(3, [(0, 1), (1, 2), (2, 0)]))
C6 = Pattern("c6", Graph(6, _HEX))
H1 = Pattern("h1", Graph(6, _HEX + [(1, 5)]))
H2 = Pattern("h2", Graph(6, _HEX + [(1, 5), (2, 4)]))

PATTERNS: dict[str, Pattern] = {p.name: p for p in (C3, C6, H1, H2)}

# Default eligibility patterns, in the order witnesses are searched.
ELIGIBILITY_PATTERNS = (C6, H1, H2)


def find_induced(g: Graph, pattern: Pattern) -> Embedding | None:
    """Search for an induced embedding of ``pattern`` in ``g``.

    Backtracks over pattern vertices in id order, trying host candidates
    in ascending id, so a hit is the lexicographically least image tuple.
    Candidates are pruned by degree and by adjacency/non-adjacency against
    all previously mapped vertices.
    """
    p = pattern.graph
    k = p.n
    if k > g.n:
        return None
    pdeg = [p.degree(i) for i in range(k)]
    gdeg = [m.bit_count() for m in g.adj]
    # per slot: earlier pattern neighbors and non-neighbors
    before_adj = [[j for j in range(i) if p.has_edge(i, j)] for i in range(k)]
    before_non = [[j for j in range(i) if not p.has_edge(i, j)] for i in range(k)]
    gadj = g.adj
    full = g.full

    mapping: list[int] = []
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == k:
            return True
        cand = full & ~used
        for j in before_adj[i]:
            cand &= gadj[mapping[j]]
        for j in before_non[i]:
            cand &= ~gadj[mapping[j]]
        need = pdeg[i]
        for u in bit_indices(cand):
            if gdeg[u] < need:
                continue
            mapping.append(u)
            used |= 1 << u
            if extend(i + 1):
                return True
            used ^= 1 << u
            mapping.pop()
        return False

    if extend(0):
        return Embedding(pattern.name, tuple(mapping))
    return None


def is_free(g: Graph, patterns: tuple[Pattern, ...] = ELIGIBILITY_PATTERNS) -> tuple[bool, Embedding | None]:
    """(True, None) when no pattern embeds induced, else (False, first witness)."""
    for p in patterns:
        emb = find_induced(g, p)
        if emb is not None:
            return False, emb
    return True, None


def is_chordal(g: Graph) -> bool:
    """Maximum cardinality search (Tarjan and Yannakakis, SIAM J. Comput. 1984).

    Each step visits an unvisited vertex with the most visited neighbors.
    The graph is chordal exactly when the reverse visit order is a perfect
    elimination order, that is, when every vertex's neighbors visited before
    it are adjacent to the last visited of them.
    """
    n, adj, closed = g.n, g.adj, g.closed
    weight = [0] * n  # visited neighbors of each unvisited vertex
    last = [0] * n  # the most recently visited of them
    buckets = [set(range(n))]  # unvisited vertices by weight
    visited = top = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        # with no visited neighbor, last[v] is a placeholder and the test passes
        if adj[v] & visited & ~closed[last[v]]:
            return False
        visited |= 1 << v
        for w in bit_indices(adj[v] & ~visited):
            buckets[weight[w]].remove(w)
            weight[w] += 1
            last[w] = v
            if weight[w] == len(buckets):
                buckets.append(set())
            buckets[weight[w]].add(w)
        top = min(top + 1, len(buckets) - 1)
    return True


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; ``math.inf`` for forests."""
    best = math.inf
    adj = g.adj
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        frontier = [s]
        # cycles discoverable while expanding level d have length >= 2d
        while frontier and 2 * dist[frontier[0]] < best:
            nxt = []
            for u in frontier:
                du = dist[u]
                for w in bit_indices(adj[u]):
                    if w not in dist:
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        cycle = du + dist[w] + 1
                        if cycle < best:
                            best = cycle
            frontier = nxt
        if best == 3:
            break
    return best
