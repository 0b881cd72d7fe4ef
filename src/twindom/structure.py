"""Closed-neighborhood structure: true twins, special vertices, blocks.

Two vertices are true twins when their closed neighborhoods coincide.
For a vertex ``v`` the closed neighborhood splits into three parts:

* ``twins``  -- ``v`` and its true twins,
* ``inner``  -- neighbors whose closed neighborhood is strictly contained
  in ``N[v]`` (every neighbor of such a vertex is again a neighbor of
  ``v``),
* ``outer``  -- neighbors that have at least one neighbor outside
  ``N[v]``.

A non-isolated vertex ``v`` is *special* when no vertex of ``outer`` is
adjacent to everything in ``inner``. Isolated vertices are never special.
Specialness belongs to the twin class, which shares the whole split.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .graphs import Graph, component_masks, mask_of


class SpecialClasses(NamedTuple):
    """All special vertices grouped into true-twin classes.

    ``classes`` is ordered by least member and ``representatives`` holds
    the least member of each class, so downstream results are reproducible.
    """

    special: frozenset[int]
    classes: tuple[frozenset[int], ...]
    representatives: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "special": sorted(self.special),
            "classes": [sorted(c) for c in self.classes],
            "representatives": sorted(self.representatives),
        }


def special_classes(g: Graph) -> SpecialClasses:
    """Group the special vertices into true-twin classes.

    Specialness is decided once per class: true twins share N[v], and with
    it the split of N[v] minus the class into inner and outer part. The
    representative of each class is its least vertex id; any choice yields
    the same downstream verdicts, this one makes them reproducible.
    """
    closed, adj = g.closed, g.adj
    # filled in ascending v, so the classes come out ordered by least member
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        if adj[v]:  # isolated vertices are never special
            groups.setdefault(closed[v], []).append(v)
    classes = []
    for cv, members in groups.items():
        inner = outer = 0
        rest = adj[members[0]]
        while rest:
            low = rest & -rest
            rest ^= low
            cu = closed[low.bit_length() - 1]
            if cu & ~cv:
                outer |= low
            elif cu != cv:  # twins are in neither part
                inner |= low
        # an empty inner part is covered by any outer vertex
        while outer:
            low = outer & -outer
            outer ^= low
            if inner & ~adj[low.bit_length() - 1] == 0:
                break
        else:
            classes.append(members)
    # each member list ascends, so its first entry is the representative
    return SpecialClasses(frozenset(chain.from_iterable(classes)), tuple(map(frozenset, classes)),
                          frozenset([c[0] for c in classes]))


def support_vertices(g: Graph) -> set[int]:
    """Vertices adjacent to a leaf.

    In a component that is a single edge both endpoints are leaves; the
    smaller id is taken as the support vertex, the other as the leaf.
    """
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    leaf_mask = mask_of(leaves)
    supports = {v for v in range(g.n) if g.adj[v] & leaf_mask}
    for v in leaves:
        u = g.adj[v].bit_length() - 1
        if g.degree(u) == 1 and u < v:
            supports.discard(v)  # v is the leaf end of an isolated edge
    return supports


def clique_blocks(g: Graph) -> list[int] | None:
    """The blocks of ``g`` as sorted clique bitmasks when ``g`` is a
    connected block graph (every block a clique), else None.

    For an edge uv let B(uv) = N[u] & N[v]; on a block graph it is the
    block holding uv. On a connected graph the vertices and the distinct
    B(uv) form a connected incidence graph, so sum(|B| - 1) >= n - 1, with
    equality exactly when it is a tree. Then no two B(uv) share two
    vertices, and each is a clique: non-adjacent x, y in B(uv) would put u
    and v in B(ux) too, which lacks y. So the B(uv) are the blocks, and a
    connected graph is a block graph exactly when equality holds. K2 + C4
    also meets it, with five blocks on six vertices, hence the
    connectivity check. K1 has no blocks.
    """
    closed, adj = g.closed, g.adj
    blocks = set()
    budget = g.n - 1  # n - 1 less the sum so far: below 0, no block graph
    for u in range(g.n):
        higher = adj[u] >> (u + 1)
        while higher:
            low = higher & -higher
            higher ^= low
            block = closed[u] & closed[u + low.bit_length()]
            if block not in blocks:
                blocks.add(block)
                budget -= block.bit_count() - 1
                if budget < 0:
                    return None
    if budget or component_masks(g) != [g.full]:
        return None
    return sorted(blocks)
