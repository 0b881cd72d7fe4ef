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
adjacent to everything in ``inner``. Isolated vertices are never special,
and specialness is shared within a twin class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bit_indices, mask_of


@dataclass(frozen=True)
class SpecialClasses:
    """All special vertices grouped into true-twin classes.

    ``classes`` is ordered by least member and ``representatives`` holds
    the least member of each class, so downstream results are reproducible.
    """

    special: frozenset[int]
    classes: tuple[frozenset[int], ...]
    representatives: frozenset[int]


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components plus two distinguished cut-vertex subsets.

    ``lone_block_cuts``: cut vertices that are the unique cut vertex of
    some block. ``multi_block_cuts``: cut vertices having non-cut
    neighbors in at least two different blocks. On a connected block graph
    with at least two blocks their union is the set of special vertices
    (the sweep's ``blocks`` claim).
    """

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    lone_block_cuts: frozenset[int]
    multi_block_cuts: frozenset[int]


def _tdm_masks(g: Graph, v: int) -> tuple[int, int, int]:
    """N[v] as (twins, inner, outer) bitmasks; see the module docstring."""
    cv = g.closed[v]
    t = 1 << v
    d = 0
    m = 0
    closed = g.closed
    nbrs = g.adj[v]
    while nbrs:
        low = nbrs & -nbrs
        u = low.bit_length() - 1
        nbrs ^= low
        cu = closed[u]
        if cu == cv:
            t |= low
        elif cu & ~cv == 0:
            d |= low
        else:
            m |= low
    return t, d, m


def is_special(g: Graph, v: int) -> bool:
    """True when no outer neighbor of ``v`` covers all of its inner part.

    Isolated vertices are not special. With an empty inner part any outer
    neighbor disqualifies ``v``; with an empty outer part a non-isolated
    ``v`` is vacuously special.
    """
    g.check_vertex(v)
    if g.adj[v] == 0:
        return False
    _, d, m = _tdm_masks(g, v)
    adj = g.adj
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        if d & ~adj[u] == 0:
            return False
    return True


def special_vertices(g: Graph) -> list[int]:
    return [v for v in range(g.n) if is_special(g, v)]


def special_classes(g: Graph) -> SpecialClasses:
    """Group the special vertices into true-twin classes.

    The representative of each class is its least vertex id; any choice
    yields the same downstream verdicts, this one makes them reproducible.
    """
    groups: dict[int, list[int]] = {}
    for v in special_vertices(g):
        groups.setdefault(g.closed[v], []).append(v)
    classes = tuple(sorted((frozenset(vs) for vs in groups.values()), key=min))
    return SpecialClasses(
        special=frozenset(v for c in classes for v in c),
        classes=classes,
        representatives=frozenset(min(c) for c in classes),
    )


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


def blocks_and_cut_vertices(g: Graph) -> BlockDecomposition:
    """Biconnected components via an iterative lowpoint traversal.

    Every edge lands in exactly one block; isolated vertices belong to no
    block. Blocks are reported sorted by vertex set for determinism.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    edge_stack: list[tuple[int, int]] = []
    blocks: list[frozenset[int]] = []
    cut = [False] * n
    timer = 0

    for root in range(n):
        if disc[root] != -1 or g.adj[root] == 0:
            continue
        root_children = 0
        # frames: (vertex, parent, iterator over neighbor ids)
        stack = [(root, -1, iter(list(bit_indices(g.adj[root]))))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(list(bit_indices(g.adj[w])))))
                    advanced = True
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if not stack:
                break
            pv = stack[-1][0]
            low[pv] = min(low[pv], low[v])
            if pv == root:
                root_children += 1
            if low[v] >= disc[pv]:
                # pv separates v's subtree: pop one block
                members: set[int] = set()
                while edge_stack:
                    a, b = edge_stack.pop()
                    members.add(a)
                    members.add(b)
                    if (a, b) == (pv, v):
                        break
                blocks.append(frozenset(members))
                if pv != root:
                    cut[pv] = True
        if root_children >= 2:
            cut[root] = True

    blocks.sort(key=sorted)
    cut_set = frozenset(v for v in range(n) if cut[v])

    lone = set()
    for b in blocks:
        in_block_cuts = [v for v in b if cut[v]]
        if len(in_block_cuts) == 1:
            lone.add(in_block_cuts[0])

    multi = set()
    for v in cut_set:
        touched = 0
        for b in blocks:
            if v in b and any(u != v and not cut[u] and g.has_edge(v, u) for u in b):
                touched += 1
                if touched >= 2:
                    multi.add(v)
                    break
    return BlockDecomposition(
        blocks=tuple(blocks),
        cut_vertices=cut_set,
        lone_block_cuts=frozenset(lone),
        multi_block_cuts=frozenset(multi),
    )
