"""Induced-subgraph detection, chordality, and girth.

The named patterns are the triangle ``c3``, the hexagon ``c6``, and two
chorded hexagons: ``h1`` adds one short chord (between two cycle vertices
at distance two), ``h2`` adds two short chords on opposite sides. A graph
is *free* of a pattern list when none of them embeds as an induced
subgraph.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import Graph, bit_indices, component_masks, mask_of

_HEX = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]


class Pattern:
    """A named pattern graph and its search plan, compiled when first searched.

    The search lists candidates from pattern vertex ``k - 1`` down; in that
    order, ``plan[i]`` says whether ``i`` is adjacent to each later vertex,
    and ``raised`` pairs each degree above the least with the positions of
    its vertices. ``profile``, the least degree, whether no two vertices are
    true or false twins and the order, picks the host reductions
    :func:`find_induced` applies; ``degrees`` is the sorted degree sequence,
    and ``_cycle`` says whether the pattern is a cycle (connected, 2-regular).
    Equality, hashing and ``repr`` read the name and the graph alone; the
    plan follows from them.
    """

    __slots__ = ("name", "graph", "plan", "raised", "profile", "degrees", "_cycle")

    def __init__(self, name: str, graph: Graph):
        k = graph.n
        self.name, self.graph = name, graph
        deg = [graph.degree(i) for i in range(k)]
        self.plan = None  # k(k-1)/2 slots: a host smaller than the pattern never needs them
        self.profile = (low := min(deg, default=0), len(set(graph.adj)) == len(set(graph.closed)) == k, k)
        self.degrees = sorted(deg)
        self.raised = tuple((d, [k - 1 - i for i in range(k) if deg[i] == d]) for d in set(deg) - {low})
        self._cycle = set(deg) == {2} and component_masks(graph) == [graph.full]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (self.name, self.graph) == (other.name, other.graph)

    def __hash__(self) -> int:
        return hash((self.name, self.graph))

    def __repr__(self) -> str:
        return f"Pattern(name={self.name!r}, graph={self.graph!r})"


class Embedding(NamedTuple):
    """Injective map pattern-vertex -> host-vertex preserving adjacency and
    non-adjacency. ``mapping[i]`` is the image of pattern vertex ``i``."""

    pattern: str
    mapping: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"pattern": self.pattern, "mapping": list(self.mapping)}


C3 = Pattern("c3", Graph(3, [(0, 1), (1, 2), (2, 0)]))
C6 = Pattern("c6", Graph(6, _HEX))
H1 = Pattern("h1", Graph(6, _HEX + [(1, 5)]))
H2 = Pattern("h2", Graph(6, _HEX + [(1, 5), (2, 4)]))

PATTERNS: dict[str, Pattern] = {p.name: p for p in (C3, C6, H1, H2)}

# Default eligibility patterns, in the order witnesses are searched.
ELIGIBILITY_PATTERNS = (C6, H1, H2)


def _twin_duplicates(adj: tuple[int, ...], alive: int) -> int:
    """The vertices of ``alive`` with a smaller true or false twin in the
    subgraph it induces. Neighborhoods are keyed by their hash and compared
    again on a hit, so none is kept past its own step."""
    dupes = 0
    open_reps: dict[int, list[int]] = {}  # hash of N(v) -> least members seen
    closed_reps: dict[int, list[int]] = {}  # hash of N[v] -> least members seen
    for v in bit_indices(alive):
        hood = adj[v] & alive
        # a new hash, the common case, needs no comparison
        if (reps := open_reps.get(key := hash(hood))) is None:
            open_reps[key] = [v]
        elif any(adj[u] & alive == hood for u in reps):
            dupes |= 1 << v
            continue
        else:
            reps.append(v)
        hood |= 1 << v
        if (reps := closed_reps.get(key := hash(hood))) is None:
            closed_reps[key] = [v]
        elif any(adj[u] & alive | 1 << u == hood for u in reps):
            dupes |= 1 << v
        else:
            reps.append(v)
    return dupes


def _peel(adj: tuple[int, ...], alive: int, deg: list[int], queue: list[int], min_degree: int) -> int:
    """``alive`` less the vertices on ``queue``, which must be alive, and then,
    repeatedly, less every vertex left with fewer than ``min_degree``
    neighbors. ``deg`` is kept as each vertex's degree inside what is left."""
    while queue:
        v = queue.pop()
        alive ^= 1 << v
        for w in bit_indices(adj[v] & alive):
            deg[w] -= 1
            if deg[w] == min_degree - 1:  # just fell below: queued once
                queue.append(w)
    return alive


def _drop_threads(adj: tuple[int, ...], alive: int, deg: list[int], k: int) -> int:
    """``alive``, already peeled to degree 2, less every thread, a connected
    set of degree-2 vertices, that with its ends holds more than ``k``
    vertices, each followed by a peel."""
    twos = mask_of([v for v, d in enumerate(deg) if d == 2]) & alive
    while twos:
        seed = span = layer = twos & -twos
        while layer and span.bit_count() <= k:  # the thread and its ends, layer by layer
            hood = 0
            while layer:
                bit = layer & -layer
                hood |= adj[bit.bit_length() - 1]
                layer ^= bit
            layer = hood & alive & ~span
            span |= layer
            layer &= twos
        if span.bit_count() > k:  # peeling one vertex of the thread peels all of it
            alive = _peel(adj, alive, deg, [seed.bit_length() - 1], 2)
            twos &= alive
        else:
            twos &= ~span
    return alive


def _core(g: Graph, min_degree: int, collapse: bool, k: int) -> tuple[int, list[int]]:
    """The host vertices a search for a pattern of this profile and order
    ``k`` needs, as a mask, with each one's degree inside it.

    Vertices with fewer than ``min_degree`` neighbors left are peeled off.
    Then, until neither step removes anything: for ``min_degree`` 2, the
    threads, components of the degree-2 vertices, that with their ends hold
    more than ``k`` vertices are dropped, each followed by a peel; failing
    that, with ``collapse`` and at least ``k`` vertices left, every vertex
    with a smaller-id true or false twin among those left is dropped, each
    followed by a peel.
    """
    adj = g.adj
    deg = [m.bit_count() for m in adj]
    alive = _peel(adj, g.full, deg, [v for v in range(g.n) if deg[v] < min_degree], min_degree)
    while True:
        # a long thread with its ends exceeds k, so has at least k - 1 vertices
        # (deg also counts removed vertices, so may count high)
        if (min_degree == 2 and alive.bit_count() > k and deg.count(2) >= k - 1
                and (rest := _drop_threads(adj, alive, deg, k)) != alive):
            alive = rest
        elif collapse and alive.bit_count() >= k and (dupes := _twin_duplicates(adj, alive)):
            for v in bit_indices(dupes):
                if alive >> v & 1:  # not peeled since the duplicates were found
                    alive = _peel(adj, alive, deg, [v], min_degree)
        else:
            return alive, deg


def find_induced(g: Graph, pattern: Pattern) -> Embedding | None:
    """Search for an induced embedding of ``pattern`` in ``g``.

    Maps pattern vertices in id order, trying host candidates in ascending
    id, so a hit is the lexicographically least image tuple. The search
    checks forward (Haralick and Elliott, *Artificial Intelligence* 14,
    1980): each unmapped pattern vertex keeps a mask of candidates, at first
    the host vertices with at least its degree. Mapping a vertex to ``u``
    narrows each later mask with one AND, by the neighbors of ``u`` or its
    non-neighbors, and a mask left empty rejects ``u`` at once. That cuts
    only dead ends, so the first hit is unchanged. A cycle (c3, c6, custom
    ones such as c8) is vertex-transitive, so a root the search backtracks
    past lies in no copy: it leaves every candidate mask before the next
    root is tried, and the first hit, which holds no such root, stays.

    The search runs inside a reduced host (:func:`_core`) that keeps the
    original vertex ids. The pattern's ``profile`` enables each reduction:

    * Peel: vertices with fewer neighbors left than the pattern's minimum
      degree (2 for c3, c6, h1 and h2) are removed, repeatedly. Every vertex
      of a copy has that many neighbors inside the copy, so none is removed.
    * Threads, only for a pattern of minimum degree 2 (c3, c6, h1, h2 and
      custom patterns such as c4): a thread is a component of the vertices
      with exactly two neighbors left, a path or a cycle, and its ends are
      its other neighbors. A copy that holds a thread vertex holds both its
      neighbors, so it holds the whole thread and its ends. A thread that
      with its ends has more vertices than the pattern lies in no copy, and
      is removed, followed by a peel. A component that is one long cycle
      empties. The step is skipped when no more vertices are left than the
      pattern has.
    * Collapse, only for a pattern with no true or false twins (c6, h1 and
      h2; not c3, nor custom patterns such as c4): each true-twin and each
      false-twin class of what is left keeps only its least-id member. Two
      twins of the host are twins in any copy that holds both, so a copy
      holds at most one member of a class. Replacing that member by the
      least one gives another copy, lexicographically smaller unless it
      already was the least.

    So the least copy survives every step of the reductions, and the
    witness is the one the search of the whole host finds. A host reduced
    part way serves as well, so the collapse stops once fewer vertices are
    left than the pattern has. A host reduced for order k holds every copy
    of a pattern of order at most k, and maybe not one of a larger pattern,
    so the reduced hosts kept with the graph are keyed by the whole
    profile, order included: c6, h1 and h2 share one. When the host has as
    many vertices as the pattern, a copy is the whole host, so a host whose
    sorted degree sequence differs from the pattern's is rejected: before
    any reduction for the graph itself, whose sequence is kept with it too,
    and after it for a reduced host of that size.
    """
    k = pattern.graph.n
    if k > g.n:
        return None
    if pattern.plan is None:
        pattern.plan = tuple(tuple(pattern.graph.has_edge(i, j) for j in range(k - 1, i, -1)) for i in range(k))
    cores = g._cores
    if cores is None:
        cores = g._cores = {}
    if k == g.n:  # a copy is the whole host, so the degree sequences agree
        if (degrees := cores.get("degrees")) is None:
            degrees = cores["degrees"] = sorted(map(int.bit_count, g.adj))
        if degrees != pattern.degrees:
            return None
    core = cores.get(pattern.profile)
    if core is None:
        core = cores[pattern.profile] = _core(g, *pattern.profile)
    alive, deg = core
    size = alive.bit_count()
    if size < k or size == k and sorted([deg[v] for v in bit_indices(alive)]) != pattern.degrees:
        return None
    # level[-1]: candidates of vertices k - 1 down to i given mapping[:i]; all have the least degree
    level = [[alive] * k]
    for d, where in pattern.raised:
        if not (at_least := mask_of([v for v in bit_indices(alive) if deg[v] >= d])):
            return None
        for j in where:
            level[0][j] = at_least
    gadj, plan, cycle = g.adj, pattern.plan, pattern._cycle
    mapping, i = [0] * k, 0
    while 0 <= i < k:
        doms = level[-1]
        cand = doms[-1]
        if not cand:
            level.pop()
            i -= 1
            if i == 0 and cycle:  # the root just left lies in no copy
                level[0] = [m & ~(1 << mapping[0]) for m in level[0]]
            continue
        bit = cand & -cand
        doms[-1] = cand ^ bit
        u = mapping[i] = bit.bit_length() - 1
        hood, non = gadj[u], alive ^ (gadj[u] | bit)  # masks stay inside alive
        nxt = [m & hood if edge else m & non for m, edge in zip(doms, plan[i])]
        if 0 not in nxt:
            level.append(nxt)
            i += 1
    return Embedding(pattern.name, tuple(mapping)) if i == k else None


def is_free(g: Graph, patterns: tuple[Pattern, ...] = ELIGIBILITY_PATTERNS) -> tuple[bool, Embedding | None]:
    """(True, None) when no pattern embeds induced, else (False, first witness).
    Patterns of one profile share one reduced host (see :func:`find_induced`)."""
    for p in patterns:
        emb = find_induced(g, p)
        if emb is not None:
            return False, emb
    return True, None


def is_chordal(g: Graph) -> bool:
    """Maximum cardinality search (Tarjan and Yannakakis, SIAM J. Comput. 1984).

    Each step visits an unvisited vertex with the most visited neighbors,
    the least one of them. The graph is chordal exactly when the reverse
    visit order is a perfect elimination order, that is, when every
    vertex's neighbors visited before it are adjacent to the last visited
    of them. Any such visit order decides it.
    """
    adj, closed = g.adj, g.closed
    last = [0] * g.n  # the most recently visited neighbor of each vertex
    levels = [g.full]  # levels[k]: the unvisited vertices with k visited neighbors
    unvisited, top = g.full, 0
    for _ in range(g.n):
        while not levels[top]:
            top -= 1
        low = levels[top] & -levels[top]
        levels[top] ^= low
        unvisited ^= low
        v = low.bit_length() - 1
        fresh = adj[v] & unvisited
        # with no visited neighbor, last[v] is a placeholder and the test passes
        if (earlier := adj[v] ^ fresh) & closed[last[v]] != earlier:
            return False
        rest = fresh
        while rest:
            w = rest & -rest
            last[w.bit_length() - 1] = v
            rest ^= w
        top += 1
        if top == len(levels):
            levels.append(0)
        k = top
        while fresh:  # each fresh neighbor moves up one level, the top ones first
            k -= 1
            if moved := levels[k] & fresh:
                levels[k] ^= moved
                levels[k + 1] |= moved
                fresh ^= moved
    return True


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; ``math.inf`` for forests.

    Every cycle lies in the 2-core (c3's reduced host). A breadth-first
    search from ``s`` by layer masks finds a shortest cycle through ``s``:
    an edge inside layer d closes one of length 2d + 1, a vertex of layer
    d + 1 with two parents one of length 2d + 2. So ``s`` is deleted after
    its search and the rest peeled again (Itai and Rodeh, *Finding a minimum
    circuit in a graph*, SIAM J. Comput. 1978), which empties a forest.
    """
    adj = g.adj
    # the 2-core: no thread exceeds order n; not find_induced's memo, as the peels below change deg
    alive, deg = _core(g, 2, False, g.n)
    best = math.inf
    while alive and best > 3:
        s = (alive & -alive).bit_length() - 1
        seen = layer = 1 << s
        d = 0
        while layer and 2 * d + 1 < best:
            nxt = 0
            for u in bit_indices(layer):
                hood = adj[u] & alive
                if hood & layer:
                    best = 2 * d + 1
                    break
                fresh = hood & ~seen
                if fresh & nxt:
                    best = min(best, 2 * d + 2)
                nxt |= fresh
            seen |= nxt
            layer = nxt
            d += 1
        alive = _peel(adj, alive, deg, [s], 2)
    return best
