"""Graph constructions and test corpora.

Named fixtures, standard families, the pendant-path corona, the general
attachment construction that manufactures graphs with gamma_t = 2*gamma,
exhaustive labeled enumeration for small orders, seeded random trees
and block graphs, and the generator-spec grammar that names them all.
"""

from __future__ import annotations

import heapq
import random
import re
from typing import Iterable, Iterator

from .forbidden import H1, H2
from .graphs import MAX_ORDER, Graph, bit_indices, component_masks


def _check_order(n: int) -> None:
    """Refuse, before anything is allocated, a graph over the order cap."""
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the order cap {MAX_ORDER}")


def path(k: int) -> Graph:
    if k < 1:
        raise ValueError("path needs at least one vertex")
    _check_order(k)
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least three vertices")
    _check_order(k)
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def star(k: int) -> Graph:
    """K_{1,k}: center 0 with k leaves."""
    if k < 1:
        raise ValueError("star needs at least one leaf")
    _check_order(k + 1)
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def complete(k: int) -> Graph:
    if k < 1:
        raise ValueError("complete graph needs at least one vertex")
    _check_order(k)
    full = (1 << k) - 1
    return Graph.from_masks(k, [full ^ (1 << v) for v in range(k)])


# Named example graphs used throughout the test corpus. fig1 is an
# 8-vertex graph whose vertices v1, v2 are its only special vertices;
# g1 and g2 are the sharpness examples: each attains gamma_t = 2*gamma
# although its special vertices fail to dominate.
_FIXED: dict[str, tuple[int, list[tuple[int, int]], tuple[str, ...] | None]] = {
    "fig1": (
        8,
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
         (2, 3), (2, 5), (3, 4), (4, 6), (5, 7), (6, 7)],
        ("v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"),
    ),
    "h1": (6, [*H1.graph.edges()], None),
    "h2": (6, [*H2.graph.edges()], None),
    # hexagon with one chord, plus a pendant on the vertex common to both
    # chord endpoints; its unique special vertex is that attachment point
    "g1": (7, [*H1.graph.edges(), (0, 6)], None),
    # two chorded hexagons sharing a vertex path, with a pendant at each
    # far end; the pendant supports (1 and 11) are the special vertices
    "g2": (
        13,
        [(0, 1), (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 6),
         (6, 7), (6, 8), (7, 8), (7, 10), (8, 9), (9, 10), (9, 11), (10, 11), (11, 12)],
        None,
    ),
}

_FAMILY = re.compile(r"^(c|p|star|k)(\d+)$")


def fixture(name: str) -> Graph:
    """Build a named fixture: fig1, h1, h2, g1, g2, or a family member
    c<k> (cycle), p<k> (path), star<k> (K_{1,k}), k<k> (complete)."""
    key = name.strip().lower()
    if key in _FIXED:
        return Graph(*_FIXED[key])
    m = _FAMILY.match(key)
    if m:
        kind, k = m.group(1), int(m.group(2))
        try:
            return {"c": cycle, "p": path, "star": star, "k": complete}[kind](k)
        except ValueError as e:
            raise ValueError(f"bad fixture {name!r}: {e}") from None
    raise ValueError(f"unknown fixture {name!r}")


def corona_p2(h: Graph) -> Graph:
    """Attach a fresh 2-vertex path to every vertex.

    Vertex ``i`` of the base gains the path i - (n+2i) - (n+2i+1); the
    result has 3n vertices and its girth equals the base girth.
    """
    n = h.n
    _check_order(3 * n)
    masks = [m | (1 << (n + 2 * i)) for i, m in enumerate(h.adj)]
    for i in range(n):
        mid = n + 2 * i
        masks += ((1 << i) | (1 << (mid + 1)), 1 << mid)
    return Graph.from_masks(3 * n, masks)


def construction_h(base: Graph, attachments: list[Graph]) -> Graph:
    """Join a fresh hub to each base vertex and to all of its attachment.

    For base vertex ``i`` a new hub u_i is adjacent to ``i`` and to every
    vertex of attachments[i] (internal edges preserved). The hubs come out
    as exactly the special vertices, forming a packing and a dominating
    set, so the result always satisfies gamma_t = 2*gamma.
    """
    if len(attachments) != base.n:
        raise ValueError(f"need one attachment per base vertex ({base.n}), got {len(attachments)}")
    for i, a in enumerate(attachments):
        if a.n < 1:
            raise ValueError(f"attachment {i} must have at least one vertex")
    edges = list(base.edges())
    offset = base.n
    for i, a in enumerate(attachments):
        hub = offset
        shift = offset + 1
        edges.append((hub, i))
        for v in range(a.n):
            edges.append((hub, shift + v))
        edges.extend((shift + u, shift + v) for u, v in a.edges())
        offset = shift + a.n
    return Graph(offset, edges)


ENUMERATION_MAX_N = 7

_FILTERS = ("all", "isolate_free", "connected")


def enumerate_small_graphs(n: int, flt: str = "all") -> Iterator[Graph]:
    """All labeled graphs of order ``n`` in ascending edge-mask order.

    Edge bit k corresponds to the k-th pair in the order (0,1), (0,2),
    ..., (1,2), (1,3), ... Refuses n > 7 and an unknown filter when called,
    not when first iterated; bigger corpora should arrive as graph6 streams.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > ENUMERATION_MAX_N:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {ENUMERATION_MAX_N}; "
            "supply larger corpora as a graph6 stream (--input)"
        )
    if flt not in _FILTERS:
        raise ValueError(f"unknown filter {flt!r}; expected one of {_FILTERS}")
    return _enumerate(n, flt)


def _enumerate(n: int, flt: str) -> Iterator[Graph]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for k in bit_indices(mask):
            i, j = pairs[k]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        g = Graph.from_masks(n, adj)
        if flt == "isolate_free" and any(m == 0 for m in adj):
            continue
        if flt == "connected" and len(component_masks(g)) != 1:
            continue
        yield g


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree, decoded from a random parent sequence."""
    if n < 1:
        raise ValueError("order must be positive")
    _check_order(n)
    if n == 1:
        return Graph(1)
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    # standard decoding: repeatedly join the smallest leaf to the next code entry
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, edges)


def random_block_graph(blocks: int, max_clique: int, seed: int) -> Graph:
    """Connected block graph built as a tree of cliques glued at shared
    vertices; exactly ``blocks`` blocks, each a clique of 2..max_clique
    vertices. Deterministic per seed."""
    if blocks < 2:
        raise ValueError("need at least two blocks")
    if max_clique < 2:
        raise ValueError("cliques need at least two vertices")
    _check_order(1 + blocks * (max_clique - 1))  # the largest order it can draw
    rng = random.Random(seed)
    sizes = [rng.randint(2, max_clique) for _ in range(blocks)]
    n = sizes[0]
    masks = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    for size in sizes[1:]:
        glue = rng.randrange(n)
        fresh = ((1 << (size - 1)) - 1) << n
        masks[glue] |= fresh
        masks += ((fresh | (1 << glue)) ^ (1 << v) for v in range(n, n + size - 1))
        n += size - 1
    return Graph.from_masks(n, masks)


# head -> (builder, its integer fields); the last is the seed, 0 when the spec names none
_SEEDED = {"tree": (random_tree, ("<n>", "<seed>")),
           "blockgraph": (random_block_graph, ("<blocks>", "<max-clique>", "<seed>"))}


def expand(spec: str) -> Iterable[Graph]:
    """Expand a generator spec into graphs: ``corona:<fixture>``,
    ``tree:<n>[:<seed>]``, ``blockgraph:<blocks>:<max-clique>[:<seed>]``,
    ``enum:<n>[:<filter>]`` (yielded lazily) or a fixture name."""
    parts = spec.strip().lower().split(":")
    head = parts[0]
    if head == "corona":
        if len(parts) != 2:
            raise ValueError("corona spec is corona:<fixture>")
        return [corona_p2(fixture(parts[1]))]
    if head in _SEEDED:
        build, names = _SEEDED[head]
        usage = f"{head} spec is {':'.join((head, *names[:-1]))}[:{names[-1]}]"
        if not len(names) <= len(parts) <= len(names) + 1:
            raise ValueError(usage)
        return [build(*_ints(usage, names, [*parts[1:], 0]))]  # _ints drops the 0 after a named seed
    if head == "enum":
        usage = "enum spec is enum:<n>[:<filter>]"
        if len(parts) not in (2, 3):
            raise ValueError(usage)
        (n,) = _ints(usage, ("<n>",), parts[1:2])
        return enumerate_small_graphs(n, parts[2] if len(parts) == 3 else "all")
    if len(parts) == 1:
        return [fixture(head)]
    raise ValueError(f"unknown generator spec {spec!r}")


def _ints(usage: str, names: tuple[str, ...], fields) -> list[int]:
    """The first ``len(names)`` spec ``fields`` as integers; a field that is
    none fails with the spec's grammar ``usage`` and the field's name."""
    out = []
    for name, text in zip(names, fields):
        try:
            out.append(int(text))
        except ValueError:
            raise ValueError(f"{usage}; {name} must be an integer, not {text!r}") from None
    return out
