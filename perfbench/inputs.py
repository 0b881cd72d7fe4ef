"""Seeded benchmark inputs and the facts known about them by construction.

Every graph is built here, with no help from the package under test, and
written as one canonical graph6 line. Each record carries what is known
independently of the classifier: (gamma, gamma_t) from the construction or
from a brute-force search on small orders, and whether the graph is free
of induced c6/h1/h2 by construction. The same workload name and seed
always give the same bytes.
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass
from itertools import combinations

# Records with at most this many vertices get brute-force gamma, gamma_t
# and a count of minimum dominating sets at generation time.
ORACLE_MAX_N = 12

_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))


@dataclass
class Record:
    kind: str
    n: int
    edges: list[tuple[int, int]]
    line: str = ""
    # (gamma, gamma_t, number of minimum dominating sets or None), when known
    truth: tuple[int, int, int | None] | None = None
    # True when the construction is known to have no induced c6, h1 or h2
    free: bool | None = None


def graph6(n: int, edges) -> str:
    """Canonical graph6 of a simple graph, in O(n + m) Python operations.

    graph6 lists the upper triangle column by column, six bits per
    printable byte. Bits are set in a byte buffer and then regrouped into
    sextets by base64, whose alphabet is mapped onto bytes 63..126.
    """
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    sextets = (n * (n - 1) // 2 + 5) // 6
    buf = bytearray((sextets * 6 + 23) // 24 * 3)
    for u, v in edges:
        i, j = (u, v) if u < v else (v, u)
        pos = j * (j - 1) // 2 + i
        buf[pos >> 3] |= 0x80 >> (pos & 7)
    body = base64.b64encode(bytes(buf)).translate(_TO_G6)[:sextets]
    return (head + body).decode("ascii")


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def cycle(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def corona(b: int, base_edges) -> tuple[int, list[tuple[int, int]]]:
    """Attach a pendant 2-path to every base vertex: gamma = b, gamma_t = 2b."""
    edges = list(base_edges)
    for i in range(b):
        edges += [(i, b + 2 * i), (b + 2 * i, b + 2 * i + 1)]
    return 3 * b, edges


def construction_h(b: int, base_edges, attachments) -> tuple[int, list[tuple[int, int]]]:
    """A hub per base vertex, joined to it and to all of its attachment.

    The hubs are a packing and a dominating set, so gamma = b and
    gamma_t = 2b. ``attachments[i]`` is (order, edges).
    """
    edges = list(base_edges)
    nxt = b
    for i, (an, aedges) in enumerate(attachments):
        hub, first = nxt, nxt + 1
        edges.append((hub, i))
        edges += [(hub, first + v) for v in range(an)]
        edges += [(first + u, first + v) for u, v in aedges]
        nxt = first + an
    return nxt, edges


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return relabel(n, [(rng.randrange(v), v) for v in range(1, n)], rng)


def random_block_graph(blocks: int, max_clique: int, rng: random.Random) -> tuple[int, list]:
    """Cliques of 2..max_clique vertices glued into a tree at single vertices."""
    n, edges = 1, []
    for _ in range(blocks):
        members = [rng.randrange(n)] + list(range(n, n + rng.randint(1, max_clique - 1)))
        edges += list(combinations(members, 2))
        n += len(members) - 1
    return n, relabel(n, edges, rng)


def complete_bipartite(a: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(a)]


def c5_blowup(size: int, true_twins: bool) -> tuple[int, list]:
    """Replace each c5 vertex by ``size`` twins (a clique if ``true_twins``)."""
    cls = [range(k * size, (k + 1) * size) for k in range(5)]
    edges = [(u, v) for k in range(5) for u in cls[k] for v in cls[(k + 1) % 5]]
    if true_twins:
        edges += [e for c in cls for e in combinations(c, 2)]
    return 5 * size, edges


def gnp_isolate_free(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    touched = {x for e in edges for x in e}
    for v in range(n):
        if v not in touched:
            u = rng.choice([w for w in range(n) if w != v])
            edges.append((u, v))
            touched.update((u, v))
    return edges


def _small_graph(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]


# -- brute-force truth --------------------------------------------------------


def _min_covers(masks: list[int], full: int) -> tuple[int, int]:
    """(least k such that k of the masks cover ``full``, number of such k-sets)."""
    for k in range(1, len(masks) + 1):
        count = 0
        for combo in combinations(masks, k):
            m = 0
            for x in combo:
                m |= x
            if m == full:
                count += 1
        if count:
            return k, count
    raise ValueError("no cover exists")


def brute_truth(n: int, edges) -> tuple[int, int, int]:
    """(gamma, gamma_t, number of minimum dominating sets) by exhaustion."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    gamma, count = _min_covers([m | (1 << v) for v, m in enumerate(adj)], full)
    gamma_t, _ = _min_covers(adj, full)
    return gamma, gamma_t, count


# -- workloads ----------------------------------------------------------------


def _large_sparse(rng: random.Random) -> list[Record]:
    # The codec is O(n^2) and dominates; pattern search is near-linear here.
    n, edges = corona(700, cycle(700))
    tn = 1200
    bn, bedges = random_block_graph(150, 4, rng)
    return [
        Record("corona_cycle", n, relabel(n, edges, rng), truth=(700, 1400, 1), free=True),
        Record("tree", tn, random_tree(tn, rng), free=True),
        Record("block_graph", bn, bedges, free=True),
    ]


def _dense_twins(rng: random.Random) -> list[Record]:
    # c6, h1 and h2 have no twins, so every search on these runs to
    # exhaustion; relabelling changes the input, not the search size.
    out = []
    for a in range(6, 31, 3):
        out.append(Record("k_aa", 2 * a, relabel(2 * a, complete_bipartite(a), rng),
                          truth=(2, 2, None), free=True))
    for size, true_twins in ((3, False), (4, True), (5, False), (6, True), (7, False), (7, True)):
        n, edges = c5_blowup(size, true_twins)
        out.append(Record("c5_blowup", n, relabel(n, edges, rng), free=True))
    return out


def _many_small(rng: random.Random, count: int = 3000) -> list[Record]:
    out = []
    for i in range(count):
        pick = i % 5
        if pick == 0:
            n = rng.randint(8, 40)
            out.append(Record("tree", n, random_tree(n, rng), free=True))
        elif pick == 1:
            n, edges = random_block_graph(rng.randint(3, 12), 5, rng)
            out.append(Record("block_graph", n, edges, free=True))
        elif pick == 2:
            b = rng.randint(3, 13)
            n, edges = corona(b, _small_graph(b, 0.4, rng))
            out.append(Record("corona", n, relabel(n, edges, rng), truth=(b, 2 * b, None)))
        elif pick == 3:
            b = rng.randint(2, 6)
            atts = []
            for _ in range(b):
                an = rng.randint(1, 4)
                atts.append((an, _small_graph(an, 0.5, rng)))
            n, edges = construction_h(b, _small_graph(b, 0.5, rng), atts)
            out.append(Record("construction_h", n, relabel(n, edges, rng), truth=(b, 2 * b, None)))
        else:
            n = rng.randint(8, 40)
            out.append(Record("gnp", n, gnp_isolate_free(n, rng.uniform(0.15, 0.4), rng)))
    return out


BUILDERS = {
    "large-sparse": _large_sparse,
    "dense-twins": _dense_twins,
    "many-small": _many_small,
}


def build(workload: str, seed: int) -> list[Record]:
    """The records of a classify workload, with lines and truths filled in."""
    records = BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    for r in records:
        r.line = graph6(r.n, r.edges)
        if r.n <= ORACLE_MAX_N:
            brute = brute_truth(r.n, r.edges)
            if r.truth is not None and r.truth[:2] != brute[:2]:
                raise AssertionError(f"{r.kind}: construction says {r.truth}, search {brute}")
            r.truth = brute
    return records


SWEEP_MAX_N = 6
SWEEP_CHUNKS = 8


def sweep_chunks(seed: int) -> list[list[str]]:
    """All labeled graphs of order 1..6 in graph6, shuffled by the seed and
    dealt into equal chunks, so that one CLI run takes about a second."""
    lines = []
    for n in range(1, SWEEP_MAX_N + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            lines.append(graph6(n, [p for k, p in enumerate(pairs) if mask >> k & 1]))
    random.Random(f"sweep-n6:{seed}").shuffle(lines)
    return [lines[k::SWEEP_CHUNKS] for k in range(SWEEP_CHUNKS)]


def one_record_line() -> str:
    """The set-up probe input: a single edge."""
    return graph6(2, [(0, 1)])


def isolated_batch() -> list[str]:
    """Three graphs, the middle one with an isolated vertex."""
    return [graph6(3, cycle(3)), graph6(3, [(0, 1)]), graph6(4, cycle(4))]
