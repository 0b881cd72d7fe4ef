"""Exact domination and total domination, with witnesses.

These solvers are the ground-truth layer the fast classifiers are checked
against. One iterative-deepening cover search gives γ, γ_t and the list
of minimum dominating sets: target size k grows from an admissible lower
bound, and within one depth the branch is always on the least-id
uncovered vertex, trying the vertices able to cover it in ascending id.
That makes witnesses deterministic. Each node bans the candidates its
earlier branches tried, since every cover holding one of them was found
in that branch; so at the optimal depth each minimum set is found exactly
once, and the enumeration never scans the C(n, γ) subsets. The search is
capped (default 32 vertices) because it is exponential; past the cap
callers are expected to use the polynomial classifier instead.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph

DEFAULT_ORACLE_CAP = 32


class OracleCapExceeded(RuntimeError):
    """Graph is larger than the exact-search cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(f"exact search refused: n={n} exceeds oracle cap {cap}")
        self.n = n
        self.cap = cap

    def __reduce__(self):
        # a worker's error reaches the parent pickled; the default
        # would call the class with the message alone
        return type(self), (self.n, self.cap)


class IsolatedVertexError(ValueError):
    """Total domination is undefined on graphs with isolated vertices."""


class DominationCertificate(NamedTuple):
    kind: str  # "gamma" | "gamma_total"
    value: int
    witness: frozenset[int]


class GammaSetEnumeration(NamedTuple):
    gamma: int
    count: int
    sets: tuple[frozenset[int], ...]


def is_dominating(g: Graph, s) -> bool:
    """True when every vertex is in or adjacent to ``s``."""
    m = 0
    for v in s:
        g.check_vertex(v)
        m |= g.closed[v]
    return m == g.full


def is_packing(g: Graph, s) -> tuple[bool, tuple[int, int] | None]:
    """Are the closed neighborhoods of ``s`` pairwise disjoint?

    On failure the second element is the lexicographically least pair
    (u, v), u < v, with intersecting closed neighborhoods.
    """
    members = sorted(set(s))
    for v in members:
        g.check_vertex(v)
    union = 0
    total = 0
    for v in members:
        union |= g.closed[v]
        total += g.closed[v].bit_count()
    if total == union.bit_count():
        return True, None
    for i, u in enumerate(members):
        cu = g.closed[u]
        for v in members[i + 1:]:
            if cu & g.closed[v]:
                return False, (u, v)
    raise AssertionError("unreachable")


def _covers(masks: tuple[int, ...], n: int, cap: int, every: bool,
            keep: int | None = None) -> tuple[int, int, list[tuple[int, ...]]]:
    """Smallest selections whose masks cover all ``n`` vertices, as sorted
    tuples: (size, 1, [first cover found]), or with ``every`` (size, number
    of covers of that size, the ``keep`` least of them in ascending order,
    all when None). ``masks`` plays both roles: masks[u] is what selecting
    u covers, and, the graph being undirected, who can cover u. Sizes are
    tried from ceil(n / the largest mask) up. An empty mask is an isolated
    vertex's open neighborhood: IsolatedVertexError.
    """
    if n > cap:
        raise OracleCapExceeded(n, cap)
    if not all(masks):
        raise IsolatedVertexError("total domination is undefined: graph has an isolated vertex")
    full = (1 << n) - 1
    max_cover = max([m.bit_count() for m in masks], default=1)
    found: list[tuple[int, ...]] = []
    count = 0

    def attempt(covered: int, banned: int, budget: int, chosen: list[int]) -> bool:
        nonlocal count
        missing = full & ~covered
        if missing == 0:
            count += 1
            found.append(tuple(sorted(chosen)))
            if keep is not None and len(found) >= 2 * keep:
                found.sort()
                del found[keep:]
            return not every
        if budget == 0 or missing.bit_count() > budget * max_cover:
            return False
        v = (missing & -missing).bit_length() - 1
        cand = masks[v] & ~banned
        while cand:
            low = cand & -cand
            u = low.bit_length() - 1
            chosen.append(u)
            if attempt(covered | masks[u], banned, budget - 1, chosen):
                return True
            chosen.pop()
            # every cover holding u lies in u's subtree, so later siblings skip it
            banned |= low
            cand ^= low
        return False

    for k in range(-(-n // max_cover), n + 1):
        attempt(0, 0, k, [])
        if count:
            found.sort()
            return k, count, found[:keep]
    raise AssertionError("cover search exhausted without a solution")


def exact_gamma(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> DominationCertificate:
    """Minimum dominating set, exactly."""
    value, _, found = _covers(g.closed, g.n, cap, False)
    return DominationCertificate("gamma", value, frozenset(found[0]))


def exact_gamma_total(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> DominationCertificate:
    """Minimum total dominating set, exactly. Needs an isolate-free graph."""
    # no vertex covers itself through an open neighborhood
    value, _, found = _covers(g.adj, g.n, cap, False)
    return DominationCertificate("gamma_total", value, frozenset(found[0]))


def enumerate_gamma_sets(
    g: Graph, list_cap: int | None = None, cap: int = DEFAULT_ORACLE_CAP
) -> GammaSetEnumeration:
    """All minimum dominating sets, from one search at the optimum size.

    The count is always exact; the listed sets come in lexicographic
    order of their sorted members and are truncated at ``list_cap``; with
    a cap, the search holds only about twice that many sets at a time.
    """
    keep = None if list_cap is None else max(list_cap, 0)
    gamma, count, listed = _covers(g.closed, g.n, cap, True, keep)
    return GammaSetEnumeration(gamma=gamma, count=count, sets=tuple(frozenset(s) for s in listed))
