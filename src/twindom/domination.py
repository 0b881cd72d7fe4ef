"""Exact domination and total domination, with witnesses.

These solvers are the ground-truth layer the fast classifiers are checked
against. They run an iterative-deepening subset search: target size k
grows from an admissible lower bound, and within one depth the branch is
always on the least-id uncovered vertex, trying the vertices able to
cover it in ascending id. That makes witnesses deterministic. The search
is capped (default 32 vertices) because it is exponential; past the cap
callers are expected to use the polynomial classifier instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, bit_indices

DEFAULT_ORACLE_CAP = 32


class OracleCapExceeded(RuntimeError):
    """Graph is larger than the exact-search cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(f"exact search refused: n={n} exceeds oracle cap {cap}")
        self.n = n
        self.cap = cap

    def __reduce__(self):
        # a pool worker's error reaches the parent pickled; the default
        # would call the class with the message alone
        return type(self), (self.n, self.cap)


class IsolatedVertexError(ValueError):
    """Total domination is undefined on graphs with isolated vertices."""


@dataclass(frozen=True)
class DominationCertificate:
    kind: str  # "gamma" | "gamma_total"
    value: int
    witness: frozenset[int]


@dataclass(frozen=True)
class GammaSetEnumeration:
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


def is_total_dominating(g: Graph, s) -> bool:
    """True when every vertex (members included) has a neighbor in ``s``."""
    m = 0
    for v in s:
        g.check_vertex(v)
        m |= g.adj[v]
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


def _min_cover(masks: tuple[int, ...], full: int, start_k: int, n: int) -> tuple[int, list[int]]:
    """Smallest selection whose masks cover ``full``; (size, witness).

    ``masks`` plays both roles: masks[u] is what selecting u covers, and,
    the graph being undirected, also who can cover u.
    """
    if full == 0:
        return 0, []
    max_cover = max(masks[v].bit_count() for v in bit_indices(full))
    lower = max(start_k, -(-full.bit_count() // max_cover))

    def attempt(covered: int, budget: int, chosen: list[int]) -> list[int] | None:
        missing = full & ~covered
        if missing == 0:
            return chosen
        if budget == 0 or missing.bit_count() > budget * max_cover:
            return None
        v = (missing & -missing).bit_length() - 1
        for u in bit_indices(masks[v]):
            chosen.append(u)
            result = attempt(covered | masks[u], budget - 1, chosen)
            if result is not None:
                return result
            chosen.pop()
        return None

    for k in range(lower, n + 1):
        witness = attempt(0, k, [])
        if witness is not None:
            return k, witness
    raise AssertionError("cover search exhausted without a solution")


def exact_gamma(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> DominationCertificate:
    """Minimum dominating set, exactly."""
    if g.n > cap:
        raise OracleCapExceeded(g.n, cap)
    value, witness = _min_cover(g.closed, g.full, 1, g.n)
    return DominationCertificate("gamma", value, frozenset(witness))


def exact_gamma_total(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> DominationCertificate:
    """Minimum total dominating set, exactly. Needs an isolate-free graph."""
    if g.n > cap:
        raise OracleCapExceeded(g.n, cap)
    if any(m == 0 for m in g.adj):
        raise IsolatedVertexError("total domination is undefined: graph has an isolated vertex")
    start = 2 if g.n >= 2 else 1  # no vertex covers itself through an open neighborhood
    value, witness = _min_cover(g.adj, g.full, start, g.n)
    return DominationCertificate("gamma_total", value, frozenset(witness))


def enumerate_gamma_sets(
    g: Graph, list_cap: int | None = None, cap: int = DEFAULT_ORACLE_CAP
) -> GammaSetEnumeration:
    """All minimum dominating sets, by scanning subsets at the optimum size.

    The count is always exact; only the listed sets are truncated at
    ``list_cap``.
    """
    gamma = exact_gamma(g, cap).value
    full = g.full
    closed = g.closed
    count = 0
    sets: list[frozenset[int]] = []
    for combo in combinations(range(g.n), gamma):
        m = 0
        for v in combo:
            m |= closed[v]
        if m == full:
            count += 1
            if list_cap is None or len(sets) < list_cap:
                sets.append(frozenset(combo))
    return GammaSetEnumeration(gamma=gamma, count=count, sets=tuple(sets))


def is_gamma2_exact(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """Does the total domination number equal twice the domination number?"""
    return exact_gamma_total(g, cap).value == 2 * exact_gamma(g, cap).value
