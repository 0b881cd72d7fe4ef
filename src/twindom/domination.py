"""Exact domination and total domination, with witnesses.

These solvers are the ground-truth layer the fast classifiers are checked
against. One iterative-deepening cover search gives γ, γ_t and the list
of minimum dominating sets: target size k grows from an admissible lower
bound, and within one depth the branch is always on the least-id
uncovered vertex, trying the vertices able to cover it in ascending id.
That makes witnesses deterministic. Each node bans the candidates its
earlier branches tried, since every cover holding one of them was found
in that branch; so at the optimal depth each minimum set is found exactly
once, and the enumeration never scans the C(n, γ) subsets. From a budget
of 3 selections up, a packing bound cuts nodes whose uncovered vertices
need more selections than that (ρ ≤ γ: Meir and Moon 1975; Fomin,
Grandoni and Kratsch 2009), so sparse graphs with large γ stay in reach;
it never cuts a cover, so witnesses and listings are those of the search
without it. The search is capped (default 32 vertices) because it is
exponential; past the cap callers are expected to use the polynomial
classifier instead. The search nests one call per chosen vertex, so
covers too large for Python's recursion limit (about 1,000 vertices) are
refused with a ValueError rather than a traceback.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .graphs import Graph

DEFAULT_ORACLE_CAP = 32


class OracleCapExceeded(RuntimeError):
    """Graph is larger than the exact-search cap."""


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
    closed, n, m = g.closed, g.n, 0
    for v in s:
        if not 0 <= v < n:  # tested here, as a call per member costs more
            g.check_vertex(v)
        m |= closed[v]
    return m == g.full


def is_packing(g: Graph, s) -> tuple[bool, tuple[int, int] | None]:
    """Are the closed neighborhoods of ``s`` pairwise disjoint?

    On failure the second element is the lexicographically least pair
    (u, v), u < v, with intersecting closed neighborhoods.
    """
    members = sorted(set(s))
    if members and not (0 <= members[0] and members[-1] < g.n):  # sorted: the ends bound the rest
        for v in members:
            g.check_vertex(v)
    closed = g.closed
    union = total = 0
    for v in members:
        union |= closed[v]
        total += closed[v].bit_count()
    if total == union.bit_count():
        return True, None
    for i, u in enumerate(members):
        cu = closed[u]
        for v in members[i + 1:]:
            if cu & closed[v]:
                return False, (u, v)
    raise AssertionError("unreachable")


def _search(masks: tuple[int, ...], missing: int, banned: int, budget: int, max_cover: int,
            chosen: list[int], found: list[tuple[int, ...]], every: bool, keep: int | None) -> int:
    """The covers in one node's subtree: selections of at most ``budget``
    more vertices, none of them ``banned``, that cover ``missing``, the
    vertices ``chosen`` leaves uncovered. Each, with ``chosen``, is appended
    to ``found`` (cut to the ``keep`` least once it holds twice that many);
    returns how many, stopping at the first unless ``every``.

    The packing bound: scanning the uncovered vertices in id order, keep
    each whose candidates (``masks[v] & ~banned``) miss those of every kept
    one. Each kept vertex needs a selection of its own, so more kept
    vertices than ``budget`` mean the subtree holds no cover. It runs only
    at a budget of 3 or more: below that, the subtree is at most two levels
    deep, its own uncovered-count tests end it about as soon, and the scan
    costs more than the cut saves (the n <= 6 sweep's oracle time rose
    about 15% with the bound at budget 2).
    """
    if not missing:
        found.append(tuple(sorted(chosen)))
        if keep is not None and len(found) >= 2 * keep:
            found.sort()
            del found[keep:]
        return 1
    if budget == 0 or missing.bit_count() > budget * max_cover:
        return 0
    if budget >= 3:
        free, union, room = ~banned, 0, budget
        rest = missing
        while rest:
            low = rest & -rest
            cand = masks[low.bit_length() - 1] & free
            if not cand & union:
                if not room:
                    return 0
                room -= 1
                union |= cand
            rest ^= low
    v = (missing & -missing).bit_length() - 1
    cand = masks[v] & ~banned
    count = 0
    while cand:
        low = cand & -cand
        u = low.bit_length() - 1
        chosen.append(u)
        count += _search(masks, missing & ~masks[u], banned, budget - 1, max_cover,
                         chosen, found, every, keep)
        chosen.pop()
        if count and not every:
            return count
        # every cover holding u lies in u's subtree, so later siblings skip it
        banned |= low
        cand ^= low
    return count


def _covers(masks: tuple[int, ...], n: int, cap: int, every: bool,
            keep: int | None = None) -> tuple[int, int, list[tuple[int, ...]]]:
    """Smallest selections whose masks cover all ``n`` vertices, as sorted
    tuples: (size, 1, [first cover found]), or with ``every`` (size, number
    of covers of that size, the ``keep`` least of them in ascending order,
    all when None). ``masks`` plays both roles: masks[u] is what selecting
    u covers, and, the graph being undirected, who can cover u. Sizes are
    tried from ceil(n / the largest mask) up. An empty mask is an isolated
    vertex's open neighborhood: IsolatedVertexError. A search deeper than
    Python's recursion limit is refused with a ValueError.
    """
    if n > cap:
        raise OracleCapExceeded(f"exact search refused: n={n} exceeds oracle cap {cap}")
    if not all(masks):
        raise IsolatedVertexError("total domination is undefined: graph has an isolated vertex")
    full = (1 << n) - 1
    # a conditional, not max(..., default=1), which parses its keyword on every call
    max_cover = max(map(int.bit_count, masks)) if masks else 1
    found: list[tuple[int, ...]] = []
    for k in range(-(-n // max_cover), n + 1):
        try:
            count = _search(masks, full, 0, k, max_cover, [], found, every, keep)
        except RecursionError:
            raise ValueError(f"exact search too deep: covers of {k} vertices reach "
                             f"Python's recursion limit ({sys.getrecursionlimit()})") from None
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
    return GammaSetEnumeration(gamma, count, tuple(map(frozenset, listed)))
