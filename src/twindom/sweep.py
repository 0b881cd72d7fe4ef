"""Claim-verification sweep over graph corpora.

Each isolate-free input graph is measured exactly (gamma, gamma_t),
classified once (eligibility, special classes, packing/domination test,
verdict), and then checked against the named claims below. A violation
means the library broke an established theorem, so the CLI turns any
violation into exit code 2.

Claims:

* ``bounds``: gamma <= gamma_t <= 2*gamma, and gamma_t <= 2n/3 on
  connected graphs of order >= 3.
* ``lemma6``: if the special-vertex representatives form a packing and a
  dominating set, then gamma_t = 2*gamma (no freeness assumption).
* ``prop7``: on graphs with no induced c6/h1/h2 the classifier verdict
  matches the oracle test gamma_t = 2*gamma (both directions), and a yes
  verdict implies the oracle's gamma and gamma_t.
* ``cor2``: chordal graphs are pattern-free and the classifier matches
  the oracle on them.
* ``lemma5``: on graphs with gamma_t = 2*gamma, every minimum dominating
  set is a packing. The paper states it as "the minimum dominating sets
  are exactly the packing-and-dominating sets of size gamma"; a dominating
  set of size gamma is minimum by definition, so only this inclusion has
  content.
* ``cor9``: on pattern-free graphs with gamma_t = 2*gamma, the number of
  minimum dominating sets is the count ``classify`` reports (the product
  of twin-class sizes), and is 1 iff every reported class is a singleton.
* ``cor4``: a graph with gamma_t = 2*gamma and minimum degree >= 2
  contains an induced triangle or hexagon and has girth at most 6.
* ``supports``: on graphs with no induced triangle or hexagon the special
  representatives are the support vertices, and every twin class is a
  singleton except that a lone-edge component is one two-vertex class.
* ``blocks``: on connected block graphs with at least two blocks the
  special vertices are the cut vertices that are the only cut vertex of
  some block or have non-cut neighbors in two blocks, and every twin
  class is a singleton. The blocks are ``structure.clique_blocks``; a cut
  vertex is a vertex of two or more of them. A block is a clique, so a
  cut vertex has a non-cut neighbor in it exactly when it holds a non-cut
  vertex.
"""

from __future__ import annotations

from functools import partial

from . import characterize, domination, structure
from .domination import DEFAULT_ORACLE_CAP
from .fanout import ordered_map
from .forbidden import girth, is_free
from .graphs import Graph, as_graph, bit_indices, component_masks, mask_of, serialize_graph6

CLAIM_NAMES = ("bounds", "lemma5", "lemma6", "prop7", "cor2", "cor4", "cor9", "supports", "blocks")
_NO_REPORT = frozenset({"bounds", "lemma5"})  # claims that read no classify report
_NO_ORACLE = frozenset({"supports", "blocks"})  # claims that read neither gamma nor gamma_t


def check_graph(
    g: Graph, claims: frozenset[str] | tuple[str, ...] = CLAIM_NAMES, oracle_cap: int = DEFAULT_ORACLE_CAP
) -> dict[str, list[dict]] | None:
    """Check one graph: None when it has an isolated vertex, else each
    applicable claim mapped to its violations (``{"graph6", "detail"}``
    entries; an empty list when the claim held).

    Only what the selected claims read is computed, each value once: the
    exact oracles for any claim but ``supports`` and ``blocks``;
    ``classify`` for any claim but ``bounds`` and ``lemma5``; ``is_free``
    on chordal graphs for ``cor2``; for ``cor4`` and ``supports`` a triangle
    test by masks (:func:`_has_triangle`) when ``classify`` found no
    c6/h1/h2; connectivity for ``bounds`` only when 3*gamma_t > 2n; the
    block scan for ``blocks`` only on chordal graphs, as block graphs are.
    A claim's detail text and graph6 echo are built only when it fails.
    The oracles are never seeded with each other's values.
    """
    if not all(g.adj):
        return None
    # the names below are bound only when a selected claim reads them
    if not _NO_ORACLE.issuperset(claims):
        gamma = domination.exact_gamma(g, oracle_cap).value
        gamma_t = domination.exact_gamma_total(g, oracle_cap).value
        is_g2 = gamma_t == 2 * gamma
    report = None if _NO_REPORT.issuperset(claims) else characterize.classify(g)
    if report is not None:
        verdict = report.verdict
        chordal = report.method == characterize.METHOD_CHORDAL
        # chordal graphs are pattern-free; cor2 checks that inclusion by
        # searching them explicitly
        witness = is_free(g)[1] if chordal and "cor2" in claims else report.ineligibility_witness
        free = witness is None
        classes = report.s_set
        reps = classes.representatives
    if "cor4" in claims or "supports" in claims:
        # h1 and h2 contain triangles, and without a witness there is no c6
        has_c3_or_c6 = witness is not None or _has_triangle(g)
    # lemma5 and cor9 share one enumeration of the minimum dominating sets, at the oracle's gamma
    if ("lemma5" in claims or ("cor9" in claims and free)) and is_g2:
        enum = domination.enumerate_gamma_sets(g, cap=oracle_cap)
        wrong_gamma = None if enum.gamma == gamma else f"enumerated gamma={enum.gamma}, oracle gamma={gamma}"

    outcome: dict[str, list[dict]] = {}  # a claim's violations: [] or _violation's
    if "bounds" in claims:
        ok = gamma <= gamma_t <= 2 * gamma
        if ok and 3 * gamma_t > 2 * g.n and g.n >= 3:  # 2n/3 bounds connected graphs only
            ok = len(component_masks(g)) > 1
        outcome["bounds"] = [] if ok else _violation(g, f"gamma={gamma} gamma_t={gamma_t} n={g.n}")

    if "lemma6" in claims:
        if report.eligible:  # classify ran the test and kept its certificates
            pack_dom = report.packing_violation is None and report.uncovered_vertex is None
        else:  # ineligible: classify skipped the test, lemma6 needs it
            pack_dom = domination.is_packing(g, reps)[0] and domination.is_dominating(g, reps)
        outcome["lemma6"] = [] if is_g2 or not pack_dom else _violation(
            g, f"representatives {sorted(reps)} pack+dominate but gamma_t={gamma_t} != 2*{gamma}")

    if "prop7" in claims and free:
        yes = verdict == characterize.VERDICT_YES
        # a right yes verdict can still imply wrong values
        implied = yes and is_g2 and report.implied_values != (gamma, gamma_t)
        outcome["prop7"] = [] if yes == is_g2 and not implied else _violation(
            g, f"classifier={verdict} oracle gamma={gamma} gamma_t={gamma_t}"
               + (f" implied={report.implied_values}" if implied else ""))

    if "cor2" in claims and chordal:
        outcome["cor2"] = [] if free and (verdict == characterize.VERDICT_YES) == is_g2 else _violation(
            g, f"chordal graph: free={free} classifier={verdict} gamma={gamma} gamma_t={gamma_t}")

    if "lemma5" in claims and is_g2:
        unpacked = [s for s in enum.sets if not domination.is_packing(g, s)[0]]
        outcome["lemma5"] = [] if not unpacked and not wrong_gamma else _violation(
            g, wrong_gamma or f"gamma-sets {sorted(sorted(s) for s in unpacked)} are not packings")

    if "cor9" in claims and free and is_g2:
        count = report.gamma_set_count
        singletons = (count == 1) == all([len(c) == 1 for c in classes.classes])
        outcome["cor9"] = [] if count == enum.count and singletons and not wrong_gamma else _violation(
            g, wrong_gamma or f"twin-class product {count}, enumerated {enum.count}"
               + ("" if singletons else f", classes {[sorted(c) for c in classes.classes]}"))

    if "cor4" in claims and is_g2 and g.n and all([a & (a - 1) for a in g.adj]):  # minimum degree >= 2
        outcome["cor4"] = [] if (gv := girth(g)) <= 6 and has_c3_or_c6 else _violation(
            g, f"girth={gv} induced c3/c6 present={has_c3_or_c6}")

    if "supports" in claims and not has_c3_or_c6:
        supports = structure.support_vertices(g)
        # two true twins of degree 1 are the ends of a lone-edge component
        ok = reps == supports and all([
            len(c) == 1 or (len(c) == 2 and all([g.degree(v) == 1 for v in c])) for c in classes.classes])
        outcome["supports"] = [] if ok else _violation(
            g, f"representatives {sorted(reps)}, supports {sorted(supports)}, "
               f"classes {[sorted(c) for c in classes.classes]}")

    blocks = structure.clique_blocks(g) if "blocks" in claims and chordal else None
    if blocks is not None and len(blocks) >= 2:
        cuts = _distinguished_cuts(blocks)
        ok = mask_of(classes.special) == cuts and all([len(c) == 1 for c in classes.classes])
        outcome["blocks"] = [] if ok else _violation(
            g, f"special {sorted(classes.special)}, distinguished cut vertices "
               f"{list(bit_indices(cuts))}, classes {[sorted(c) for c in classes.classes]}")
    return outcome


def _violation(g: Graph, detail: str) -> list[dict]:
    return [{"graph6": serialize_graph6(g).decode("ascii"), "detail": detail}]


def _has_triangle(g: Graph) -> bool:
    """Whether some edge uv has a common neighbor, that is, whether ``g``
    holds a triangle, which is always induced."""
    adj = g.adj
    for hood in adj:
        while hood:
            low = hood & -hood
            hood ^= low
            if adj[low.bit_length() - 1] & hood:
                return True
    return False


def _distinguished_cuts(blocks: list[int]) -> int:
    """The ``blocks`` claim's distinguished cut vertices, as a mask, from the
    clique blocks of a block graph (see the module docstring)."""
    once = cuts = 0
    for b in blocks:
        cuts |= once & b
        once |= b
    lone = multi = touched = 0
    for b in blocks:
        inside = b & cuts
        if inside & (inside - 1) == 0:  # at most one cut vertex
            lone |= inside
        if b & ~cuts:  # a non-cut vertex, adjacent to every cut vertex of b
            multi |= touched & inside
            touched |= inside
    return lone | multi


def _check_item(claims: frozenset[str], oracle_cap: int, item):
    return check_graph(as_graph(item), claims, oracle_cap)


def sweep_graphs(
    graphs,
    claims: tuple[str, ...] = CLAIM_NAMES,
    jobs: int = 1,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> dict:
    """Run the claim checks over an iterable of graphs, each a ``Graph`` or
    a (line number, graph6 line) pair, parsed where it is checked.

    Returns the summary ``twindom sweep --json`` prints, less its
    ``elapsedMicros``: ``graphs``, ``skippedIsolated``, ``claims`` (each
    named claim once, sorted, as ``{"checked", "violations"}``) and ``ok``.
    With ``jobs > 1`` the graphs fan out through :func:`fanout.ordered_map`;
    violations are listed in input order either way. An unknown claim
    name, or no name at all, is a ``ValueError`` before any graph is read.
    """
    for c in claims:
        if c not in CLAIM_NAMES:
            raise ValueError(f"unknown claim {c!r}; expected from {CLAIM_NAMES}")
    if not claims:
        raise ValueError("no claims given")
    totals = {name: {"checked": 0, "violations": []} for name in sorted(set(claims))}
    seen = skipped = 0
    # one set for the whole sweep, so check_graph's membership tests are cheap
    check = partial(_check_item, frozenset(claims), oracle_cap)  # positional: keywords cost per call
    for outcome in ordered_map(check, graphs, jobs):
        seen += 1
        if outcome is None:
            skipped += 1
            continue
        for name, violations in outcome.items():
            entry = totals[name]
            entry["checked"] += 1
            if violations:
                entry["violations"] += violations
    return {"graphs": seen, "skippedIsolated": skipped, "claims": totals,
            "ok": not any(c["violations"] for c in totals.values())}
