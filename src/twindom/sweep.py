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
  matches the oracle test gamma_t = 2*gamma (both directions).
* ``cor2``: chordal graphs are pattern-free and the classifier matches
  the oracle on them.
* ``lemma5``: on graphs with gamma_t = 2*gamma, every minimum dominating
  set is a packing. The paper states it as "the minimum dominating sets
  are exactly the packing-and-dominating sets of size gamma"; a dominating
  set of size gamma is minimum by definition, so only this inclusion has
  content.
* ``cor9``: on pattern-free graphs with gamma_t = 2*gamma, the number of
  minimum dominating sets equals the product of twin-class sizes, and is
  1 iff every class is a singleton.
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

import os
import signal
import sys
from functools import partial
from itertools import chain, islice

from . import characterize, domination, structure
from .domination import DEFAULT_ORACLE_CAP
from .forbidden import C3, find_induced, girth, is_free
from .graphs import Graph, basic_stats, bit_indices, mask_of, serialize_graph6

# ordered_map hands a batch to worker processes only when it has more items
POOL_MIN_RECORDS = 32

CLAIM_NAMES = ("bounds", "lemma5", "lemma6", "prop7", "cor2", "cor4", "cor9", "supports", "blocks")


def check_graph(
    g: Graph, claims: tuple[str, ...] = CLAIM_NAMES, oracle_cap: int = DEFAULT_ORACLE_CAP
) -> dict[str, list[dict]] | None:
    """Check one graph: None when it has an isolated vertex, else each
    applicable claim mapped to its violations (``{"graph6", "detail"}``
    entries; an empty list when the claim held).

    Only what the selected claims read is computed: ``classify`` runs for
    any claim but ``bounds`` and ``lemma5``. The only pattern searches
    beyond ``classify``'s are ``is_free`` on chordal graphs, for ``cor2``,
    and a triangle search on graphs with no c6/h1/h2 witness, for ``cor4``
    and ``supports``.
    """
    stats = basic_stats(g)
    if stats.isolated_count:
        return None

    gamma = domination.exact_gamma(g, oracle_cap).value
    gamma_t = domination.exact_gamma_total(g, oracle_cap).value
    is_g2 = gamma_t == 2 * gamma
    # the names below are bound only when a selected claim reads them
    report = characterize.classify(g) if set(claims) - {"bounds", "lemma5"} else None
    if report is not None:
        verdict = report.verdict
        chordal = report.method == characterize.METHOD_CHORDAL
        # chordal graphs are pattern-free; cor2 checks that inclusion by
        # searching them explicitly
        witness = is_free(g)[1] if chordal and "cor2" in claims else report.ineligibility_witness
        free = witness is None
        classes = report.s_set
        reps = sorted(classes.representatives)
    if "cor4" in claims or "supports" in claims:
        # h1 and h2 contain triangles, and without a witness there is no c6
        has_c3_or_c6 = witness is not None or find_induced(g, C3) is not None
    # lemma5 and cor9 share one enumeration of the minimum dominating sets
    enum = None
    if is_g2 and ("lemma5" in claims or ("cor9" in claims and free)):
        enum = domination.enumerate_gamma_sets(g, cap=oracle_cap)

    outcome: dict[str, list[dict]] = {}

    def record(claim: str, ok: bool, detail: str) -> None:
        outcome[claim] = [] if ok else [{"graph6": serialize_graph6(g).decode("ascii"), "detail": detail}]

    if "bounds" in claims:
        ok = gamma <= gamma_t <= 2 * gamma
        if ok and stats.component_count == 1 and g.n >= 3:
            ok = 3 * gamma_t <= 2 * g.n
        record("bounds", ok, f"gamma={gamma} gamma_t={gamma_t} n={g.n}")

    if "lemma6" in claims:
        if report.eligible:  # classify ran the test and kept its certificates
            pack_dom = report.packing_violation is None and report.uncovered_vertex is None
        else:  # ineligible: classify skipped the test, lemma6 needs it
            pack_dom = domination.is_packing(g, reps)[0] and domination.is_dominating(g, reps)
        ok = is_g2 if pack_dom else True
        record("lemma6", ok, f"representatives {reps} pack+dominate but gamma_t={gamma_t} != 2*{gamma}")

    if "prop7" in claims and free:
        ok = (verdict == characterize.VERDICT_YES) == is_g2
        record("prop7", ok, f"classifier={verdict} oracle gamma={gamma} gamma_t={gamma_t}")

    if "cor2" in claims and chordal:
        ok = free and (verdict == characterize.VERDICT_YES) == is_g2
        record("cor2", ok, f"chordal graph: free={free} classifier={verdict} gamma={gamma} gamma_t={gamma_t}")

    if "lemma5" in claims and is_g2:
        unpacked = sorted(sorted(s) for s in enum.sets if not domination.is_packing(g, s)[0])
        record("lemma5", not unpacked, f"gamma-sets {unpacked} are not packings")

    if "cor9" in claims and free and is_g2:
        formula = 1
        for c in classes.classes:
            formula *= len(c)
        ok = formula == enum.count and (enum.count == 1) == all(len(c) == 1 for c in classes.classes)
        record("cor9", ok, f"twin-class product {formula}, enumerated {enum.count}")

    if "cor4" in claims and is_g2 and stats.min_degree >= 2:
        gv = girth(g)
        record("cor4", gv <= 6 and has_c3_or_c6, f"girth={gv} induced c3/c6 present={has_c3_or_c6}")

    if "supports" in claims and not has_c3_or_c6:
        supports = sorted(structure.support_vertices(g))
        # two true twins of degree 1 are the ends of a lone-edge component
        ok = reps == supports and all(
            len(c) == 1 or (len(c) == 2 and all(g.degree(v) == 1 for v in c))
            for c in classes.classes
        )
        record("supports", ok, f"representatives {reps}, supports {supports}, "
                               f"classes {[sorted(c) for c in classes.classes]}")

    if "blocks" in claims:
        blocks = structure.clique_blocks(g)
        if blocks is not None and len(blocks) >= 2:
            cuts = _distinguished_cuts(blocks)
            ok = mask_of(classes.special) == cuts and all(len(c) == 1 for c in classes.classes)
            record("blocks", ok, f"special {sorted(classes.special)}, distinguished cut vertices "
                                 f"{list(bit_indices(cuts))}, classes {[sorted(c) for c in classes.classes]}")

    return outcome


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


def _die_with_parent(parent_pid: int) -> None:
    # a parent killed before it closes the pool (by SIGPIPE, SIGKILL, ...)
    # would leave its workers running, or waiting forever on a queue lock
    # that a sibling held when the same signal killed it
    if sys.platform == "linux":
        import ctypes  # only pool workers need it
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    # a parent that died before the signal was armed is already gone
    if os.getppid() != parent_pid:
        os._exit(1)


def _guarded(fn, item):
    # a failure travels back as a value, so the worker keeps the rest of its chunk
    try:
        return fn(item), None
    except Exception as e:
        return None, e


def ordered_map(fn, items, jobs: int):
    """Yield ``fn(item)`` for every item, in input order.

    With ``jobs > 1`` and more than ``POOL_MIN_RECORDS`` items the calls fan
    out to a process pool whose workers die with this process; it has at
    most one worker per CPU, since the pool forks them all up front. Either
    way an item's exception is raised when its position is reached, after
    the results of the items before it have been yielded.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    items = iter(items)
    head = list(islice(items, POOL_MIN_RECORDS + 1))
    items = chain(head, items)
    if jobs <= 1 or len(head) <= POOL_MIN_RECORDS:
        yield from map(fn, items)
        return
    import multiprocessing  # only a pool needs it, and it is slow to import
    # forked workers are children of this process, as _die_with_parent expects
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    with context.Pool(jobs, _die_with_parent, (os.getpid(),)) as pool:
        for value, error in pool.imap(partial(_guarded, fn), items, chunksize=64):
            if error is not None:
                raise error
            yield value


def sweep_graphs(
    graphs,
    claims: tuple[str, ...] = CLAIM_NAMES,
    jobs: int = 1,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> dict:
    """Run the claim checks over an iterable of graphs.

    Returns the summary ``twindom sweep --json`` prints, less its
    ``elapsedMicros``: ``graphs``, ``skippedIsolated``, ``claims`` (each
    named claim once, sorted, as ``{"checked", "violations"}``) and ``ok``.
    With ``jobs > 1`` the graphs fan out through :func:`ordered_map`;
    violations are listed in input order either way.
    """
    totals = {name: {"checked": 0, "violations": []} for name in sorted(set(claims))}
    seen = skipped = 0
    check = partial(check_graph, claims=claims, oracle_cap=oracle_cap)
    for outcome in ordered_map(check, graphs, jobs):
        seen += 1
        if outcome is None:
            skipped += 1
            continue
        for name, violations in outcome.items():
            totals[name]["checked"] += 1
            totals[name]["violations"] += violations
    return {"graphs": seen, "skippedIsolated": skipped, "claims": totals,
            "ok": not any(c["violations"] for c in totals.values())}
