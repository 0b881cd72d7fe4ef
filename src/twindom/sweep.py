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
  class is a singleton.
"""

from __future__ import annotations

import signal
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from multiprocessing import Pool

from . import characterize, domination, structure
from .domination import DEFAULT_ORACLE_CAP
from .forbidden import C3, C6, girth, is_free
from .graphs import Graph, basic_stats, bit_indices, mask_of, serialize_graph6

# ordered_map hands a batch to worker processes only when it has more items
POOL_MIN_RECORDS = 32

CLAIM_NAMES = ("bounds", "lemma5", "lemma6", "prop7", "cor2", "cor4", "cor9", "supports", "blocks")


@dataclass
class Violation:
    claim: str
    graph6: str
    detail: str


@dataclass
class ClaimResult:
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)


@dataclass
class SweepResult:
    graphs_seen: int = 0
    skipped_isolated: int = 0
    claims: dict[str, ClaimResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(not c.violations for c in self.claims.values())

    def merge_graph(self, checked: dict[str, int], violations: list[tuple[str, str, str]]) -> None:
        for name, inc in checked.items():
            self.claims.setdefault(name, ClaimResult()).checked += inc
        for claim, g6, detail in violations:
            self.claims.setdefault(claim, ClaimResult()).violations.append(
                Violation(claim, g6, detail)
            )


def check_graph(
    g: Graph, claims: tuple[str, ...] = CLAIM_NAMES, oracle_cap: int = DEFAULT_ORACLE_CAP
) -> tuple[bool, dict[str, int], list[tuple[str, str, str]]]:
    """Check one graph. Returns (skipped, per-claim checked counts, violations)."""
    stats = basic_stats(g)
    if stats.isolated_count:
        return True, {}, []

    gamma = domination.exact_gamma(g, oracle_cap).value
    gamma_t = domination.exact_gamma_total(g, oracle_cap).value
    is_g2 = gamma_t == 2 * gamma
    report = characterize.classify(g)
    verdict = report.verdict
    chordal = report.method == characterize.METHOD_CHORDAL
    # freeness is searched explicitly on chordal graphs so cor2 can check
    # the "chordal implies pattern-free" inclusion
    free = is_free(g)[0] if chordal else report.eligible
    classes = report.s_set
    reps = sorted(classes.representatives)
    pack, dom = report.packing_ok, report.dominating_ok
    if pack is None:  # ineligible: classify skipped the test, lemma6 needs it
        pack = domination.is_packing(g, reps)[0]
        dom = domination.is_dominating(g, reps)
    has_c3_or_c6 = not is_free(g, (C3, C6))[0]
    # lemma5 and cor9 share one enumeration of the minimum dominating sets
    enum = None
    if is_g2 and ("lemma5" in claims or ("cor9" in claims and free)):
        enum = domination.enumerate_gamma_sets(g, cap=oracle_cap)

    checked: dict[str, int] = {}
    violations: list[tuple[str, str, str]] = []

    def record(claim: str, ok: bool, detail: str) -> None:
        checked[claim] = checked.get(claim, 0) + 1
        if not ok:
            violations.append((claim, serialize_graph6(g).decode("ascii"), detail))

    if "bounds" in claims:
        ok = gamma <= gamma_t <= 2 * gamma
        if ok and stats.component_count == 1 and g.n >= 3:
            ok = 3 * gamma_t <= 2 * g.n
        record("bounds", ok, f"gamma={gamma} gamma_t={gamma_t} n={g.n}")

    if "lemma6" in claims:
        ok = is_g2 if (pack and dom) else True
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

    if "blocks" in claims and stats.component_count == 1:
        decomp = structure.blocks_and_cut_vertices(g)
        masks = [mask_of(b) for b in decomp.blocks]
        # a block graph: every block is a clique
        if len(masks) >= 2 and all(m & ~g.closed[v] == 0 for m in masks for v in bit_indices(m)):
            cuts = decomp.lone_block_cuts | decomp.multi_block_cuts
            ok = classes.special == cuts and all(len(c) == 1 for c in classes.classes)
            record("blocks", ok, f"special {sorted(classes.special)}, distinguished cut vertices "
                                 f"{sorted(cuts)}, classes {[sorted(c) for c in classes.classes]}")

    return False, checked, violations


def _die_with_parent() -> None:
    # a parent killed before it closes the pool (by SIGPIPE, SIGKILL, ...)
    # would leave its workers running, or waiting forever on a queue lock
    # that a sibling held when the same signal killed it
    if sys.platform == "linux":
        import ctypes  # only pool workers need it
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def _guarded(fn, item):
    # a failure travels back as a value, so the worker keeps the rest of its chunk
    try:
        return fn(item), None
    except Exception as e:
        return None, e


def ordered_map(fn, items, jobs: int):
    """Yield ``fn(item)`` for every item, in input order.

    With ``jobs > 1`` and more than ``POOL_MIN_RECORDS`` items the calls fan
    out to a process pool whose workers die with this process. Either way an
    item's exception is raised when its position is reached, after the
    results of the items before it have been yielded.
    """
    items = iter(items)
    head = list(islice(items, POOL_MIN_RECORDS + 1))
    items = chain(head, items)
    if jobs <= 1 or len(head) <= POOL_MIN_RECORDS:
        yield from map(fn, items)
        return
    with Pool(jobs, _die_with_parent) as pool:
        for value, error in pool.imap(partial(_guarded, fn), items, chunksize=64):
            if error is not None:
                raise error
            yield value


def sweep_graphs(
    graphs,
    claims: tuple[str, ...] = CLAIM_NAMES,
    jobs: int = 1,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SweepResult:
    """Run the claim checks over an iterable of graphs.

    With ``jobs > 1`` the graphs fan out through :func:`ordered_map`; results
    merge back in input order either way.
    """
    result = SweepResult(claims={name: ClaimResult() for name in claims})
    check = partial(check_graph, claims=claims, oracle_cap=oracle_cap)
    for skipped, checked, violations in ordered_map(check, graphs, jobs):
        result.graphs_seen += 1
        result.skipped_isolated += skipped
        result.merge_graph(checked, violations)
    return result
