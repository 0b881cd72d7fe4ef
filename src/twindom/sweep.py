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

import _thread
import os
import signal
from functools import partial
from itertools import chain, islice

from . import characterize, domination, structure
from .domination import DEFAULT_ORACLE_CAP
from .forbidden import girth, is_free
from .graphs import Graph, bit_indices, component_masks, mask_of, parse_graph6, serialize_graph6

# the items per message to a worker; ordered_map maps the first CHUNK
# items in this process, as starting workers costs more
CHUNK = 64

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
    # lemma5 and cor9 share one enumeration of the minimum dominating sets
    if ("lemma5" in claims or ("cor9" in claims and free)) and is_g2:
        enum = domination.enumerate_gamma_sets(g, cap=oracle_cap)

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
        outcome["lemma5"] = [] if not unpacked else _violation(
            g, f"gamma-sets {sorted(sorted(s) for s in unpacked)} are not packings")

    if "cor9" in claims and free and is_g2:
        count = report.gamma_set_count
        singletons = (count == 1) == all(len(c) == 1 for c in classes.classes)
        outcome["cor9"] = [] if count == enum.count and singletons else _violation(
            g, f"twin-class product {count}, enumerated {enum.count}"
               + ("" if singletons else f", classes {[sorted(c) for c in classes.classes]}"))

    if "cor4" in claims and is_g2 and g.n and all(a & (a - 1) for a in g.adj):  # minimum degree >= 2
        outcome["cor4"] = [] if (gv := girth(g)) <= 6 and has_c3_or_c6 else _violation(
            g, f"girth={gv} induced c3/c6 present={has_c3_or_c6}")

    if "supports" in claims and not has_c3_or_c6:
        supports = structure.support_vertices(g)
        # two true twins of degree 1 are the ends of a lone-edge component
        ok = reps == supports and all(
            len(c) == 1 or (len(c) == 2 and all(g.degree(v) == 1 for v in c)) for c in classes.classes)
        outcome["supports"] = [] if ok else _violation(
            g, f"representatives {sorted(reps)}, supports {sorted(supports)}, "
               f"classes {[sorted(c) for c in classes.classes]}")

    blocks = structure.clique_blocks(g) if "blocks" in claims and chordal else None
    if blocks is not None and len(blocks) >= 2:
        cuts = _distinguished_cuts(blocks)
        ok = mask_of(classes.special) == cuts and all(len(c) == 1 for c in classes.classes)
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


def _until_error(values) -> tuple[list, Exception | None]:
    """The values an iterable yields before it raises, and what it raised
    (None when it ran out)."""
    out = []
    try:
        for value in values:
            out.append(value)
    except Exception as e:
        return out, e
    return out, None


def _fork(fn, lifeline: tuple[int, int]):
    """Fork a worker that answers each pickled chunk with one pickled
    ``_until_error(map(fn, chunk))``; (pid, task pipe, its read end, result
    stream). The worker closes the ``lifeline`` pipe's write end, which only
    this process holds, and exits when its read end reaches end of file, that
    is, when this process is gone, however it ended."""
    import pickle  # only a fan-out needs it
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            for fd in (task_w, result_r, lifeline[1]):
                os.close(fd)
            _thread.start_new_thread(lambda: os.read(lifeline[0], 1) or os._exit(1), ())
            tasks, results = os.fdopen(task_r, "rb"), os.fdopen(result_w, "wb")
            while True:
                pickle.dump(_until_error(map(fn, pickle.load(tasks))), results)
                results.flush()
        finally:
            os._exit(1)
    os.close(result_w)
    # task_r stays open here, so a write to a dead worker fills its pipe
    # instead of raising SIGPIPE, and _send never blocks on a full one
    os.set_blocking(task_w, False)
    return pid, task_w, task_r, os.fdopen(result_r, "rb")


def _send(worker, data: bytes) -> None:
    import select
    _, task_w, _, results = worker
    view = memoryview(data)
    while view:
        try:
            view = view[os.write(task_w, view):]
        except BlockingIOError:  # wait for room; an idle worker's results end only if it died
            if select.select([results], [task_w], [])[0]:
                raise ChildProcessError("a worker process died") from None


def _fan_out(fn, items, jobs: int):
    """``ordered_map`` over ``jobs`` forked workers. Each has one chunk of
    ``CHUNK`` items (fewer at the end) in flight at a time, and at most
    ``2 * jobs`` chunks are sent and not yet yielded, which bounds the
    buffer that restores order."""
    import pickle
    import select
    workers = []
    lifeline = os.pipe()  # the kernel closes its write end when this process ends, however it ends
    try:
        for _ in range(jobs):
            workers.append(_fork(fn, lifeline))
        idle, busy, done = list(workers), {}, {}  # busy: result stream -> (worker, chunk number)
        sent = yielded = 0
        more, error = True, None  # error: the input iterator's
        while True:
            while yielded in done:
                values, item_error = done.pop(yielded)
                yield from values
                if item_error is not None:
                    raise item_error
                yielded += 1
            while more and idle and sent - yielded < 2 * jobs:
                chunk, error = _until_error(islice(items, CHUNK))
                more = error is None and len(chunk) == CHUNK
                if chunk:
                    worker = idle.pop()
                    _send(worker, pickle.dumps(chunk))
                    busy[worker[3]] = worker, sent
                    sent += 1
            if not busy:  # every chunk sent is yielded, and the input is spent
                break
            for results in select.select(list(busy), [], [])[0]:
                worker, number = busy.pop(results)
                try:
                    done[number] = pickle.load(results)
                except (EOFError, pickle.UnpicklingError):  # no reply, or one cut short: the worker died
                    raise ChildProcessError("a worker process died") from None
                idle.append(worker)
        if error is not None:
            raise error
    finally:
        # no lock is shared with a worker, so killing one at any point is safe
        for pid, task_w, task_r, results in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(task_w)
            os.close(task_r)
            results.close()
        for fd in lifeline:
            os.close(fd)


def ordered_map(fn, items, jobs: int):
    """Yield ``fn(item)`` for every item, in input order.

    Items are read and mapped here one at a time, but with ``jobs > 1`` and
    ``os.fork`` available those after the first ``CHUNK`` fan out to forked
    workers, at most one per CPU, which exit when this process ends: a pipe
    whose write end only it holds then reaches end of file. A worker reads
    pickled chunks of ``CHUNK`` items and answers each with one pickle: the
    results up to its first failing item, and that failure. Either way an
    item's exception, or the input iterator's, is raised when its position
    is reached, after the results of the items before it; a worker that
    dies or cuts a reply short raises ``ChildProcessError``.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    items = iter(items)
    if jobs <= 1 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    yield from map(fn, islice(items, CHUNK))
    if rest := list(islice(items, 1)):  # fork only once a CHUNK + 1st item exists
        yield from _fan_out(fn, chain(rest, items), jobs)


def as_graph(item) -> Graph:
    """A Graph as it is, or a (line number, graph6 line) pair parsed here."""
    return item if isinstance(item, Graph) else parse_graph6(item[1], line=item[0])


def _check_item(item, claims: frozenset[str], oracle_cap: int):
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
    With ``jobs > 1`` the graphs fan out through :func:`ordered_map`;
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
    check = partial(_check_item, claims=frozenset(claims), oracle_cap=oracle_cap)
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
