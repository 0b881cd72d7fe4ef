"""Correctness gate for the CLI's output.

``truth_problems`` checks a classify reference run against what is known
without the classifier: the echoed graph6, eligibility of constructions
that are c6/h1/h2-free, (gamma, gamma_t) from constructions and brute
force, the packing/domination certificate and every witness embedding.
``compare`` then checks each measured run against that reference.
"""

from __future__ import annotations

import json
import re

# Fields compared by record index; other keys, and elapsedMicros, are ignored.
FIELDS = ("verdict", "eligible", "impliedGamma", "impliedGammaT", "gammaSetCount",
          "packingViolation", "uncoveredVertex", "sSet", "witnessEmbedding")

_HEX = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
PATTERN_EDGES = {"c6": _HEX, "h1": _HEX + [(1, 5)], "h2": _HEX + [(1, 5), (2, 4)]}

# All 33,867 labeled graphs of order 1..6, 28,263 of them isolate-free:
# checked counts per claim of the seed's claim set, as `sweep --max-n 6`
# reports them. Claims added later are not checked here.
SWEEP_N6 = {
    "graphs": 33867,
    "skippedIsolated": 5604,
    "claims": {"bounds": 28263, "cor2": 14626, "cor4": 4002, "cor9": 6526,
               "lemma5": 6586, "lemma6": 28263, "prop7": 27663},
}

_ELAPSED = re.compile(rb',?"elapsedMicros":\d+')


def without_elapsed(out: bytes) -> bytes:
    return _ELAPSED.sub(b"", out)


def parse_lines(out: bytes) -> dict[int, dict]:
    """Result objects by index; lines that are not JSON objects are skipped."""
    by_index = {}
    for raw in out.splitlines():
        try:
            obj = json.loads(raw)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("index"), int):
            by_index[obj["index"]] = obj
    return by_index


def is_result(obj: dict | None) -> bool:
    return obj is not None and "error" not in obj and "verdict" in obj


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def witness_problem(adj: list[set[int]], witness) -> str | None:
    """None when ``witness`` is an induced copy of its pattern in the host."""
    if not isinstance(witness, dict) or witness.get("pattern") not in PATTERN_EDGES:
        return f"witness {witness!r} names no known pattern"
    mapping = witness.get("mapping")
    if (not isinstance(mapping, list) or len(mapping) != 6 or len(set(mapping)) != 6
            or not all(isinstance(v, int) and 0 <= v < len(adj) for v in mapping)):
        return f"witness mapping {mapping!r} is not 6 distinct host vertices"
    pat = {frozenset(e) for e in PATTERN_EDGES[witness["pattern"]]}
    for i in range(6):
        for j in range(i + 1, 6):
            if (frozenset((i, j)) in pat) != (mapping[j] in adj[mapping[i]]):
                return f"witness {witness} is not an induced {witness['pattern']} at ({i},{j})"
    return None


def _certificate_problem(adj, obj) -> str | None:
    reps = (obj.get("sSet") or {}).get("representatives")
    if not isinstance(reps, list):
        return "eligible record without sSet.representatives"
    hits = [0] * len(adj)
    for r in reps:
        for v in adj[r] | {r}:
            hits[v] += 1
    packing, dominating = max(hits, default=0) <= 1, min(hits, default=1) >= 1
    if obj["verdict"] == "is_gamma2":
        if not (packing and dominating):
            return "is_gamma2 but the representatives are not a packing and a dominating set"
        if obj["impliedGamma"] != len(reps) or obj["impliedGammaT"] != 2 * len(reps):
            return f"implied values {obj['impliedGamma']},{obj['impliedGammaT']} for |S|={len(reps)}"
        return None
    pv, uv = obj.get("packingViolation"), obj.get("uncoveredVertex")
    if pv is not None:
        u, v = pv
        if not ({u, v} <= set(reps) and u != v and (adj[u] | {u}) & (adj[v] | {v})):
            return f"packingViolation {pv} is not two representatives at distance <= 2"
    elif uv is not None:
        if hits[uv] != 0:
            return f"uncoveredVertex {uv} is dominated"
    else:
        return "not_gamma2 without a violation or an uncovered vertex"
    return None


def truth_problems(records, ref: dict[int, dict]) -> list[str]:
    """Check a reference classify run against independent facts."""
    problems = []
    for i, rec in enumerate(records):
        obj = ref.get(i)
        if not is_result(obj):
            problems.append(f"#{i} {rec.kind}: no result in the reference run")
            continue
        try:
            p = _record_problem(rec, obj)
        except (TypeError, ValueError, IndexError, KeyError, AttributeError) as e:
            p = f"malformed record: {e!r}"
        if p:
            problems.append(f"#{i} {rec.kind}: {p}")
    return problems


def _record_problem(rec, obj) -> str | None:
    if obj.get("graph6") != rec.line:
        return "echoed graph6 differs from the input line"
    adj = _adjacency(rec.n, rec.edges)
    if not obj["eligible"]:
        if rec.free:
            return "construction has no induced c6/h1/h2 but the record is ineligible"
        if obj["verdict"] != "unknown":
            return f"ineligible record with verdict {obj['verdict']}"
        return witness_problem(adj, obj.get("witnessEmbedding"))
    if obj.get("witnessEmbedding") is not None:
        return "eligible record with a witness embedding"
    if obj["verdict"] not in ("is_gamma2", "not_gamma2"):
        return f"eligible record with verdict {obj['verdict']}"
    p = _certificate_problem(adj, obj)
    if p or rec.truth is None:
        return p
    gamma, gamma_t, count = rec.truth
    if (obj["verdict"] == "is_gamma2") != (gamma_t == 2 * gamma):
        return f"verdict {obj['verdict']} but gamma={gamma} gamma_t={gamma_t}"
    if obj["verdict"] == "is_gamma2":
        if (obj["impliedGamma"], obj["impliedGammaT"]) != (gamma, gamma_t):
            return f"implied ({obj['impliedGamma']},{obj['impliedGammaT']}) != ({gamma},{gamma_t})"
        if count is not None and obj["gammaSetCount"] != count:
            return f"gammaSetCount {obj['gammaSetCount']} != {count} minimum dominating sets"
    return None


def compare(ref: dict[int, dict], out: dict[int, dict], attempted: int) -> tuple[int, list[str]]:
    """(records with no result, mismatches) of a run against the reference."""
    errors, mismatches = 0, []
    for i in range(attempted):
        obj = out.get(i)
        if not is_result(obj):
            errors += 1
            continue
        expected = ref.get(i, {})
        diff = [f for f in FIELDS if obj.get(f) != expected.get(f)]
        if diff or obj.get("graph6") != expected.get("graph6"):
            mismatches.append(f"#{i}: {', '.join(diff) or 'graph6'} differ from the reference")
    return errors, mismatches


def add_sweep(totals: dict, summary: dict) -> None:
    """Add the counts of one `sweep --json` summary into ``totals``."""
    for key in ("graphs", "skippedIsolated"):
        totals[key] = totals.get(key, 0) + summary.get(key, 0)
    claims = totals.setdefault("claims", {})
    for name, result in (summary.get("claims") or {}).items():
        claims[name] = claims.get(name, 0) + result.get("checked", 0)


def sweep_problems(totals: dict) -> list[str]:
    """Check the summed counts of one pass over the order-6 corpus."""
    problems = []
    for key in ("graphs", "skippedIsolated"):
        if totals.get(key) != SWEEP_N6[key]:
            problems.append(f"sweep pass: {key}={totals.get(key)}, expected {SWEEP_N6[key]}")
    for name, checked in SWEEP_N6["claims"].items():
        got = totals.get("claims", {}).get(name)
        if got != checked:
            problems.append(f"sweep pass: claim {name} checked {got}, expected {checked}")
    return problems
