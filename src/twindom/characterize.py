"""Decision procedures for the identity gamma_t = 2*gamma.

The main classifier applies to graphs free of the induced patterns c6,
h1, and h2 (chordal graphs qualify automatically): such a graph attains
gamma_t = 2*gamma exactly when its set of special-vertex representatives
is simultaneously a packing and a dominating set. The verdict then comes
with the implied values gamma = |S| and gamma_t = 2|S|, plus a concrete
certificate: a violating pair, an uncovered vertex, or the forbidden
pattern that made the graph ineligible. Ineligible graphs either fall
back to the exact oracle (opt-in, capped) or get the verdict ``unknown``.

The paper's specializations need no classifier of their own: on graphs
with no induced triangle or hexagon (trees among them) the special
representatives are the support vertices, and on connected block graphs
the special vertices are the distinguished cut vertices of the block
decomposition. Both families are eligible (h1 and h2 contain triangles,
block graphs are chordal), so ``classify`` decides them, and the sweep
claims ``supports`` and ``blocks`` check both identities.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import domination, structure
from .domination import DEFAULT_ORACLE_CAP, IsolatedVertexError
from .forbidden import Embedding, is_chordal, is_free
from .graphs import Graph
from .structure import SpecialClasses

VERDICT_YES = "is_gamma2"
VERDICT_NO = "not_gamma2"
VERDICT_UNKNOWN = "unknown"

METHOD_MAIN = "main_theorem"
METHOD_CHORDAL = "chordal_fast_path"
METHOD_ORACLE = "exact_oracle"


@dataclass(frozen=True)
class ClassificationReport:
    method: str
    eligible: bool
    verdict: str
    ineligibility_witness: Embedding | None
    s_set: SpecialClasses | None
    packing_ok: bool | None
    packing_violation: tuple[int, int] | None
    dominating_ok: bool | None
    uncovered_vertex: int | None
    implied_values: tuple[int, int] | None
    gamma_set_count: int | None
    elapsed_micros: int

    def to_json_dict(self) -> dict:
        s_set = None
        if self.s_set is not None:
            s_set = {
                "special": sorted(self.s_set.special),
                "classes": [sorted(c) for c in self.s_set.classes],
                "representatives": sorted(self.s_set.representatives),
            }
        witness = None
        if self.ineligibility_witness is not None:
            witness = {
                "pattern": self.ineligibility_witness.pattern,
                "mapping": list(self.ineligibility_witness.mapping),
            }
        return {
            "schemaVersion": 1,
            "method": self.method,
            "eligible": self.eligible,
            "verdict": self.verdict,
            "sSet": s_set,
            "packingViolation": list(self.packing_violation) if self.packing_violation else None,
            "uncoveredVertex": self.uncovered_vertex,
            "impliedGamma": self.implied_values[0] if self.implied_values else None,
            "impliedGammaT": self.implied_values[1] if self.implied_values else None,
            "gammaSetCount": self.gamma_set_count,
            "witnessEmbedding": witness,
            "elapsedMicros": self.elapsed_micros,
        }


def _require_isolate_free(g: Graph) -> None:
    if any(m == 0 for m in g.adj):
        raise IsolatedVertexError("gamma_t is undefined: graph has an isolated vertex")


def _least_uncovered(g: Graph, members) -> int:
    covered = 0
    for v in members:
        covered |= g.closed[v]
    missing = g.full & ~covered
    return (missing & -missing).bit_length() - 1


def _verdict_from_set(g: Graph, s_set: SpecialClasses, method: str,
                      started_ns: int) -> ClassificationReport:
    """Eligible graphs: is the candidate set a packing and a dominating set?"""
    reps = sorted(s_set.representatives)
    pack_ok, violation = domination.is_packing(g, reps)
    dom_ok = domination.is_dominating(g, reps)
    uncovered = None if dom_ok else _least_uncovered(g, reps)
    if pack_ok and dom_ok:
        verdict = VERDICT_YES
        implied = (len(reps), 2 * len(reps))
        count = math.prod(len(c) for c in s_set.classes)
    else:
        verdict = VERDICT_NO
        implied = None
        count = None
    return ClassificationReport(
        method=method,
        eligible=True,
        verdict=verdict,
        ineligibility_witness=None,
        s_set=s_set,
        packing_ok=pack_ok,
        packing_violation=violation,
        dominating_ok=dom_ok,
        uncovered_vertex=uncovered,
        implied_values=implied,
        gamma_set_count=count,
        elapsed_micros=_micros_since(started_ns),
    )


def _micros_since(started_ns: int) -> int:
    return (time.perf_counter_ns() - started_ns) // 1000


def classify(g: Graph, fallback: str = "none", oracle_cap: int = DEFAULT_ORACLE_CAP) -> ClassificationReport:
    """Main decision procedure.

    Eligibility is chordality (cheap sufficient test) or an explicit
    search showing no induced c6, h1, or h2. On eligible graphs the
    verdict is decided by the special-vertex representatives; ineligible
    graphs use the exact oracle when ``fallback="oracle"`` and the order
    permits, and are reported ``unknown`` otherwise.
    """
    _require_isolate_free(g)
    started = time.perf_counter_ns()
    if is_chordal(g):
        method, witness = METHOD_CHORDAL, None
    else:
        free, witness = is_free(g)
        method = METHOD_MAIN if free else None
    if method is not None:
        return _verdict_from_set(g, structure.special_classes(g), method, started)

    # ineligible: the characterization does not apply
    method, verdict, implied = METHOD_MAIN, VERDICT_UNKNOWN, None
    if fallback == "oracle":
        cert_g = domination.exact_gamma(g, oracle_cap)
        cert_t = domination.exact_gamma_total(g, oracle_cap)
        method, implied = METHOD_ORACLE, (cert_g.value, cert_t.value)
        verdict = VERDICT_YES if cert_t.value == 2 * cert_g.value else VERDICT_NO
    return ClassificationReport(
        method=method,
        eligible=False,
        verdict=verdict,
        ineligibility_witness=witness,
        s_set=structure.special_classes(g),
        packing_ok=None,
        packing_violation=None,
        dominating_ok=None,
        uncovered_vertex=None,
        implied_values=implied,
        gamma_set_count=None,
        elapsed_micros=_micros_since(started),
    )
