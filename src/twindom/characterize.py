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
from typing import NamedTuple

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

FALLBACKS = ("none", "oracle")  # what classify does with an ineligible graph


class ClassificationReport(NamedTuple):
    method: str
    eligible: bool
    verdict: str
    ineligibility_witness: Embedding | None
    s_set: SpecialClasses
    packing_violation: tuple[int, int] | None
    uncovered_vertex: int | None
    implied_values: tuple[int, int] | None
    gamma_set_count: int | None
    elapsed_micros: int

    def to_json_dict(self) -> dict:
        witness = self.ineligibility_witness
        return {
            "schemaVersion": 1,
            "method": self.method,
            "eligible": self.eligible,
            "verdict": self.verdict,
            "sSet": self.s_set.to_json_dict(),
            "packingViolation": list(self.packing_violation) if self.packing_violation else None,
            "uncoveredVertex": self.uncovered_vertex,
            "impliedGamma": self.implied_values[0] if self.implied_values else None,
            "impliedGammaT": self.implied_values[1] if self.implied_values else None,
            "gammaSetCount": self.gamma_set_count,
            "witnessEmbedding": witness.to_json_dict() if witness else None,
            "elapsedMicros": self.elapsed_micros,
        }


def classify(g: Graph, fallback: str = "none", oracle_cap: int = DEFAULT_ORACLE_CAP) -> ClassificationReport:
    """Main decision procedure.

    Eligibility is chordality (cheap sufficient test) or an explicit
    search showing no induced c6, h1, or h2. On eligible graphs the
    verdict is decided by the special-vertex representatives; ineligible
    graphs use the exact oracle when ``fallback="oracle"`` and the order
    permits, and are reported ``unknown`` otherwise. Any other
    ``fallback`` is a ``ValueError``.
    """
    if fallback not in FALLBACKS:
        raise ValueError(f"unknown fallback {fallback!r}; expected from {FALLBACKS}")
    if not all(g.adj):
        raise IsolatedVertexError("gamma_t is undefined: graph has an isolated vertex")
    started = time.perf_counter_ns()
    chordal = is_chordal(g)
    witness = None if chordal else is_free(g)[1]
    method = METHOD_CHORDAL if chordal else METHOD_MAIN
    s_set = structure.special_classes(g)
    reps = sorted(s_set.representatives)
    violation = uncovered = implied = count = None
    if witness is None:  # eligible: the representatives decide
        pack_ok, violation = domination.is_packing(g, reps)
        covered = 0
        for v in reps:
            covered |= g.closed[v]
        missing = g.full & ~covered
        uncovered = (missing & -missing).bit_length() - 1 if missing else None
        verdict = VERDICT_YES if pack_ok and not missing else VERDICT_NO
        if verdict == VERDICT_YES:
            implied = (len(reps), 2 * len(reps))
            count = math.prod(map(len, s_set.classes))
    elif fallback == "oracle":
        gamma = domination.exact_gamma(g, oracle_cap).value
        gamma_t = domination.exact_gamma_total(g, oracle_cap).value
        method, implied = METHOD_ORACLE, (gamma, gamma_t)
        verdict = VERDICT_YES if gamma_t == 2 * gamma else VERDICT_NO
    else:  # ineligible: the characterization does not apply
        verdict = VERDICT_UNKNOWN
    # positional, in field order: the keyword form costs more per graph
    return ClassificationReport(method, witness is None, verdict, witness, s_set, violation, uncovered,
                                implied, count, (time.perf_counter_ns() - started) // 1000)
