"""twindom: decide whether a graph's total domination number equals twice
its domination number.

For graphs with no induced hexagon or chorded hexagon (patterns c6, h1,
h2; all chordal graphs qualify) the question is decided in polynomial
time from the true-twin structure of closed neighborhoods, with implied
exact values and concrete certificates. Exponential exact solvers serve
as desk-scale oracles, and a sweep driver re-verifies every supporting
claim over exhaustive small-graph corpora.
"""

from .characterize import (
    ClassificationReport,
    classify,
)
from .domination import (
    DominationCertificate,
    GammaSetEnumeration,
    IsolatedVertexError,
    OracleCapExceeded,
    enumerate_gamma_sets,
    exact_gamma,
    exact_gamma_total,
    is_dominating,
    is_packing,
)
from .forbidden import (
    C3,
    C6,
    H1,
    H2,
    Embedding,
    Pattern,
    find_induced,
    girth,
    is_chordal,
    is_free,
)
from .graphs import (
    BasicStats,
    Graph,
    GraphParseError,
    basic_stats,
)
from .structure import (
    SpecialClasses,
    special_classes,
    support_vertices,
)

__version__ = "0.1.0"
