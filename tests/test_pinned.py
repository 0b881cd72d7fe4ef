"""Byte-for-byte pins of ``classify`` reports and ``check_graph`` outcomes.

Each test hashes one corpus of per-graph results, rendered as sorted-key
JSON lines, and compares the sha256 with the digest the same code gave
before the per-graph fast paths were tuned. A change that moves any
verdict, certificate, witness, count or violation entry on any graph of
the corpus changes the digest. ``elapsedMicros`` is the one field left out,
as it is a wall time.

The corpora: every labeled graph of order 1 to 6 (33,867, of which 28,263
are isolate-free) and 200 seeded isolate-free G(n, p) with n from 7 to 40.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

from twindom.characterize import classify
from twindom.graphs import Graph
from twindom.sweep import check_graph

REPORTS_N6 = "ebdc05d72c141f26c63960173dee3222264befba797a85c42e31ebd69d0beb90"
REPORTS_GNP = "162d7adc5fa9679ddee580364c7c358d15264e96c0e2dda9be5c88eb16f305c8"
OUTCOMES_N6 = "defe32bec9c424c82dc2c926582920cd0cc4d87e2a66935ca68f8299e314eae1"


def labeled_graphs(max_n: int):
    """Every labeled graph of order 1..max_n, by order, then by edge mask
    over the pairs in lexicographic order."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def seeded_gnp(count: int, seed: int):
    """``count`` isolate-free G(n, p), n in 7..40 and p in [0.02, 0.98];
    draws with an isolated vertex are skipped."""
    rng = random.Random(seed)
    while count:
        n, p = rng.randint(7, 40), rng.uniform(0.02, 0.98)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if all(g.adj):
            count -= 1
            yield g


def digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(json.dumps(value, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def report(g: Graph) -> dict:
    fields = classify(g).to_json_dict()
    del fields["elapsedMicros"]
    return fields


def test_reports_of_every_isolate_free_graph_to_order_6():
    graphs = [g for g in labeled_graphs(6) if all(g.adj)]
    assert len(graphs) == 28263
    assert digest(map(report, graphs)) == REPORTS_N6


def test_reports_of_seeded_random_graphs():
    assert digest(map(report, seeded_gnp(200, 2028))) == REPORTS_GNP


def test_sweep_outcomes_of_every_graph_to_order_6():
    outcomes = list(map(check_graph, labeled_graphs(6)))
    assert len(outcomes) == 33867
    assert outcomes.count(None) == 33867 - 28263
    assert digest(outcomes) == OUTCOMES_N6
