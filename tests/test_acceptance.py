"""Acceptance suite.

Every criterion prints one PASS/FAIL line (visible with ``pytest -s``)
and fails the run on any violation. The exhaustive order-<=6 sweep is
computed once and shared by the criteria that consume it; the extended
order-7 run is marked slow and excluded from the default run.
"""

from __future__ import annotations

import random
import time
from itertools import chain

import pytest

import twindom as td
from twindom import sweep
from twindom.generators import (
    corona_p2,
    cycle,
    enumerate_small_graphs,
    fixture,
    random_block_graph,
    random_tree,
)
from twindom.graphs import Graph

from conftest import brute_gamma, brute_gamma_total

SWEEP_MAX_N = 6


def report(criterion: int, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def full_sweep() -> dict:
    graphs = chain.from_iterable(
        enumerate_small_graphs(n) for n in range(1, SWEEP_MAX_N + 1)
    )
    result = sweep.sweep_graphs(graphs, sweep.CLAIM_NAMES, jobs=1)
    expected = sum(2 ** (n * (n - 1) // 2) for n in range(1, SWEEP_MAX_N + 1))
    assert result["graphs"] == expected
    # every isolate-free graph passed through the unconditional claims
    assert result["claims"]["lemma6"]["checked"] == result["graphs"] - result["skippedIsolated"]
    assert result["claims"]["bounds"]["checked"] == result["claims"]["lemma6"]["checked"]
    assert {name: c["checked"] for name, c in result["claims"].items()} == {
        "bounds": 28263, "lemma6": 28263, "prop7": 27663, "cor2": 14626, "cor9": 6526,
        "lemma5": 6586, "cor4": 4002, "supports": 4164, "blocks": 4787,
    }
    return result


def _claim_ok(result: dict, claim: str) -> tuple[bool, str]:
    c = result["claims"][claim]
    detail = f"{c['checked']} graphs checked, {len(c['violations'])} violations"
    if c["violations"]:
        v = c["violations"][0]
        detail += f"; first: {v['graph6']} {v['detail']}"
    return not c["violations"], detail


def test_criterion_1_fixture_values_and_pattern_facts():
    started = time.perf_counter()
    ok = True
    notes = []
    for name, expect_pair, inside, absent in (
        ("g1", (2, 4), td.H1, (td.H2, td.C6)),
        ("g2", (3, 6), td.H2, (td.H1, td.C6)),
        ("c6", (2, 4), None, (td.H1, td.H2)),
    ):
        g = fixture(name)
        pair = (td.exact_gamma(g).value, td.exact_gamma_total(g).value)
        if pair != expect_pair:
            ok = False
            notes.append(f"{name} values {pair}")
        if inside is not None and td.find_induced(g, inside) is None:
            ok = False
            notes.append(f"{name} missing {inside.name}")
        for p in absent:
            if td.find_induced(g, p) is not None:
                ok = False
                notes.append(f"{name} unexpectedly contains {p.name}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        ok = False
        notes.append(f"took {elapsed:.2f}s")
    report(1, ok, "; ".join(notes) or f"all fixture values exact in {elapsed * 1000:.0f}ms")


def test_criterion_2_neighborhood_partition_reproduction():
    # the split of N[v1]: true twins, neighbors whose closed neighborhood
    # lies inside N[v1], and the neighbors that reach outside it
    g = fixture("fig1")
    nv = g.closed[0]
    members = [u for u in range(g.n) if nv >> u & 1]
    twins = {u for u in members if g.closed[u] == nv}
    inner = {u for u in members if g.closed[u] != nv and g.closed[u] & ~nv == 0}
    outer = {u for u in members if g.closed[u] & ~nv}
    special = sorted(td.special_classes(g).special)
    ok = twins == {0, 1} and inner == {2, 3} and outer == {4, 5} and special == [0, 1]
    report(2, ok, f"twins={sorted(twins)} inner={sorted(inner)} outer={sorted(outer)} special={special}")


def test_criterion_3_classifier_matches_oracle_on_eligible_graphs(full_sweep):
    ok, detail = _claim_ok(full_sweep, "prop7")
    report(3, ok, detail)


def test_criterion_4_sufficiency_needs_no_eligibility(full_sweep):
    ok, detail = _claim_ok(full_sweep, "lemma6")
    report(4, ok, detail)


def test_criterion_5_gamma_sets_are_the_packing_dominating_sets(full_sweep):
    ok, detail = _claim_ok(full_sweep, "lemma5")
    report(5, ok, detail)


def test_criterion_6_twin_class_count_formula(full_sweep):
    ok, detail = _claim_ok(full_sweep, "cor9")
    report(6, ok, detail)


def test_criterion_7_classical_bounds_and_corona_extremes(full_sweep):
    ok, detail = _claim_ok(full_sweep, "bounds")
    misses = 0
    built = 0
    for nh in range(2, 6):
        for h in enumerate_small_graphs(nh, "connected"):
            c = corona_p2(h)
            built += 1
            if 3 * td.exact_gamma_total(c).value != 2 * c.n:
                misses += 1
    ok = ok and misses == 0
    report(7, ok, f"{detail}; {built} coronas, {misses} missing the 2n/3 equality")


def test_criterion_8_girth_consequence(full_sweep):
    ok, detail = _claim_ok(full_sweep, "cor4")
    report(8, ok, detail)


def test_criterion_9_specialized_classifiers_agree(full_sweep):
    # the specializations are identities checked by the sweep: exhaustive
    # for n <= 6, then on seeded random trees and block graphs, where the
    # prop7 claim also holds classify to the oracle
    ok = True
    notes = []
    for claim in ("supports", "blocks"):
        claim_ok, detail = _claim_ok(full_sweep, claim)
        ok = ok and claim_ok
        notes.append(f"{claim}: {detail}")
    started = time.perf_counter()
    graphs = chain(
        (random_tree(2 + seed % 19, seed) for seed in range(1000)),
        (random_block_graph(2 + seed % 4, 2 + seed % 3, seed) for seed in range(1000)),
    )
    result = sweep.sweep_graphs(graphs, ("prop7", "supports", "blocks"), jobs=1)
    assert result["graphs"] == 2000 and result["skippedIsolated"] == 0
    elapsed = time.perf_counter() - started
    violations = sum(len(c["violations"]) for c in result["claims"].values())
    # trees and block graphs are chordal, so prop7 compared every verdict;
    # pinning the other two counts catches a detector that skips graphs
    counts = {name: c["checked"] for name, c in result["claims"].items()}
    ok = ok and violations == 0 and elapsed < 60.0
    ok = ok and counts == {"prop7": 2000, "supports": 1382, "blocks": 1947}
    checked = ", ".join(f"{name} {count}" for name, count in counts.items())
    notes.append(f"2000 random graphs ({checked} checked), {violations} violations, {elapsed:.1f}s")
    report(9, ok, "; ".join(notes))


def test_criterion_10_polynomial_path_scales():
    # brute force confirms the corona property at small scale first
    for k in (3, 4, 5, 6):
        c = corona_p2(cycle(k))
        assert td.exact_gamma(c).value == k
        assert td.exact_gamma_total(c).value == 2 * k
        if k != 6:  # the hexagon corona keeps its induced hexagon, so it is ineligible
            rep_small = td.classify(c)
            assert rep_small.verdict == "is_gamma2" and rep_small.implied_values == (k, 2 * k)

    big = corona_p2(cycle(500))
    started = time.perf_counter()
    rep = td.classify(big)
    elapsed = time.perf_counter() - started
    refused = False
    try:
        td.exact_gamma(big)
    except td.OracleCapExceeded:
        refused = True
    ok = (
        elapsed < 5.0
        and rep.verdict == "is_gamma2"
        and rep.implied_values == (500, 1000)
        and refused
    )
    report(10, ok, f"n={big.n} classified in {elapsed:.2f}s, implied={rep.implied_values}, "
                   f"oracle refused={refused}")


def test_criterion_11_oracle_against_naive_enumeration():
    mismatches = 0
    checked = 0
    for n in range(1, 6):
        for g in enumerate_small_graphs(n):
            checked += 1
            if td.exact_gamma(g).value != brute_gamma(g):
                mismatches += 1
            expect_t = brute_gamma_total(g)
            if expect_t is not None and td.exact_gamma_total(g).value != expect_t:
                mismatches += 1
    rng = random.Random(2024)
    for n in (6, 7):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(150):
            mask = rng.getrandbits(len(all_pairs))
            g = Graph(n, [p for k, p in enumerate(all_pairs) if (mask >> k) & 1])
            checked += 1
            if td.exact_gamma(g).value != brute_gamma(g):
                mismatches += 1
            expect_t = brute_gamma_total(g)
            if expect_t is not None and td.exact_gamma_total(g).value != expect_t:
                mismatches += 1
    report(11, mismatches == 0, f"{checked} graphs, {mismatches} mismatches")


@pytest.mark.slow
def test_criterion_3_extended_order_seven():
    import os

    result = sweep.sweep_graphs(
        enumerate_small_graphs(7),
        ("prop7", "supports", "blocks"),
        jobs=os.cpu_count() or 1,
    )
    for claim in ("prop7", "supports", "blocks"):
        ok, detail = _claim_ok(result, claim)
        report(3, ok, f"order-7 extension, {claim}: {detail}")
