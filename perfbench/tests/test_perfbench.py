"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def _graph6_by_bits(n, edges):
    """Plain bit-by-bit graph6 encoder (n < 2**18) to check the fast one."""
    es = {frozenset(e) for e in edges}
    bits = [int(frozenset((i, j)) in es) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    head = [n + 63] if n <= 62 else [126] + [63 + (n >> s & 63) for s in (12, 6, 0)]
    return bytes(head + body).decode()


def test_same_seed_same_graph6_bytes():
    for name in inputs.BUILDERS:
        first = [r.line for r in inputs.build(name, 11)]
        assert first == [r.line for r in inputs.build(name, 11)]
        assert first != [r.line for r in inputs.build(name, 12)]


def test_graph6_encoder_matches_bitwise_encoding():
    for rec in inputs.build("many-small", 3)[:200]:
        assert rec.line == _graph6_by_bits(rec.n, rec.edges)
    n, edges = inputs.corona(30, inputs.cycle(30))  # n = 90: four-byte size header
    assert inputs.graph6(n, edges) == _graph6_by_bits(n, edges)


def test_construction_truths_agree_with_brute_force():
    for b in (2, 3, 4):
        n, edges = inputs.corona(b, inputs.cycle(b) if b > 2 else [(0, 1)])
        assert inputs.brute_truth(n, edges)[:2] == (b, 2 * b)
    n, edges = inputs.construction_h(2, [(0, 1)], [(1, []), (2, [(0, 1)])])
    assert inputs.brute_truth(n, edges)[:2] == (2, 4)
    assert inputs.brute_truth(6, inputs.complete_bipartite(3))[:2] == (2, 2)
    # every pair of c4 dominates it: six minimum dominating sets
    assert inputs.brute_truth(4, inputs.cycle(4)) == (2, 2, 6)


def _toy_tree(clock):
    """a -> (b -> c), c; each call advances the fake clock by fixed steps."""
    mod = types.ModuleType("toy")

    def tick(dt):
        clock[0] += dt

    def c():
        tick(1.0)

    def b():
        tick(2.0)
        mod.c()
        tick(4.0)

    def a():
        tick(10.0)
        mod.b()
        mod.c()
        tick(20.0)

    mod.a, mod.b, mod.c = a, b, c
    return mod


def test_self_time_subtracts_nested_child_spans():
    clock = [0.0]
    mod = _toy_tree(clock)
    tracer = Tracer(clock=lambda: clock[0])
    assert tracer.install({"toy": mod}, ["toy.a", "toy.b", "toy.c"]) == []
    mod.a()
    stats = tracer.stats
    assert (stats["toy.a"].calls, stats["toy.a"].self_s) == (1, 30.0)
    assert (stats["toy.b"].calls, stats["toy.b"].self_s) == (1, 6.0)
    assert (stats["toy.c"].calls, stats["toy.c"].self_s) == (2, 2.0)
    assert tracer.span_total() == clock[0] == 38.0
    tracer.uninstall()
    mod.a()
    assert stats["toy.a"].calls == 1


def test_aliases_in_other_modules_are_wrapped():
    clock = [0.0]
    mod = _toy_tree(clock)
    user = types.ModuleType("user")
    user.c = mod.c  # as after "from toy import c"
    tracer = Tracer(clock=lambda: clock[0])
    tracer.install({"toy": mod, "user": user}, ["toy.c"])
    user.c()
    assert tracer.stats["toy.c"].calls == 1
    tracer.uninstall()
    assert user.c is mod.c


def test_missing_wrapped_name_is_reported_not_raised():
    clock = [0.0]
    mod = _toy_tree(clock)
    tracer = Tracer(clock=lambda: clock[0])
    missing = tracer.install({"toy": mod}, ["toy.a", "toy.gone", "toy.Cls.method", "absent.f"])
    assert missing == ["toy.gone", "toy.Cls.method", "absent.f"]
    mod.a()
    assert tracer.stats["toy.a"].calls == 1


def _k33_record():
    rec = inputs.Record("k_aa", 6, inputs.complete_bipartite(3), truth=(2, 2, None), free=True)
    rec.line = inputs.graph6(rec.n, rec.edges)
    return rec


def _k33_report(**changes):
    obj = {"index": 0, "graph6": _k33_record().line, "eligible": True, "verdict": "not_gamma2",
           "sSet": {"special": [], "classes": [], "representatives": []},
           "packingViolation": None, "uncoveredVertex": 0, "impliedGamma": None,
           "impliedGammaT": None, "gammaSetCount": None, "witnessEmbedding": None}
    obj.update(changes)
    return obj


def test_gate_accepts_true_report_and_rejects_wrong_verdict():
    rec = _k33_record()
    assert check.truth_problems([rec], {0: _k33_report()}) == []
    wrong = _k33_report(verdict="is_gamma2", impliedGamma=2, impliedGammaT=4, uncoveredVertex=None)
    assert check.truth_problems([rec], {0: wrong})
    assert check.truth_problems([rec], {0: _k33_report(eligible=False, verdict="unknown")})


def test_witness_must_be_an_induced_copy():
    adj = [set() for _ in range(7)]
    for u, v in inputs.cycle(6):
        adj[u].add(v)
        adj[v].add(u)
    assert check.witness_problem(adj, {"pattern": "c6", "mapping": [0, 1, 2, 3, 4, 5]}) is None
    assert check.witness_problem(adj, {"pattern": "h1", "mapping": [0, 1, 2, 3, 4, 5]})
    assert check.witness_problem(adj, {"pattern": "c6", "mapping": [0, 2, 1, 3, 4, 5]})


def test_compare_counts_missing_lines_as_errors_and_diffs_as_mismatches():
    ref = {0: _k33_report(), 1: _k33_report(index=1)}
    errors, mismatches = check.compare(ref, {0: _k33_report(uncoveredVertex=1)}, 2)
    assert errors == 1 and len(mismatches) == 1
    assert check.compare(ref, {**ref, 0: {**ref[0], "elapsedMicros": 5, "extra": 1}}, 2) == (0, [])


def test_exits_nonzero_without_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "many-small", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""

