"""The runners of every command but ``classify``, named in :data:`cli.COMMANDS`
and imported when one of them runs, so a ``classify`` run never compiles
them. A per-graph command's function maps (graph, args) to (JSON fields,
human-readable tail), as ``cli._classify`` does, and ``cli._drive`` runs it."""

from __future__ import annotations

import math
import sys
import time
from functools import partial

from . import characterize, domination, structure
from .cli import _JSON, _drive, _records
from .forbidden import PATTERNS, Pattern, girth, is_chordal, is_free
from .graphs import Graph, component_masks, serialize_graph6


def _vset(g: Graph, vs) -> str:
    return "{" + ",".join(g.label(v) for v in sorted(vs)) + "}"


def _analyze(g: Graph, args) -> tuple[dict, str]:
    degrees = [a.bit_count() for a in g.adj]
    isolated = degrees.count(0)
    gv = girth(g)
    # classify refuses graphs with an isolated vertex, and takes its chordal
    # path on every chordal graph, which is eligible
    report = None if isolated else characterize.classify(g)
    chordal = report.method == characterize.METHOD_CHORDAL if report else is_chordal(g)
    classes = report.s_set if report else structure.special_classes(g)
    obj = {
        "n": g.n,
        "minDegree": min(degrees, default=0),
        "maxDegree": max(degrees, default=0),
        "edgeCount": sum(degrees) // 2,
        "componentCount": len(component_masks(g)),
        "isolatedCount": isolated,
        "girth": None if math.isinf(gv) else gv,
        "chordal": chordal,
        "special": sorted(classes.special),
        "twinClasses": [sorted(c) for c in classes.classes],
        "supportVertices": sorted(structure.support_vertices(g)),
    }
    obj["gamma"] = obj["gammaWitness"] = obj["gammaT"] = obj["gammaTWitness"] = None
    if g.n <= args.oracle_cap:
        cert_g = domination.exact_gamma(g, args.oracle_cap)
        obj["gamma"] = cert_g.value
        obj["gammaWitness"] = sorted(cert_g.witness)
        if not isolated:
            cert_t = domination.exact_gamma_total(g, args.oracle_cap)
            obj["gammaT"] = cert_t.value
            obj["gammaTWitness"] = sorted(cert_t.witness)
    obj["classification"] = report.to_json_dict() if report else None
    return obj, (
        f"n={g.n} m={obj['edgeCount']} girth={obj['girth']} "
        f"chordal={obj['chordal']} special={_vset(g, classes.special)} "
        f"gamma={obj['gamma']} gammaT={obj['gammaT']} "
        f"verdict={obj['classification']['verdict'] if report else 'n/a'}"
    )


def _gamma(g: Graph, args, total: bool) -> tuple[dict, str]:
    exact = domination.exact_gamma_total if total else domination.exact_gamma
    cert = exact(g, args.oracle_cap)
    obj = {"kind": cert.kind, "value": cert.value, "witness": sorted(cert.witness)}
    return obj, f"{cert.kind}={cert.value} witness={_vset(g, cert.witness)}"


def _special(g: Graph, args, with_representatives: bool) -> tuple[dict, str]:
    classes = structure.special_classes(g)
    obj = classes.to_json_dict()
    tail = f"special={_vset(g, classes.special)} classes=" + "[" + " ".join(
        _vset(g, c) for c in classes.classes) + "]"
    if with_representatives:
        tail += f" representatives={_vset(g, classes.representatives)}"
    else:
        del obj["representatives"]
    return obj, tail


def _count_gamma_sets(g: Graph, args) -> tuple[dict, str]:
    # classify refuses graphs with an isolated vertex
    report = characterize.classify(g) if all(g.adj) else None
    if report is not None and report.verdict == characterize.VERDICT_YES:
        gamma, count, method = report.implied_values[0], report.gamma_set_count, "twin_classes"
    else:
        enum = domination.enumerate_gamma_sets(g, list_cap=0, cap=args.oracle_cap)
        gamma, count, method = enum.gamma, enum.count, "enumeration"
    obj = {"gamma": gamma, "count": count, "method": method}
    return obj, f"gamma={gamma} gammaSets={count} ({method})"


def _drive_check_free(args) -> int:
    """Parse the pattern options, then drive :func:`_check_free` with them."""
    names = [name.strip() for name in args.patterns.split(",") if name.strip()]
    for name in names:
        if name not in PATTERNS:
            raise ValueError(f"unknown pattern {name!r}; expected {', '.join(PATTERNS)}")
    out = [PATTERNS[name] for name in names]
    if args.pattern_file:
        from .edgelist import parse_edgelist
        with open(args.pattern_file, "rb") as fh:
            out.append(Pattern("custom", parse_edgelist(fh.read())))
    if not out:
        raise ValueError("no patterns given")
    return _drive(partial(_check_free, patterns=tuple(out)), args)


def _check_free(g: Graph, args, patterns: tuple[Pattern, ...]) -> tuple[dict, str]:
    emb = is_free(g, patterns)[1]
    witness = emb.to_json_dict() if emb else None
    obj = {"patterns": [p.name for p in patterns], "free": witness is None,
           "witness": witness}
    return obj, f"free={witness is None}" + (
        f" witness={witness['pattern']}@{witness['mapping']}" if witness else "")


def cmd_generate(args) -> int:
    from . import generators
    for g in generators.expand(args.spec):
        sys.stdout.write(serialize_graph6(g).decode("ascii") + "\n")
    return 0


def cmd_sweep(args) -> int:
    from . import sweep  # the claim checks: no per-graph command compiles them
    claims = sweep.CLAIM_NAMES if args.claims is None else tuple(
        c.strip() for c in args.claims.split(",") if c.strip())
    started = time.perf_counter_ns()
    obj = sweep.sweep_graphs(_records(args), claims, jobs=args.jobs, oracle_cap=args.oracle_cap)
    obj["elapsedMicros"] = (time.perf_counter_ns() - started) // 1000
    if args.json:
        print(_JSON.encode(obj))
    else:
        print(f"swept {obj['graphs']} graphs ({obj['skippedIsolated']} skipped with isolated vertices)")
        for name, c in obj["claims"].items():
            print(f"  {name:8s} checked={c['checked']:8d} violations={len(c['violations'])}")
            for v in c["violations"][:10]:
                print(f"    VIOLATION {v['graph6']}: {v['detail']}")
    if not obj["ok"]:
        print("claim violation found: this indicates an implementation bug", file=sys.stderr)
        return 2
    return 0
