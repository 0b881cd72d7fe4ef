"""Command-line interface.

One analysis verdict per input graph, line-delimited JSON under --json,
short human-readable lines otherwise. Exit codes: 0 completed, 1 usage or
parse error, 2 a verification sweep found a claim violation (which would
mean a bug, never expected on a healthy build).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from itertools import chain
from multiprocessing import Pool

from . import characterize, domination, generators, structure, sweep
from .domination import DEFAULT_ORACLE_CAP, IsolatedVertexError, OracleCapExceeded
from .forbidden import PATTERNS, Pattern, find_induced, girth, is_chordal
from .graphs import (
    Graph,
    basic_stats,
    iter_graph6_lines,
    parse_edgelist,
    parse_graph6,
    serialize_graph6,
)


class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # claim violations, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(f"{self.prog}: {message}"))


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", default=None, metavar="FILE",
                   help="input file ('-' for stdin)")
    p.add_argument("--input", default=None, metavar="FILE", help="input stream file")
    p.add_argument("--fixture", default=None, metavar="NAME",
                   help="named fixture (fig1, g1, g2, h1, h2, c<k>, p<k>, star<k>, k<k>)")
    p.add_argument("--generate", default=None, metavar="SPEC",
                   help="generator spec (corona:<fixture>, tree:<n>[:<seed>], "
                        "blockgraph:<b>:<k>[:<seed>], enum:<n>[:<filter>], or a fixture name)")
    p.add_argument("--format", default="graph6", choices=("graph6", "edgelist"),
                   help="file input format (default graph6)")
    p.add_argument("--seed", type=int, default=0, help="seed for random generator specs")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="line-delimited JSON output")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
                   help=f"exact-search size cap (default {DEFAULT_ORACLE_CAP})")


def build_parser() -> _Parser:
    parser = _Parser(prog="twindom",
                     description="Decide whether gamma_t = 2*gamma, with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the polynomial classifier")
    _add_input_args(p)
    _add_common_flags(p)
    p.add_argument("--fallback", default="none", choices=("none", "oracle"),
                   help="on ineligible graphs: report unknown (default) or use the exact oracle")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes for batch input")

    p = sub.add_parser("analyze", help="full single-graph analysis")
    _add_input_args(p)
    _add_common_flags(p)
    p.add_argument("--fallback", default="none", choices=("none", "oracle"))

    for name, kind in (("gamma", "gamma"), ("gamma-t", "gamma_total")):
        p = sub.add_parser(name, help=f"exact {kind.replace('_', ' ')} number with witness")
        _add_input_args(p)
        _add_common_flags(p)

    p = sub.add_parser("special", help="special vertices and their twin classes")
    _add_input_args(p)
    _add_common_flags(p)

    p = sub.add_parser("s-set", help="twin classes of special vertices with representatives")
    _add_input_args(p)
    _add_common_flags(p)

    p = sub.add_parser("count-gamma-sets", help="number of minimum dominating sets")
    _add_input_args(p)
    _add_common_flags(p)

    p = sub.add_parser("check-free", help="search for induced forbidden patterns")
    _add_input_args(p)
    _add_common_flags(p)
    p.add_argument("--patterns", default="c6,h1,h2",
                   help="comma list from {c3,c6,h1,h2} (default c6,h1,h2)")
    p.add_argument("--pattern-file", default=None, metavar="FILE",
                   help="extra custom pattern as an edge-list file")

    p = sub.add_parser("generate", help="emit graphs as graph6 lines")
    p.add_argument("spec", help="generator spec, as for --generate")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="verify the library's claims over a corpus")
    p.add_argument("--max-n", type=int, default=None,
                   help="enumerate all labeled graphs up to this order")
    p.add_argument("--input", default=None, metavar="FILE", help="graph6 stream to sweep instead")
    p.add_argument("--claims", default=",".join(sweep.CLAIM_NAMES),
                   help=f"comma list from {{{','.join(sweep.CLAIM_NAMES)}}}")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    return parser


# -- input handling --------------------------------------------------------


def expand_genspec(spec: str, seed: int = 0) -> list[Graph]:
    """Expand a generator spec into graphs."""
    parts = spec.strip().lower().split(":")
    head = parts[0]
    if head == "corona":
        if len(parts) != 2:
            raise CliUsageError("corona spec is corona:<fixture>")
        return [generators.corona_p2(generators.fixture(parts[1]))]
    if head == "tree":
        if len(parts) not in (2, 3):
            raise CliUsageError("tree spec is tree:<n>[:<seed>]")
        n = int(parts[1])
        s = int(parts[2]) if len(parts) == 3 else seed
        return [generators.random_tree(n, s)]
    if head == "blockgraph":
        if len(parts) not in (3, 4):
            raise CliUsageError("blockgraph spec is blockgraph:<blocks>:<max-clique>[:<seed>]")
        b, k = int(parts[1]), int(parts[2])
        s = int(parts[3]) if len(parts) == 4 else seed
        return [generators.random_block_graph(b, k, s)]
    if head == "enum":
        if len(parts) not in (2, 3):
            raise CliUsageError("enum spec is enum:<n>[:<filter>]")
        flt = parts[2] if len(parts) == 3 else "all"
        return list(generators.enumerate_small_graphs(int(parts[1]), flt))
    if len(parts) == 1:
        return [generators.fixture(head)]
    raise CliUsageError(f"unknown generator spec {spec!r}")


def _read_source(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def load_graphs(args) -> list[Graph]:
    sources = [s for s in ("path", "input", "fixture", "generate") if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliUsageError(
            "exactly one input source required: FILE, --input, --fixture, or --generate"
        )
    which = sources[0]
    if which == "fixture":
        return [generators.fixture(args.fixture)]
    if which == "generate":
        return expand_genspec(args.generate, args.seed)
    data = _read_source(args.path if which == "path" else args.input)
    if args.format == "edgelist":
        return [parse_edgelist(data)]
    graphs = list(iter_graph6_lines(data))
    if not graphs:
        raise CliUsageError("input contains no graphs")
    return graphs


# -- output helpers ---------------------------------------------------------


def _emit(objs, human_lines, as_json: bool) -> None:
    if as_json:
        for obj in objs:
            print(json.dumps(obj, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)


def _vset(g: Graph, vs) -> str:
    return "{" + ",".join(g.label(v) for v in sorted(vs)) + "}"


# -- commands ---------------------------------------------------------------

_POOL_STATE: dict = {}


def _init_classify_pool(fallback: str, cap: int) -> None:
    _POOL_STATE["fallback"] = fallback
    _POOL_STATE["cap"] = cap


def _classify_line(g6: str) -> dict:
    g = parse_graph6(g6)
    report = characterize.classify(g, _POOL_STATE["fallback"], _POOL_STATE["cap"])
    return report.to_json_dict()


def cmd_classify(args) -> int:
    graphs = load_graphs(args)
    lines = [serialize_graph6(g).decode("ascii") for g in graphs]
    if args.jobs > 1 and len(graphs) > 32:
        with Pool(args.jobs, initializer=_init_classify_pool,
                  initargs=(args.fallback, args.oracle_cap)) as pool:
            reports = list(pool.imap(_classify_line, lines, chunksize=64))
    else:
        reports = [
            characterize.classify(g, args.fallback, args.oracle_cap).to_json_dict()
            for g in graphs
        ]
    objs = [{"index": i, "graph6": g6, **rep} for i, (g6, rep) in enumerate(zip(lines, reports))]
    human = [
        f"#{o['index']} {o['graph6']} verdict={o['verdict']} method={o['method']}"
        + (f" gamma={o['impliedGamma']} gammaT={o['impliedGammaT']}"
           if o["impliedGamma"] is not None else "")
        for o in objs
    ]
    _emit(objs, human, args.json)
    return 0


def cmd_analyze(args) -> int:
    graphs = load_graphs(args)
    objs = []
    human = []
    for i, g in enumerate(graphs):
        g6 = serialize_graph6(g).decode("ascii")
        stats = basic_stats(g)
        classes = structure.special_classes(g)
        gv = girth(g)
        obj = {
            "index": i,
            "graph6": g6,
            "n": g.n,
            "minDegree": stats.min_degree,
            "maxDegree": stats.max_degree,
            "edgeCount": stats.edge_count,
            "componentCount": stats.component_count,
            "isolatedCount": stats.isolated_count,
            "girth": None if math.isinf(gv) else gv,
            "chordal": is_chordal(g),
            "special": sorted(classes.special),
            "twinClasses": [sorted(c) for c in classes.classes],
            "supportVertices": sorted(structure.support_vertices(g)),
        }
        obj["gamma"] = obj["gammaWitness"] = obj["gammaT"] = obj["gammaTWitness"] = None
        if g.n <= args.oracle_cap:
            cert_g = domination.exact_gamma(g, args.oracle_cap)
            obj["gamma"] = cert_g.value
            obj["gammaWitness"] = sorted(cert_g.witness)
            if stats.isolated_count == 0:
                cert_t = domination.exact_gamma_total(g, args.oracle_cap)
                obj["gammaT"] = cert_t.value
                obj["gammaTWitness"] = sorted(cert_t.witness)
        if stats.isolated_count == 0:
            obj["classification"] = characterize.classify(
                g, args.fallback, args.oracle_cap
            ).to_json_dict()
        else:
            obj["classification"] = None
        objs.append(obj)
        human.append(
            f"#{i} {g6} n={g.n} m={stats.edge_count} girth={obj['girth']} "
            f"chordal={obj['chordal']} special={_vset(g, classes.special)} "
            f"gamma={obj['gamma']} gammaT={obj['gammaT']} "
            f"verdict={obj['classification']['verdict'] if obj['classification'] else 'n/a'}"
        )
    _emit(objs, human, args.json)
    return 0


def cmd_gamma(args, total: bool) -> int:
    graphs = load_graphs(args)
    objs = []
    human = []
    for i, g in enumerate(graphs):
        g6 = serialize_graph6(g).decode("ascii")
        cert = (domination.exact_gamma_total if total else domination.exact_gamma)(
            g, args.oracle_cap
        )
        objs.append({
            "index": i,
            "graph6": g6,
            "kind": cert.kind,
            "value": cert.value,
            "witness": sorted(cert.witness),
        })
        human.append(f"#{i} {g6} {cert.kind}={cert.value} witness={_vset(g, cert.witness)}")
    _emit(objs, human, args.json)
    return 0


def cmd_special(args, with_representatives: bool) -> int:
    graphs = load_graphs(args)
    objs = []
    human = []
    for i, g in enumerate(graphs):
        g6 = serialize_graph6(g).decode("ascii")
        classes = structure.special_classes(g)
        obj = {
            "index": i,
            "graph6": g6,
            "special": sorted(classes.special),
            "classes": [sorted(c) for c in classes.classes],
        }
        line = f"#{i} {g6} special={_vset(g, classes.special)} classes=" + "[" + " ".join(
            _vset(g, c) for c in classes.classes) + "]"
        if with_representatives:
            obj["representatives"] = sorted(classes.representatives)
            line += f" representatives={_vset(g, classes.representatives)}"
        objs.append(obj)
        human.append(line)
    _emit(objs, human, args.json)
    return 0


def cmd_count_gamma_sets(args) -> int:
    graphs = load_graphs(args)
    objs = []
    human = []
    for i, g in enumerate(graphs):
        g6 = serialize_graph6(g).decode("ascii")
        report = None
        try:
            report = characterize.classify(g)
        except IsolatedVertexError:
            pass
        if report is not None and report.eligible and report.verdict == characterize.VERDICT_YES:
            gamma, count, method = report.implied_values[0], report.gamma_set_count, "twin_classes"
        else:
            enum = domination.enumerate_gamma_sets(g, list_cap=0, cap=args.oracle_cap)
            gamma, count, method = enum.gamma, enum.count, "enumeration"
        objs.append({"index": i, "graph6": g6, "gamma": gamma, "count": count, "method": method})
        human.append(f"#{i} {g6} gamma={gamma} gammaSets={count} ({method})")
    _emit(objs, human, args.json)
    return 0


def _parse_patterns(args) -> list[Pattern]:
    out = []
    for name in args.patterns.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in PATTERNS:
            raise CliUsageError(f"unknown pattern {name!r}; expected c3, c6, h1, h2")
        out.append(PATTERNS[name])
    if args.pattern_file:
        with open(args.pattern_file, "rb") as fh:
            out.append(Pattern("custom", parse_edgelist(fh.read())))
    if not out:
        raise CliUsageError("no patterns given")
    return out


def cmd_check_free(args) -> int:
    patterns = _parse_patterns(args)
    graphs = load_graphs(args)
    objs = []
    human = []
    for i, g in enumerate(graphs):
        g6 = serialize_graph6(g).decode("ascii")
        witness = None
        for p in patterns:
            emb = find_induced(g, p)
            if emb is not None:
                witness = {"pattern": emb.pattern, "mapping": list(emb.mapping)}
                break
        objs.append({
            "index": i,
            "graph6": g6,
            "patterns": [p.name for p in patterns],
            "free": witness is None,
            "witness": witness,
        })
        human.append(
            f"#{i} {g6} free={witness is None}"
            + (f" witness={witness['pattern']}@{witness['mapping']}" if witness else "")
        )
    _emit(objs, human, args.json)
    return 0


def cmd_generate(args) -> int:
    for g in expand_genspec(args.spec, args.seed):
        sys.stdout.write(serialize_graph6(g).decode("ascii") + "\n")
    return 0


def cmd_sweep(args) -> int:
    if (args.max_n is None) == (args.input is None):
        raise CliUsageError("sweep needs exactly one of --max-n or --input")
    claims = tuple(c.strip() for c in args.claims.split(",") if c.strip())
    for c in claims:
        if c not in sweep.CLAIM_NAMES:
            raise CliUsageError(f"unknown claim {c!r}; expected from {sweep.CLAIM_NAMES}")
    if args.max_n is not None:
        if args.max_n > generators.ENUMERATION_MAX_N:
            raise CliUsageError(
                f"--max-n is capped at {generators.ENUMERATION_MAX_N}; stream larger corpora via --input"
            )
        graphs = chain.from_iterable(
            generators.enumerate_small_graphs(n) for n in range(1, args.max_n + 1)
        )
    else:
        graphs = iter_graph6_lines(_read_source(args.input))

    started = time.perf_counter_ns()
    result = sweep.sweep_graphs(graphs, claims, jobs=args.jobs, oracle_cap=args.oracle_cap)
    elapsed = (time.perf_counter_ns() - started) // 1000

    obj = {
        "graphs": result.graphs_seen,
        "skippedIsolated": result.skipped_isolated,
        "claims": {
            name: {
                "checked": cr.checked,
                "violations": [
                    {"graph6": v.graph6, "detail": v.detail} for v in cr.violations
                ],
            }
            for name, cr in sorted(result.claims.items())
        },
        "ok": result.ok,
        "elapsedMicros": elapsed,
    }
    if args.json:
        print(json.dumps(obj, separators=(",", ":")))
    else:
        print(f"swept {result.graphs_seen} graphs ({result.skipped_isolated} skipped with isolated vertices)")
        for name, cr in sorted(result.claims.items()):
            print(f"  {name:8s} checked={cr.checked:8d} violations={len(cr.violations)}")
            for v in cr.violations[:10]:
                print(f"    VIOLATION {v.graph6}: {v.detail}")
    if not result.ok:
        print("claim violation found: this indicates an implementation bug", file=sys.stderr)
        return 2
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "gamma":
            return cmd_gamma(args, total=False)
        if args.command == "gamma-t":
            return cmd_gamma(args, total=True)
        if args.command == "special":
            return cmd_special(args, with_representatives=False)
        if args.command == "s-set":
            return cmd_special(args, with_representatives=True)
        if args.command == "count-gamma-sets":
            return cmd_count_gamma_sets(args)
        if args.command == "check-free":
            return cmd_check_free(args)
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        raise CliUsageError(f"unknown command {args.command!r}")
    except (ValueError, OracleCapExceeded, OSError) as e:
        return _fail(f"twindom {args.command}: {e}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
