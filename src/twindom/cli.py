"""Command-line interface.

One analysis record per input graph, written in input order as soon as it
is computed: line-delimited JSON under --json, short human-readable lines
otherwise. Exit codes: 0 completed, 1 usage or parse error (the records
before the failing one are already written), 2 a verification sweep found
a claim violation (which would mean a bug, never expected on a healthy build).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import stat
import sys
from contextlib import nullcontext
from functools import partial
from itertools import chain
from typing import Iterable, Iterator

from . import characterize
from .domination import DEFAULT_ORACLE_CAP, OracleCapExceeded
from .forbidden import ELIGIBILITY_PATTERNS, PATTERNS
from .graphs import Graph, as_graph, ordered_map, serialize_graph6


# one encoder for every record: json.dumps builds a new one per call
_JSON = json.JSONEncoder(separators=(",", ":"))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # claim violations, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(f"{self.prog}: {message}"))

    # argparse hands a subcommand's unknown options up for the top-level
    # parser to report, under its own usage; each command refuses its own
    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


def build_parser(command: str | None = None) -> _Parser:
    """The parser of ``command`` alone, or of all ten for -h, no command or an unknown one."""
    parser = _Parser(prog="twindom",
                     description="Decide whether gamma_t = 2*gamma, with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
    return parser


# -- input handling --------------------------------------------------------


def _open_source(path: str):
    # stdin is left open: it is not ours to close
    return nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _is_live(f) -> bool:
    """Is ``f`` a pipe or a terminal, not a file read at its own pace?"""
    try:
        return f.isatty() or stat.S_ISFIFO(os.fstat(f.fileno()).st_mode)
    except (OSError, ValueError):  # no descriptor, or a closed one
        return False


def _graph6_lines(path: str) -> Iterator[tuple[int, str]]:
    """The (line number, stripped line) pairs of the nonblank lines, read
    one ``\\n``-terminated chunk at a time. Each chunk is split again by
    ``str.splitlines``, so ``\\r``, ``\\x0c`` and the other breaks it knows
    number the lines as a split of the whole input would; ``\\r\\n`` never
    straddles two chunks. A non-ASCII byte survives decoding, so parsing
    its line reports it. A stream with no nonblank line is an error."""
    if path == "-" and _is_live(sys.stdin):
        # its writer may wait for each record, so none waits in a block
        sys.stdout.reconfigure(line_buffering=True)
    lineno, found = 0, False
    with _open_source(path) as fh:
        for chunk in fh:
            text = chunk.decode("ascii", "surrogateescape")
            del chunk  # each copy of a long line goes once the next is made: two at most
            lines = text.splitlines()
            del text
            for raw in lines:
                lineno += 1
                if line := raw.strip():
                    found = True
                    yield lineno, line
            lines = raw = line = None  # not kept while the next chunk is read
    if not found:
        raise ValueError("input contains no graphs")


def _records(args) -> Iterable:
    """The input graphs, in order, as items for :func:`graphs.as_graph`."""
    sources = [s for s in ("path", "input", "fixture", "generate", "max_n")
               if getattr(args, s, None) not in (None, "")]
    if len(sources) != 1:
        also = ", --generate, or --max-n" if hasattr(args, "max_n") else ", or --generate"
        raise ValueError(f"exactly one input source required: FILE, --input, --fixture{also}")
    which = sources[0]
    if which in ("fixture", "generate", "max_n"):
        from . import generators  # imported only by the commands that build graphs
        if which == "fixture":
            return [generators.fixture(args.fixture)]
        if which == "generate":
            return generators.expand(args.generate)
        if args.max_n < 1:
            raise ValueError("--max-n must be at least 1")
        # built eagerly, so an order over the enumeration cap fails here
        return chain.from_iterable([generators.enumerate_small_graphs(n) for n in range(1, args.max_n + 1)])
    path = args.path if which == "path" else args.input
    if args.format == "edgelist":
        from .edgelist import parse_edgelist
        with _open_source(path) as fh:
            return [parse_edgelist(fh.read())]
    return _graph6_lines(path)


# -- classify, as every per-graph command: (graph, args) -> (JSON fields, tail) --


def _classify(g: Graph, args) -> tuple[dict, str]:
    o = characterize.classify(g, args.fallback, args.oracle_cap).to_json_dict()
    tail = f"verdict={o['verdict']} method={o['method']}"
    if o["impliedGamma"] is not None:
        tail += f" gamma={o['impliedGamma']} gammaT={o['impliedGammaT']}"
    return o, tail


# -- the per-graph driver -----------------------------------------------------


def _record(fn, args, numbered) -> str:
    """The output line of one input graph, from its (index, item) pair."""
    index, item = numbered
    fields, tail = fn(g := as_graph(item), args)
    g6 = serialize_graph6(g).decode("ascii") if g is item else item[1]
    return _emit({"index": index, "graph6": g6, **fields}, tail, args.json)


def _emit(obj: dict, tail: str, as_json: bool) -> str:
    if as_json:
        return _JSON.encode(obj) + "\n"
    return f"#{obj['index']} {obj['graph6']} {tail}\n"


def _drive(fn, args) -> int:
    """Run ``fn`` on every input graph and write its records in input order.
    Each record is rendered where it is computed: in a :mod:`fanout` worker
    for the graphs past the first ``graphs.CHUNK`` under ``--jobs`` N, else here."""
    numbered = enumerate(_records(args))
    sys.stdout.writelines(ordered_map(partial(_record, fn, args), numbered, getattr(args, "jobs", 1)))
    return 0


# the source and output arguments of every command that reads graphs
_GRAPH_ARGS = (
    ("path", dict(nargs="?", default=None, metavar="FILE", help="input file ('-' for stdin)")),
    ("--input", dict(default=None, metavar="FILE", help="input stream file")),
    ("--fixture", dict(default=None, metavar="NAME",
                       help="named fixture (fig1, g1, g2, h1, h2, c<k>, p<k>, star<k>, k<k>)")),
    ("--generate", dict(default=None, metavar="SPEC",
                        help="generator spec (corona:<fixture>, tree:<n>[:<seed>], "
                             "blockgraph:<b>:<k>[:<seed>], enum:<n>[:<filter>], or a fixture name)")),
    ("--format", dict(default="graph6", choices=("graph6", "edgelist"),
                      help="file input format (default graph6)")),
    ("--json", dict(action="store_true", help="line-delimited JSON output")),
)
_ORACLE_CAP = ("--oracle-cap", dict(type=int, default=DEFAULT_ORACLE_CAP,
                                    help=f"exact-search size cap (default {DEFAULT_ORACLE_CAP})"))
_FALLBACK = ("--fallback", dict(
    default="none", choices=characterize.FALLBACKS,
    help="on ineligible graphs: report unknown (default) or use the exact oracle"))
_JOBS = ("--jobs", dict(type=int, default=os.cpu_count() or 1, help="worker processes for batch input"))


def _later(pick):
    """The runner ``pick(commands)`` names: :mod:`commands` is imported when
    that runner runs, so a ``classify`` run never compiles it."""
    def runner(args):
        from . import commands
        return pick(commands)(args)
    return runner


# name -> (runner, help, every argument the command takes); a per-graph
# command's runner drives its function over the input graphs
COMMANDS = {
    "classify": (partial(_drive, _classify), "run the polynomial classifier",
                 (*_GRAPH_ARGS, _ORACLE_CAP, _FALLBACK, _JOBS)),
    "analyze": (_later(lambda c: partial(_drive, c._analyze)), "full single-graph analysis",
                (*_GRAPH_ARGS, _ORACLE_CAP)),
    "gamma": (_later(lambda c: partial(_drive, partial(c._gamma, total=False))), "exact gamma number with witness",
              (*_GRAPH_ARGS, _ORACLE_CAP)),
    "gamma-t": (_later(lambda c: partial(_drive, partial(c._gamma, total=True))),
                "exact gamma total number with witness", (*_GRAPH_ARGS, _ORACLE_CAP)),
    "special": (_later(lambda c: partial(_drive, partial(c._special, with_representatives=False))),
                "special vertices and their twin classes", _GRAPH_ARGS),
    "s-set": (_later(lambda c: partial(_drive, partial(c._special, with_representatives=True))),
              "twin classes of special vertices with representatives", _GRAPH_ARGS),
    "count-gamma-sets": (_later(lambda c: partial(_drive, c._count_gamma_sets)), "number of minimum dominating sets",
                         (*_GRAPH_ARGS, _ORACLE_CAP)),
    "check-free": (_later(lambda c: c._drive_check_free), "search for induced forbidden patterns", (
        *_GRAPH_ARGS,
        ("--patterns", dict(default=",".join(p.name for p in ELIGIBILITY_PATTERNS),
                            help=f"comma list from {{{','.join(PATTERNS)}}} (default %(default)s)")),
        ("--pattern-file", dict(default=None, metavar="FILE",
                                help="extra custom pattern as an edge-list file")))),
    "generate": (_later(lambda c: c.cmd_generate), "emit graphs as graph6 lines",
                 (("spec", dict(help="generator spec, as for --generate")),)),
    "sweep": (_later(lambda c: c.cmd_sweep), "verify the library's claims over a corpus", (
        *_GRAPH_ARGS, _ORACLE_CAP,
        ("--max-n", dict(type=int, metavar="N", help="all labeled graphs of order 1 to N")),
        ("--claims", dict(default=None, help="comma list of claims to check (default: all)")),
        _JOBS)),
}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except (ValueError, OracleCapExceeded, OSError) as e:
        return _fail(f"twindom {args.command}: {e}")


def main() -> None:
    # exit quietly, as other filters do, when the reader closes the pipe
    if hasattr(signal, "SIGPIPE"):  # Windows has none
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # The interpreter's exit runs full collections over every tracked
    # object, and the ~12,000 that start-up and the imports leave live to
    # the end: freezing them takes about 4 ms off a 43 ms run (2 cores,
    # Python 3.11). Done before run(), so argparse's exits are covered and
    # forked workers inherit the frozen objects; run() leaves the caller's
    # collector as it is.
    gc.freeze()
    sys.exit(run())
