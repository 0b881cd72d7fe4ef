"""End-to-end and per-layer benchmark of the twindom CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 20 --trace 0

Inputs are generated from the seed and written as graph6 before anything
is timed. With ``--trace 0`` the real CLI runs as a subprocess of this
checkout's ``src`` back to back for ``--seconds``, each run bracketed by
a host-speed calibration (speed.py), and the end-to-end metrics are
medians over those runs. With ``--trace 1`` the CLI runs in-process with
``--jobs 1`` under timing wrappers (spans.py) and the per-layer metrics
are reported. Every run's output is checked (check.py). The last stdout
line is the JSON result; the line before it holds provenance, the
known-defect probe and the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import check
import inputs
import speed
from spans import Stat, Tracer

CLI_ENTRY = "from twindom.cli import main; main()"
SETUP_REPEATS = 9


def _classify(jobs: int) -> tuple[str, ...]:
    return ("classify", "-", "--json", "--jobs", str(jobs))


# Each command reads one input file on stdin; see README.md for the why.
WORKLOADS = {
    "large-sparse": _classify(1),
    "dense-twins": _classify(1),
    "many-small": _classify(2),
    "sweep-n6": ("sweep", "--input", "-", "--jobs", "1", "--json"),
}

# The modules of src/twindom, and the functions the per-layer metrics read.
# Only these are wrapped, so a layer's self time includes its helpers.
LAYERS = ("graphs", "forbidden", "structure", "domination", "characterize", "sweep", "cli")
ORACLE = ("domination.exact_gamma", "domination.exact_gamma_total", "domination.enumerate_gamma_sets")
EMIT = ("cli._emit", "characterize.ClassificationReport.to_json_dict")
TRACED = (
    "graphs.parse_graph6", "graphs.serialize_graph6", "forbidden.is_chordal",
    "forbidden.find_induced", "structure.special_classes", "domination.is_packing",
    "domination.is_dominating", *ORACLE, "characterize.classify", "sweep.check_graph", *EMIT,
)


# -- running the CLI ------------------------------------------------------------


@dataclass
class Spawn:
    wall_s: float
    first_line_s: float
    rss_mib: float
    code: int
    stdout: bytes


class Launcher:
    """Client of launch.py, which runs and times each CLI subprocess."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, root: str, argv, stdin_path: str, work: str) -> Spawn:
        out_path = os.path.join(work, "stdout.txt")
        self.proc.stdin.write(json.dumps({
            "argv": [sys.executable, "-c", CLI_ENTRY, *argv], "cwd": root,
            "env": {"PYTHONPATH": os.path.join(root, "src")}, "stdin": stdin_path,
            "stdout": out_path, "stderr": os.path.join(work, "stderr.txt"),
        }) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(out_path, "rb") as fh:
            return Spawn(stdout=fh.read(), **reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_inprocess(argv) -> tuple[float, bytes]:
    """Run ``twindom.cli.run(argv)`` here, capturing stdout; (wall, stdout)."""
    from twindom import cli

    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="\n", write_through=True)
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            cli.run(list(argv))
        except SystemExit:
            pass
        out.flush()
    return time.perf_counter() - start, buf.getvalue()


def _last_json(out: bytes):
    for raw in reversed(out.splitlines()):
        with contextlib.suppress(ValueError):
            return json.loads(raw)
    return None


# -- one workload ---------------------------------------------------------------


class Run:
    """Inputs, reference output and checks of one workload at one seed.

    The input is one or more batch files; one CLI run reads one batch. A
    classify workload has a single batch. The sweep corpus is dealt into
    chunks so that a run takes about a second, like the others.
    """

    def __init__(self, launcher: Launcher, root: str, work: str, name: str, seed: int):
        self.launcher, self.root, self.work = launcher, root, work
        self.argv = WORKLOADS[name]
        self.sweep = name == "sweep-n6"
        self.problems: list[str] = []
        if self.sweep:
            self.records = []
            chunks = inputs.sweep_chunks(seed)
        else:
            self.records = inputs.build(name, seed)
            chunks = [[r.line for r in self.records]]
        self.batches = [self._write(f"batch{k}.g6", c) for k, c in enumerate(chunks)]
        self.sizes = [len(c) for c in chunks]
        self.setup_path = self._write("setup.g6", [inputs.one_record_line()])
        self.ref_bytes = b""
        self.ref: dict[int, dict] = {}
        # sweep: first summary seen per batch, and the counts of the pass in
        # progress (None once a batch of it failed)
        self.first_summary: dict[int, bytes] = {}
        self.pass_totals: dict | None = {}

    def _write(self, name: str, lines) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(line + "\n" for line in lines)
        return path

    @property
    def graphs(self) -> int:
        """Isolate-free graphs in one pass over the batches."""
        if self.sweep:
            return check.SWEEP_N6["graphs"] - check.SWEEP_N6["skippedIsolated"]
        return len(self.records)

    def argv_for(self, batch: int) -> list[str]:
        """The in-process argv: reads the batch file, at ``--jobs 1``."""
        argv = [self.batches[batch] if a == "-" else a for a in self.argv]
        argv[argv.index("--jobs") + 1] = "1"
        return argv

    def inprocess_pass(self) -> tuple[float, list[bytes]]:
        outs, wall = [], 0.0
        for b in range(len(self.batches)):
            w, out = run_inprocess(self.argv_for(b))
            wall += w
            outs.append(out)
        return wall, outs

    def reference(self) -> float:
        """Untraced in-process pass at --jobs 1, checked against the truths."""
        wall, outs = self.inprocess_pass()
        if self.sweep:
            for b, out in enumerate(outs):
                self.judge(b, out)
        else:
            self.ref_bytes, self.ref = outs[0], check.parse_lines(outs[0])
            self.problems += check.truth_problems(self.records, self.ref)
        return wall

    def judge(self, batch: int, out: bytes) -> int:
        """Check one run's stdout; returns the records that got no result."""
        if self.sweep:
            return self._judge_sweep(batch, out)
        errors, mismatches = check.compare(self.ref, check.parse_lines(out), self.sizes[0])
        self.problems += mismatches
        # determinism: byte-identical to the --jobs 1 reference but for timings
        if not errors and not mismatches and (
                check.without_elapsed(out) != check.without_elapsed(self.ref_bytes)):
            self.problems.append("output bytes differ from the --jobs 1 reference")
        return errors

    def _judge_sweep(self, batch: int, out: bytes) -> int:
        if batch == 0:
            self.pass_totals = {}
        summary = _last_json(out)
        if not isinstance(summary, dict) or summary.get("graphs") != self.sizes[batch]:
            self.pass_totals = None  # the pass totals cannot be checked
            return self.sizes[batch]
        if summary.get("ok") is not True:
            self.problems.append(f"sweep batch {batch}: ok is not true")
        same = check.without_elapsed(out.strip())
        if self.first_summary.setdefault(batch, same) != same:
            self.problems.append(f"sweep batch {batch}: summary differs from its first run")
        if self.pass_totals is not None:
            check.add_sweep(self.pass_totals, summary)
            if batch == len(self.batches) - 1:
                self.problems += check.sweep_problems(self.pass_totals)
        return 0

    def spawn(self, argv, stdin_path: str) -> Spawn:
        return self.launcher.spawn(self.root, argv, stdin_path, self.work)

    def setup_seconds(self) -> list[float]:
        """Calibrated wall times of the command on a one-record input."""
        self.spawn(self.argv, self.setup_path)  # warm the file cache
        samples = speed.paced(lambda: self.spawn(self.argv, self.setup_path),
                              lambda k: k >= SETUP_REPEATS)
        for s, _ in samples:
            if s.code != 0 or not s.stdout.strip():
                self.problems.append(f"set-up run exited {s.code} with {len(s.stdout)} bytes")
        return [s.wall_s * f for s, f in samples]

    def probe(self) -> dict:
        """Known defect: a batch with one isolated-vertex graph. Not timed."""
        s = self.spawn(_classify(1), self._write("probe.g6", inputs.isolated_batch()))
        return {"records": 3, "lines_out": len(s.stdout.splitlines()), "exit_code": s.code}


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: CLI subprocess runs over the batches in turn,
    until ``seconds`` have passed and every batch has run once."""
    if not run.sweep:
        run.reference()
    probe = run.probe()
    setup = run.setup_seconds()
    order = itertools.count()
    deadline = time.perf_counter() + seconds

    def sample():
        b = next(order) % len(run.batches)
        return b, run.spawn(run.argv, run.batches[b])

    samples = speed.paced(sample, lambda k: k >= len(run.batches) and time.perf_counter() >= deadline)
    rates, firsts, attempted, failed = [], [], 0, 0
    for (b, s), factor in samples:
        errors = run.judge(b, s.stdout)
        attempted += run.sizes[b]
        failed += errors
        rates.append((run.sizes[b] - errors) / (s.wall_s * factor))
        firsts.append(s.first_line_s * factor)
    spawns = [s for (_, s), _ in samples]
    metrics = {
        "graphs_per_s": (statistics.median(rates), "graphs/s"),
        "first_record_s": (statistics.median(firsts), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(s.rss_mib for s in spawns), "MiB"),
        "completed_frac": ((attempted - failed) / attempted, "ratio"),
    }
    details = {"probe.isolated_batch": probe, "runs": len(spawns),
               "exit_codes": sorted({s.code for s in spawns}),
               "wall_s": [s.wall_s for s in spawns], "speed": [f for _, f in samples],
               "setup_s": setup}
    return metrics, {"attempted": attempted, "failed": failed, "details": details}


# -- traced run -----------------------------------------------------------------


def _layer_modules() -> dict:
    mods = {}
    for layer in LAYERS:
        with contextlib.suppress(ImportError):
            mods[layer] = importlib.import_module(f"twindom.{layer}")
    return mods


def _pattern_name(args, kwargs) -> str:
    return getattr(args[1] if len(args) > 1 else kwargs.get("pattern"), "name", "?")


def traced_pass(run: Run) -> tuple[float, Tracer, list[bytes]]:
    tracer = Tracer(
        split={"forbidden.find_induced": _pattern_name},
        outcome={"forbidden.find_induced": lambda r: r is not None,
                 "characterize.classify": lambda r: getattr(r, "method", None)},
    )
    tracer.install(_layer_modules(), TRACED)
    try:
        wall, outs = run.inprocess_pass()
    finally:
        tracer.uninstall()
    return wall, tracer, outs


def layer_metrics(tr: Tracer, graphs: int, unattributed_s: float) -> dict:
    def st(k):
        return tr.stats.get(k, Stat())

    def self_s(*keys):
        return sum(st(k).self_s for k in keys)

    def per_graph(*keys):
        return sum(st(k).calls for k in keys) / graphs

    fi, cl = st("forbidden.find_induced"), st("characterize.classify")
    return {
        "graphs.parse_graph6.s": (self_s("graphs.parse_graph6"), "s"),
        "graphs.serialize_graph6.s": (self_s("graphs.serialize_graph6"), "s"),
        "forbidden.is_chordal.s": (self_s("forbidden.is_chordal"), "s"),
        "forbidden.is_chordal.calls_per_graph": (per_graph("forbidden.is_chordal"), "calls/graph"),
        **{f"forbidden.find_induced.{p}.s": (tr.parts.get(f"forbidden.find_induced.{p}", Stat()).self_s, "s")
           for p in ("c6", "h1", "h2")},
        "forbidden.find_induced.calls_per_graph": (per_graph("forbidden.find_induced"), "calls/graph"),
        "forbidden.find_induced.hit_frac": (fi.outcomes[True] / fi.calls if fi.calls else 0.0, "ratio"),
        "structure.special_classes.s": (self_s("structure.special_classes"), "s"),
        "structure.special_classes.calls_per_graph": (per_graph("structure.special_classes"), "calls/graph"),
        "domination.packdom.s": (self_s("domination.is_packing", "domination.is_dominating"), "s"),
        "domination.oracle.s": (self_s(*ORACLE), "s"),
        "domination.oracle.calls_per_graph": (per_graph(*ORACLE), "calls/graph"),
        "characterize.classify.s": (self_s("characterize.classify"), "s"),
        "characterize.chordal_path_frac": (
            cl.outcomes["chordal_fast_path"] / cl.calls if cl.calls else 0.0, "ratio"),
        "sweep.check_graph.s": (self_s("sweep.check_graph"), "s"),
        "cli.emit.s": (self_s(*EMIT), "s"),
        "cli.unattributed_s": (unattributed_s, "s"),
    }


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: traced and untraced in-process passes in turn
    until ``seconds`` have passed, so that drift in host speed hits both
    sides of trace.overhead_frac alike."""
    untraced = [run.reference()]
    probe = run.probe()
    startup = statistics.median(run.setup_seconds())
    start = time.perf_counter()
    traced, passes, attempted, failed = [], [], 0, 0
    while True:
        wall, tracer, outs = traced_pass(run)
        for b, out in enumerate(outs):
            failed += run.judge(b, out)
        attempted += sum(run.sizes)
        traced.append(wall)
        passes.append(layer_metrics(tracer, run.graphs, startup * len(outs) + wall - tracer.span_total()))
        if time.perf_counter() - start >= seconds:
            break
        wall, outs = run.inprocess_pass()
        for b, out in enumerate(outs):
            run.judge(b, out)
        untraced.append(wall)
    metrics = {k: (statistics.median(p[k][0] for p in passes), unit) for k, (_, unit) in passes[0].items()}
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    details = {"probe.isolated_batch": probe, "passes": len(traced), "missing": tracer.missing,
               "startup_s": startup, "untraced_inprocess_s": untraced, "traced_inprocess_s": traced,
               "last_pass": {k: {"calls": v.calls, "self_s": v.self_s}
                             for k, v in sorted({**tracer.stats, **tracer.parts}.items())}}
    return metrics, {"attempted": attempted, "failed": failed, "details": details}


# -- entry point ----------------------------------------------------------------


def provenance(root: str, seed: int) -> dict:
    commit = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
    return {"seed": seed, "commit": commit, "python": sys.version.split()[0],
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twindom", "cli.py")):
        print("perfbench: run from the root of a twindom checkout (no src/twindom/cli.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    base = os.path.join(root, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    launcher = Launcher()  # before this process grows; see launch.py
    try:
        run = Run(launcher, root, work, args.workload, args.seed)
        metrics, info = (measure_traced if args.trace else measure)(run, args.seconds)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    info["details"].update(workload=args.workload, provenance=provenance(root, args.seed),
                           problems=run.problems[:20], problem_count=len(run.problems))
    print(json.dumps(info["details"]))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
