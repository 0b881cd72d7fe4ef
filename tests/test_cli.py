from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pickle
import random
import re
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

import twindom
from twindom import characterize, cli, commands, domination, fanout, forbidden, generators, graphs, structure, sweep
from twindom.cli import run
from twindom.generators import cycle, enumerate_small_graphs, fixture
from twindom.edgelist import parse_edgelist
from twindom.graphs import Graph, parse_graph6, serialize_graph6

from conftest import SPARSE_GAMMA9_G6, SWEEP_N6_CHECKED, blow_up, brute_find_induced, is_gamma2_exact


def g6(g) -> str:
    return serialize_graph6(g).decode("ascii")


# the only field of a record or summary that differs between two runs
ELAPSED = re.compile(r'"elapsedMicros":\d+')


def run_json(capsys, argv) -> list[dict]:
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return [json.loads(line) for line in out.splitlines() if line]


class TestClassifyCommand:
    def test_g1_with_oracle_fallback(self, capsys):
        (obj,) = run_json(capsys, ["classify", "--fixture", "g1", "--fallback", "oracle", "--json"])
        assert obj["verdict"] == "is_gamma2"
        assert obj["method"] == "exact_oracle"
        assert obj["impliedGamma"] == 2
        assert obj["impliedGammaT"] == 4

    def test_default_is_polynomial_only(self, capsys):
        (obj,) = run_json(capsys, ["classify", "--fixture", "c6", "--json"])
        assert obj["verdict"] == "unknown"
        assert obj["eligible"] is False
        assert obj["witnessEmbedding"]["pattern"] == "c6"

    def test_human_output_mentions_verdict(self, capsys):
        assert run(["classify", "--fixture", "star3"]) == 0
        out = capsys.readouterr().out
        assert "is_gamma2" in out and "chordal_fast_path" in out

    def test_batch_preserves_input_order(self, tmp_path, capsys):
        graphs = [fixture("c6"), fixture("p4"), fixture("star3"), fixture("k4")]
        lines = [g6(g) for g in graphs]
        f = tmp_path / "batch.g6"
        f.write_text("\n".join(lines) + "\n")
        objs = run_json(capsys, ["classify", str(f), "--json"])
        assert [o["graph6"] for o in objs] == lines
        assert [o["index"] for o in objs] == [0, 1, 2, 3]

    def test_byte_identical_output_modulo_timing(self, tmp_path, capsys):
        f = tmp_path / "in.g6"
        f.write_text("\n".join(g6(g) for g in enumerate_small_graphs(4, "isolate_free")) + "\n")
        argv = ["classify", str(f), "--json", "--fallback", "oracle"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        scrub = lambda s: re.sub(r'"elapsedMicros":\d+', '"elapsedMicros":0', s)
        assert scrub(first) == scrub(second)

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"A_\n"), encoding="ascii"))
        (obj,) = run_json(capsys, ["classify", "-", "--json"])
        assert obj["verdict"] == "is_gamma2"

    def test_edgelist_format(self, tmp_path, capsys):
        f = tmp_path / "g.edges"
        f.write_text("0 1\n1 2\n")
        (obj,) = run_json(capsys, ["classify", str(f), "--format", "edgelist", "--json"])
        assert obj["verdict"] == "is_gamma2"
        assert obj["impliedGamma"] == 1


class TestAnalysisCommands:
    def test_gamma_and_witness(self, capsys):
        (obj,) = run_json(capsys, ["gamma", "--fixture", "g2", "--json"])
        assert obj["value"] == 3
        assert len(obj["witness"]) == 3

    def test_gamma_t(self, capsys):
        (obj,) = run_json(capsys, ["gamma-t", "--fixture", "g2", "--json"])
        assert obj["value"] == 6

    def test_gamma_t_isolated_rejected(self, tmp_path, capsys):
        f = tmp_path / "iso.edges"
        f.write_text("n 2\n")
        assert run(["gamma-t", str(f), "--format", "edgelist"]) == 1
        assert "isolated" in capsys.readouterr().err

    def test_special_human_uses_labels(self, capsys):
        assert run(["special", "--fixture", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "{v1,v2}" in out

    def test_s_set_representatives(self, capsys):
        (obj,) = run_json(capsys, ["s-set", "--fixture", "fig1", "--json"])
        assert obj["special"] == [0, 1]
        assert obj["classes"] == [[0, 1]]
        assert obj["representatives"] == [0]

    def test_count_gamma_sets_formula_path(self, capsys):
        (obj,) = run_json(capsys, ["count-gamma-sets", "--fixture", "k4", "--json"])
        assert obj == {"index": 0, "graph6": g6(fixture("k4")), "gamma": 1,
                       "count": 4, "method": "twin_classes"}

    def test_count_gamma_sets_enumeration_path(self, capsys):
        (obj,) = run_json(capsys, ["count-gamma-sets", "--fixture", "c6", "--json"])
        assert obj["count"] == 3 and obj["method"] == "enumeration"

    def test_count_gamma_sets_enumeration_near_the_oracle_cap(self, capsys, tmp_path):
        # scanning all C(32, 9) subsets of size gamma took over 15 s
        f = write_g6(tmp_path, [SPARSE_GAMMA9_G6])
        started = time.monotonic()
        (obj,) = run_json(capsys, ["count-gamma-sets", str(f), "--json"])
        assert time.monotonic() - started < 5
        assert (obj["gamma"], obj["count"], obj["method"]) == (9, 10, "enumeration")

    def test_check_free_g2(self, capsys):
        (obj,) = run_json(
            capsys, ["check-free", "--patterns", "h1,h2,c6", "--fixture", "g2", "--json"]
        )
        assert obj["free"] is False
        assert obj["witness"]["pattern"] == "h2"

    def test_check_free_tree(self, capsys):
        (obj,) = run_json(capsys, ["check-free", "--fixture", "p6", "--json"])
        assert obj["free"] is True and obj["witness"] is None

    def test_check_free_custom_pattern(self, tmp_path, capsys):
        p = tmp_path / "pat.edges"
        p.write_text("0 1\n1 2\n")  # induced path on three vertices
        (obj,) = run_json(
            capsys,
            ["check-free", "--fixture", "c6", "--patterns", "", "--pattern-file", str(p), "--json"],
        )
        assert obj["free"] is False and obj["witness"]["pattern"] == "custom"

    def test_check_free_pattern_larger_than_the_host_compiles_no_plan(self, tmp_path, capsys):
        # a plan holds k(k-1)/2 slots, about 18 M here, and a 6-vertex host needs none
        p = tmp_path / "pat.edges"
        p.write_text("n 6000\n0 1\n")
        tracemalloc.start()
        try:
            (obj,) = run_json(capsys, ["check-free", "--fixture", "c6", "--patterns", "",
                                       "--pattern-file", str(p), "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obj["free"] is True
        assert peak < 16 << 20, peak

    def test_check_free_c3_keeps_the_least_triangle(self, tmp_path, capsys):
        # K5 is all true twins: collapsing them would leave no triangle
        f = write_g6(tmp_path, [g6(generators.complete(5))])
        (obj,) = run_json(capsys, ["check-free", str(f), "--patterns", "c3", "--json"])
        assert obj["witness"] == {"pattern": "c3", "mapping": [0, 1, 2]}

    @pytest.mark.parametrize("host", [cycle(8), generators.corona_p2(cycle(8))], ids=["c8", "corona-c8"])
    def test_check_free_custom_pattern_larger_than_c6(self, tmp_path, capsys, host):
        # c6's reduced host drops the 8-cycle as too long a thread; the
        # 8-cycle pattern must get a host reduced for its own order
        p = tmp_path / "pat.edges"
        p.write_text("".join(f"{i} {(i + 1) % 8}\n" for i in range(8)))
        f = write_g6(tmp_path, [g6(host)])
        (obj,) = run_json(capsys, ["check-free", str(f), "--patterns", "c6", "--pattern-file", str(p), "--json"])
        assert obj["witness"] == {"pattern": "custom", "mapping": list(range(8))}

    @pytest.mark.parametrize("edges,host", [
        # the paw has a leaf, so peeling below degree 2 would lose its copies
        ("0 1\n1 2\n2 0\n2 3\n", Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])),
        # C4 has false twins, so collapsing the host's twins would lose its copies
        ("0 1\n1 2\n2 3\n3 0\n", blow_up(Graph(2, [(0, 1)]), [3, 3], [False, False], range(6))),
        ("0 1\n1 2\n2 3\n3 0\n", blow_up(Graph(2, [(0, 1)]), [3, 3], [False, False],
                                            [4, 0, 3, 2, 5, 1])),
        ("0 1\n1 2\n2 3\n3 0\n", blow_up(Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]),
                                            [2, 1, 1, 1, 2, 1], [True, False, False, False, False, True],
                                            range(8))),
    ], ids=["paw", "c4-in-k33", "c4-in-relabeled-k33", "c4-in-k33-blow-up"])
    def test_check_free_custom_pattern_gives_the_least_witness(self, tmp_path, capsys, edges, host):
        p = tmp_path / "pat.edges"
        p.write_text(edges)
        f = write_g6(tmp_path, [g6(host)])
        (obj,) = run_json(capsys, ["check-free", str(f), "--patterns", "", "--pattern-file", str(p), "--json"])
        expect = brute_find_induced(host, parse_edgelist(edges.encode()))
        assert expect is not None
        assert obj["witness"] == {"pattern": "custom", "mapping": list(expect)}

    def test_analyze_fig1(self, capsys):
        (obj,) = run_json(capsys, ["analyze", "--fixture", "fig1", "--json"])
        assert obj["n"] == 8
        assert obj["girth"] == 3
        assert obj["chordal"] is False
        assert obj["special"] == [0, 1]
        assert obj["gamma"] == 2 and obj["gammaT"] == 3
        assert obj["classification"]["verdict"] == "unknown"

    @pytest.mark.parametrize("g, expect", [
        (cycle(6), (2, 2, 6, 1, 0)),
        (Graph(4, [(0, 1), (2, 3)]), (1, 1, 2, 2, 0)),
        (Graph(3), (0, 0, 0, 3, 3)),
        (fixture("fig1"), (2, 5, 15, 1, 0)),
    ], ids=["c6", "two-edges", "edgeless", "fig1"])
    def test_analyze_degree_and_component_counts(self, tmp_path, capsys, g, expect):
        f = tmp_path / "g.edges"
        f.write_text("".join([f"n {g.n}\n", *(f"{u} {v}\n" for u, v in g.edges())]))
        (obj,) = run_json(capsys, ["analyze", str(f), "--format", "edgelist", "--json"])
        keys = ("minDegree", "maxDegree", "edgeCount", "componentCount", "isolatedCount")
        assert tuple(obj[k] for k in keys) == expect

    @pytest.mark.parametrize("edges", [None, "n 4\n0 1\n1 2\n"], ids=["fig1", "isolated-vertex"])
    def test_analyze_decides_chordality_and_specialness_once(self, tmp_path, capsys, monkeypatch, edges):
        calls = {"is_chordal": 0, "special_classes": 0}

        def counted(name, fn):
            def wrapper(g):
                calls[name] += 1
                return fn(g)
            return wrapper

        for module in (commands, characterize):
            monkeypatch.setattr(module, "is_chordal", counted("is_chordal", forbidden.is_chordal))
        monkeypatch.setattr(structure, "special_classes",
                            counted("special_classes", structure.special_classes))
        source = ["--fixture", "fig1"]
        if edges is not None:
            (tmp_path / "g.edges").write_text(edges)
            source = [str(tmp_path / "g.edges"), "--format", "edgelist"]
        (obj,) = run_json(capsys, ["analyze", *source, "--json"])
        assert calls == {"is_chordal": 1, "special_classes": 1}
        assert (obj["classification"] is None) == (edges is not None)

    @pytest.mark.parametrize("spec,expect", [("tree:4000", None), ("corona:c2000", 2000)])
    def test_analyze_girth_of_large_sparse_graphs_within_seconds(self, capsys, spec, expect):
        # a breadth-first search of the whole graph from every vertex took over 25 s
        # and 85 s on these graphs on a 2-core Xeon
        started = time.monotonic()
        (obj,) = run_json(capsys, ["analyze", "--generate", spec, "--json"])
        assert time.monotonic() - started < 10
        assert obj["girth"] == expect

    @pytest.mark.slow
    @pytest.mark.parametrize("spec,expect", [("tree:32768", b"null"), ("corona:c10922", b"10922")])
    def test_analyze_at_the_order_cap(self, tmp_path, spec, expect):
        # one 89 MB record each, peaking near 480 MiB, so it goes to a file
        out = tmp_path / "out.jsonl"
        started = time.monotonic()
        with open(out, "wb") as fh:
            code = subprocess.run([*CLI, "analyze", "--generate", spec, "--json"], stdout=fh,
                                  env=cli_env(), timeout=60).returncode
        assert time.monotonic() - started < 60
        assert code == 0
        record = out.read_bytes()
        assert record.count(b"\n") == 1
        assert re.search(rb'"girth":(\w+),', record).group(1) == expect


PER_GRAPH_COMMANDS = ["classify", "analyze", "gamma", "gamma-t", "special", "s-set",
                      "count-gamma-sets", "check-free"]


CLI = [sys.executable, "-c", "from twindom.cli import main; main()"]


def cli_env() -> dict:
    src = str(Path(twindom.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def spawn_cli(argv) -> subprocess.Popen:
    """Start the CLI in a new session, with stdout and stderr piped."""
    return subprocess.Popen([*CLI, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=cli_env(), start_new_session=True)


def finish_cli(proc: subprocess.Popen, timeout=60) -> tuple[int, bytes, bytes]:
    """(exit status, stdout, stderr) of a ``spawn_cli`` run. Its session is
    killed if the run does not end within ``timeout`` s."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"twindom {' '.join(proc.args[len(CLI):])} did not end within {timeout} s")
    return proc.returncode, out, err


def run_cli(argv, timeout=60) -> tuple[int, bytes, bytes]:
    """Run the CLI in a new session; (exit status, stdout, stderr)."""
    return finish_cli(spawn_cli(argv), timeout)


def session_runs(group: int) -> bool:
    """Whether a process of the session ``group`` has not exited. An orphan
    that exited stays a zombie, which signals still reach, until init reaps
    it, and some inits reap only every 2 s or so; so where ``/proc`` exists
    zombies count as exited."""
    if not os.path.isdir("/proc"):
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return False
        return True
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:  # state, parent, group and session follow the parenthesized name
            state, _, _, session = stat.read_text().rpartition(")")[2].split()[:4]
        except OSError:  # it was reaped while listed
            continue
        if int(session) == group and state != "Z":
            return True
    return False


def assert_session_ends(group: int, within: float = 30) -> None:
    """Fail unless every process of the session ``group`` exits in time."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        if not session_runs(group):
            return
        time.sleep(0.05)
    with contextlib.suppress(ProcessLookupError):  # the last one exited after the deadline
        os.killpg(group, signal.SIGKILL)
    pytest.fail("a worker outlived the CLI")


def write_g6(tmp_path, lines):
    f = tmp_path / "in.g6"
    f.write_text("\n".join(lines) + "\n")
    return f


class TestPerGraphDriver:
    @pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
    @pytest.mark.parametrize("command", PER_GRAPH_COMMANDS)
    def test_every_command_echoes_each_input_line(self, tmp_path, capsys, command, as_json):
        lines = [g6(fixture(name)) for name in ("p4", "c6", "star3")]
        f = write_g6(tmp_path, lines)
        assert run([command, str(f)] + (["--json"] if as_json else [])) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        for i, (line, g6_line) in enumerate(zip(out, lines)):
            if as_json:
                obj = json.loads(line)
                assert (obj["index"], obj["graph6"]) == (i, g6_line)
            else:
                assert line.startswith(f"#{i} {g6_line} ")

    def test_graph6_prefix_is_echoed_as_read(self, tmp_path, capsys):
        f = write_g6(tmp_path, [">>graph6<<A_"])
        (obj,) = run_json(capsys, ["classify", str(f), "--json"])
        assert obj["graph6"] == ">>graph6<<A_" and obj["verdict"] == "is_gamma2"

    def test_padding_bits_are_echoed_as_read(self, tmp_path, capsys):
        f = write_g6(tmp_path, ["B~"])
        (obj,) = run_json(capsys, ["classify", str(f), "--json"])
        assert obj["graph6"] == "B~" and obj["verdict"] == "is_gamma2"

    def test_largest_edgelist_is_echoed_in_time(self, tmp_path):
        # the graph6 echo of an order-cap edge list is 89,475,759 bytes
        f = tmp_path / "big.edges"
        f.write_text(f"n {graphs.MAX_ORDER}\n0 {graphs.MAX_ORDER - 1}\n5 9\n")
        code, out, err = run_cli(["special", str(f), "--format", "edgelist", "--json"], timeout=30)
        assert (code, err) == (0, b"")
        echoed = json.loads(out)["graph6"]
        del out
        assert len(echoed) == 89_475_759
        assert list(parse_graph6(echoed).edges()) == [(0, graphs.MAX_ORDER - 1), (5, 9)]

    @staticmethod
    def _count_codec_calls(monkeypatch) -> dict:
        calls = {"parse_graph6": 0, "serialize_graph6": 0}
        for name in calls:
            genuine = getattr(graphs, name)

            def counted(*args, _name=name, _genuine=genuine, **kwargs):
                calls[_name] += 1
                return _genuine(*args, **kwargs)

            # replace every alias, so a call by any import path is counted
            for module in (twindom, graphs, cli, generators, sweep):
                if getattr(module, name, None) is genuine:
                    monkeypatch.setattr(module, name, counted)
        return calls

    def test_graph6_input_is_parsed_once_and_never_reencoded(self, tmp_path, capsys, monkeypatch):
        lines = [g6(g) for g in enumerate_small_graphs(4, "isolate_free")]
        f = write_g6(tmp_path, lines)
        calls = self._count_codec_calls(monkeypatch)
        assert len(run_json(capsys, ["classify", str(f), "--json", "--jobs", "1"])) == len(lines)
        assert calls == {"parse_graph6": len(lines), "serialize_graph6": 0}

    def test_pool_parent_parses_nothing(self, tmp_path, capsys, monkeypatch):
        # the CLI maps the first CHUNK lines itself; the workers parse the rest
        lines = [g6(g) for g in islice(enumerate_small_graphs(5, "isolate_free"), 100)]
        assert len(lines) > graphs.CHUNK
        f = write_g6(tmp_path, lines)
        calls = self._count_codec_calls(monkeypatch)
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # real workers, even on one CPU
        objs = run_json(capsys, ["classify", str(f), "--json", "--jobs", "2"])
        assert [o["graph6"] for o in objs] == lines
        assert calls == {"parse_graph6": graphs.CHUNK, "serialize_graph6": 0}

    def test_records_before_a_failing_line_are_written(self, tmp_path, capsys, monkeypatch):
        lines = [g6(g) for g in islice(enumerate_small_graphs(5, "isolate_free"), 80)]
        lines.insert(40, "E")  # line 41: size header without its body
        assert len(lines) > graphs.CHUNK
        f = write_g6(tmp_path, lines)
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # real workers, even on one CPU
        outs = []
        for jobs in ("1", "2"):
            assert run(["classify", str(f), "--jobs", jobs]) == 1
            captured = capsys.readouterr()
            assert "line 41" in captured.err
            outs.append(captured.out)
        assert outs[0] == outs[1]
        assert [line.split()[0] for line in outs[0].splitlines()] == [f"#{i}" for i in range(40)]

    def test_malformed_first_line_fails_before_the_input_is_read(self, capsys, monkeypatch):
        limit = 1 << 20
        valid = g6(Graph(500)).encode() + b"\n"
        assert (graphs.CHUNK + 1) * len(valid) > limit  # reading ahead a chunk's worth fails

        class EndlessStdin(io.RawIOBase):
            """A malformed line 1, then valid lines without end; reading
            past ``limit`` bytes fails the test."""
            pending, served = b"E\n", 0

            def readable(self):
                return True

            def readinto(self, buf):
                assert self.served < limit, f"read {self.served} bytes and line 1 is not parsed yet"
                while len(self.pending) < len(buf):
                    self.pending += valid
                k = len(buf)
                buf[:k], self.pending = self.pending[:k], self.pending[k:]
                self.served += k
                return k

        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # a real fan-out, even on one CPU
        for jobs in ("1", "2"):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BufferedReader(EndlessStdin()), encoding="ascii"))
            assert run(["classify", "-", "--jobs", jobs]) == 1
            captured = capsys.readouterr()
            assert captured.err == "twindom classify: line 1: graph6 body has 0 bytes, expected 3 for n=6\n"
            assert captured.out == ""

    @staticmethod
    def _read_one_line_and_close(tmp_path, argv, stdin=None):
        """Run the CLI in a new session and close its stdout after one line;
        (exit status, stderr, process group id). Stderr goes to a file, as
        a leftover worker would hold a pipe open."""
        with open(tmp_path / "stderr.txt", "w+b") as ferr:
            proc = subprocess.Popen([*CLI, *argv], stdin=stdin, stdout=subprocess.PIPE,
                                    stderr=ferr, env=cli_env(), start_new_session=True)
            assert proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            ferr.seek(0)
            return code, ferr.read(), proc.pid

    def test_broken_pipe_exits_quietly(self, tmp_path):
        code, err, _ = self._read_one_line_and_close(tmp_path, ["generate", "enum:6"])
        assert code == -signal.SIGPIPE
        assert err == b""

    def test_broken_pipe_leaves_no_pool_worker(self, tmp_path):
        f = write_g6(tmp_path, [g6(g) for g in enumerate_small_graphs(5, "isolate_free")] * 3)
        with open(f, "rb") as fin:
            code, err, group = self._read_one_line_and_close(
                tmp_path, ["classify", "-", "--jobs", "2"], fin)
        assert code == -signal.SIGPIPE
        assert err == b""
        assert_session_ends(group)

    @staticmethod
    def _first_record(python: list[str], env: dict, jobs: str, within: float) -> None:
        """Write one graph6 line to ``classify -`` and keep stdin open; its
        record must arrive within ``within`` s."""
        proc = subprocess.Popen([*python, *CLI[1:], "classify", "-", "--json", "--jobs", jobs],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, start_new_session=True)
        try:
            proc.stdin.write(g6(fixture("c6")).encode() + b"\n")
            proc.stdin.flush()
            assert select.select([proc.stdout], [], [], within)[0], f"no record within {within} s"
            record = json.loads(proc.stdout.readline())
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=30)
            raise
        code, out, err = finish_cli(proc)  # which closes stdin
        assert (code, out, err) == (0, b"", b"")
        assert (record["index"], record["graph6"], record["verdict"]) == (0, g6(fixture("c6")), "unknown")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_record_is_written_before_the_next_line_arrives(self, jobs):
        # stdin stays open after one line, so a run that reads ahead waits
        self._first_record([sys.executable, "-u"], cli_env(), jobs, 2)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_pipe_gets_each_record_without_unbuffered_python(self, jobs):
        # stdout is a pipe, which Python block-buffers unless told otherwise
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        self._first_record([sys.executable], env, jobs, 3)

    def test_only_a_pipe_or_terminal_stdin_is_live(self, tmp_path):
        f = tmp_path / "in.g6"
        f.write_bytes(b"A_\n")
        with open(f, "rb") as regular:
            assert not cli._is_live(regular)
        read_end, write_end = os.pipe()
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            assert cli._is_live(pipe)
        assert not cli._is_live(io.BytesIO(b"A_\n"))

    def test_the_reader_holds_a_long_line_once(self, tmp_path):
        # the reader only splits lines, so they need not be valid graph6
        f = tmp_path / "long.g6"
        f.write_bytes(b"~" * 300_000 + b"\n" + b"~" * 300_000 + b"\n")
        tracemalloc.start()
        try:
            lines = cli._graph6_lines(str(f))
            lineno, line = next(lines)
            held = tracemalloc.get_traced_memory()[0]
            lines.close()
        finally:
            tracemalloc.stop()
        assert (lineno, len(line)) == (1, 300_000)
        assert held < 1.5 * len(line)

    def test_the_reader_peaks_under_three_copies_of_a_long_line(self, tmp_path):
        # the raw bytes, their decoded text and the split line: never all at once
        f = tmp_path / "long.g6"
        f.write_bytes(b"~" * 300_000 + b"\n" + b"~" * 300_000 + b"\n")
        peaks = []
        tracemalloc.start()
        try:
            lines = cli._graph6_lines(str(f))
            for _ in range(2):
                tracemalloc.reset_peak()
                lineno, line = next(lines)
                peaks.append(tracemalloc.get_traced_memory()[1])
                del line  # a caller drops each line before asking for the next
            lines.close()
        finally:
            tracemalloc.stop()
        assert lineno == 2
        assert max(peaks) < 2.5 * 300_000, peaks


class TestStartUp:
    # no run needs these but a fan-out, which pickles and waits on pipes;
    # each takes milliseconds to import
    SLOW = {"multiprocessing", "pickle", "select", "dataclasses", "inspect"}
    # what a classify run compiles of the package
    CLASSIFY = {"twindom", "twindom.cli", "twindom.characterize", "twindom.domination", "twindom.forbidden",
                "twindom.graphs", "twindom.structure"}
    # prints, at exit, the modules imported after the interpreter's own start;
    # os.cpu_count is patched so that --jobs 2 stays 2 on one CPU
    ENTRY = ("import atexit, os, sys\n"
             "os.cpu_count = lambda: 2\n"
             "before = set(sys.modules)\n"
             "atexit.register(lambda: print(*sorted(set(sys.modules) - before), file=sys.stderr))\n"
             "from twindom.cli import main; main()")

    @pytest.mark.parametrize("argv, records, added", [
        (["classify", "-", "--json", "--jobs", "1"], 1, []),
        (["classify", "-", "--json", "--jobs", "2"], 1, []),
        (["classify", "-", "--json", "--jobs", "2"], 64, []),
        (["classify", "-", "--json", "--jobs", "2"], 65, ["fanout"]),
        (["classify", "-", "--json", "--format", "edgelist"], 1, ["edgelist"]),
        *[([command, "-", "--json"], 1, ["commands"]) for command in PER_GRAPH_COMMANDS[1:]],
        (["check-free", "-", "--pattern-file", "PATTERN"], 1, ["commands", "edgelist"]),
        (["generate", "c6"], 0, ["commands", "generators"]),
        (["sweep", "--input", "-", "--jobs", "1"], 1, ["commands", "sweep"]),
        (["sweep", "-", "--jobs", "1"], 65, ["commands", "sweep"]),
    ], ids=["classify", "classify-jobs-2", "classify-jobs-2-one-chunk", "classify-jobs-2-fan-out",
            "classify-edgelist", *PER_GRAPH_COMMANDS[1:], "check-free-pattern-file", "generate", "sweep",
            "sweep-stdin"])
    def test_a_run_imports_only_what_it_runs(self, tmp_path, argv, records, added):
        pattern = tmp_path / "pattern.txt"
        pattern.write_text("0 1\n1 2\n")
        if "--format" in argv:
            stdin = pattern.read_bytes()
        else:
            stdin = "".join(g6(g) + "\n" for g in islice(enumerate_small_graphs(5, "isolate_free"), records)).encode()
        argv = [str(pattern) if a == "PATTERN" else a for a in argv]
        proc = subprocess.run([sys.executable, "-c", self.ENTRY, *argv], input=stdin, capture_output=True,
                              env=cli_env(), timeout=60)
        assert proc.returncode == 0 and proc.stdout
        loaded = set(proc.stderr.decode().split())
        assert loaded & self.SLOW == ({"pickle", "select"} if "fanout" in added else set())
        assert {m for m in loaded if m.split(".")[0] == "twindom"} == self.CLASSIFY | {f"twindom.{m}" for m in added}

    @pytest.mark.parametrize("argv", [["classify", "-", "--json"], ["sweep", "-"]], ids=["classify", "sweep"])
    def test_the_start_up_objects_are_frozen_at_exit(self, argv):
        # the exit's collections skip frozen objects, and start-up leaves ~12,000
        entry = ("import atexit, gc, sys\n"
                 "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
                 "from twindom.cli import main; main()")
        proc = subprocess.run([sys.executable, "-c", entry, *argv, "--jobs", "1"],
                              input=g6(fixture("fig1")).encode() + b"\n", capture_output=True,
                              env=cli_env(), timeout=60)
        assert proc.returncode == 0 and proc.stdout
        assert int(proc.stderr) >= 5000

    @pytest.mark.parametrize("case", ["fixture", "jobs-1", "jobs-2", "malformed-line-66", "sweep",
                                      "usage-error", "help"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, capsys, monkeypatch, case):
        # the same output and exit status as cli.run, which freezes nothing
        lines = [g6(g) for g in islice(enumerate_small_graphs(5, "isolate_free"), 70)]
        if case == "malformed-line-66":
            lines[65] = "E"  # a size header without its body
        f = str(write_g6(tmp_path, lines))
        argv = {"fixture": ["classify", "--fixture", "c6", "--json"],
                "jobs-1": ["classify", f, "--json", "--jobs", "1"],
                "jobs-2": ["classify", f, "--json", "--jobs", "2"],
                "malformed-line-66": ["classify", f, "--jobs", "2"],
                "sweep": ["sweep", "--input", f, "--json"],
                "usage-error": ["classify", f, "--jobs"],
                "help": ["classify", "--help"]}[case]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # real workers, even on one CPU
        proc = subprocess.run([sys.executable, "-m", "twindom", *argv], capture_output=True,
                              env=cli_env(), timeout=60)
        try:
            code = run(argv)
        except SystemExit as e:  # argparse's usage errors and --help
            code = e.code
        out, err = capsys.readouterr()
        assert (proc.returncode, ELAPSED.sub("", proc.stdout.decode()), proc.stderr.decode()) == (
            code, ELAPSED.sub("", out), err)
        if case == "malformed-line-66":
            assert (code, len(out.splitlines())) == (1, 65)
        assert out or err

    def test_main_runs_where_there_is_no_sigpipe(self, capsys, monkeypatch):
        argv = ["classify", "--fixture", "c6", "--json"]
        assert run(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.delattr(signal, "SIGPIPE")
        monkeypatch.setattr(sys, "argv", ["twindom", *argv])
        try:
            with pytest.raises(SystemExit) as exited:
                cli.main()
        finally:
            gc.unfreeze()
        assert exited.value.code == 0
        assert ELAPSED.sub("", capsys.readouterr().out) == ELAPSED.sub("", expected)


class TestFanOut:
    """classify and sweep share one ordered fan-out to worker processes."""

    @pytest.mark.parametrize("argv", [["classify", "--fallback", "oracle"], ["sweep", "--input"]],
                             ids=["classify", "sweep"])
    def test_worker_error_ends_like_serial_run(self, tmp_path, argv):
        # line 81: a hexagon and a disjoint 36-vertex path, ineligible and
        # above the oracle cap, so its worker raises OracleCapExceeded
        big = Graph(42, [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 1) for i in range(6, 41)])
        lines = [g6(g) for g in islice(enumerate_small_graphs(5, "isolate_free"), 99)]
        lines.insert(80, g6(big))
        assert len(lines) > 80 > graphs.CHUNK
        f = write_g6(tmp_path, lines)
        runs = [run_cli([*argv, str(f), "--jobs", jobs]) for jobs in ("1", "2")]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 1
        assert b"exact search refused: n=42 exceeds oracle cap 32" in err
        assert b"Traceback" not in err
        assert len(out.splitlines()) == (80 if argv[0] == "classify" else 0)

    def test_sweep_workers_die_with_the_cli(self):
        # both workers are inside a 60 s item when the parent is killed, so
        # neither reads a task or writes a reply before it would end anyway;
        # the items the parent maps itself return at once
        code = ("import os, time\nfrom twindom import fanout, graphs\n"
                "fanout.os.cpu_count = lambda: 2\n"
                "def fn(i):\n    if i < graphs.CHUNK:\n        return i\n"
                "    print(os.getpid(), flush=True)\n    time.sleep(60)\n"
                "list(graphs.ordered_map(fn, range(200), 2))\n")
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=cli_env(), start_new_session=True)
        try:
            workers = {proc.stdout.readline() for _ in range(2)}
            assert len(workers) == 2 and b"" not in workers, "both workers start an item"
        except BaseException:
            with contextlib.suppress(ProcessLookupError):  # the session may be empty already
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            raise
        finally:
            proc.stdout.close()
        proc.kill()
        proc.wait(timeout=30)
        assert_session_ends(proc.pid, within=2)

    @pytest.mark.skipif(sys.platform != "linux", reason="workers are found through /proc")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs is clamped to the CPU count: no worker")
    def test_a_killed_worker_ends_the_sweep(self):
        proc = spawn_cli(["sweep", "--max-n", "6", "--jobs", "2"])
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 30
        try:
            while len(workers := children.read_text().split()) < 2:
                assert time.monotonic() < deadline, "the sweep forked no worker"
                time.sleep(0.05)
            os.kill(int(workers[0]), signal.SIGKILL)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=30)
            raise
        code, out, err = finish_cli(proc)
        assert (code, out) == (1, b"")
        assert err == b"twindom sweep: a worker process died\n"
        assert_session_ends(proc.pid)

    def test_without_fork_the_map_is_serial(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(fanout, "fan_out", None)  # calling it would fail
        assert list(graphs.ordered_map(abs, range(-100, 0), 2)) == list(range(100, 0, -1))

    def test_an_input_error_past_the_last_chunk_follows_its_results(self, monkeypatch):
        # items 64..127 and 128..149 go to the workers, and the error that
        # ends the input waits until both chunks are yielded
        def source():
            yield from range(150)
            raise OSError("input lost")

        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # a real fan-out, even on one CPU
        results = graphs.ordered_map(abs, source(), 2)
        assert list(islice(results, 150)) == list(range(150))
        with pytest.raises(OSError, match="^input lost$"):
            next(results)

    def test_a_chunk_larger_than_a_pipe_waits_for_room(self, monkeypatch):
        # a chunk of 64 items of 5,000 bytes pickles to over 300 KiB, more
        # than the 64 KiB a pipe holds, so its send waits for the worker
        sizes = []
        send = fanout._send

        def recorded(worker, data):
            sizes.append(len(data))
            return send(worker, data)

        monkeypatch.setattr(fanout, "_send", recorded)
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # a real fan-out, even on one CPU
        items = [bytes([i]) * 5000 for i in range(200)]
        assert list(graphs.ordered_map(bytes, items, 2)) == items
        assert len(sizes) == 3 and min(sizes[:2]) > 1 << 16

    @pytest.mark.parametrize("cpus, items, forks", [(2, 65, 1), (2, 128, 1), (2, 129, 2), (16, 100, 1),
                                                   (16, 1000, 15)])
    def test_a_chunk_forks_a_worker_only_when_none_is_idle(self, monkeypatch, cpus, items, forks):
        # the items past the first CHUNK make ceil((items - CHUNK) / CHUNK)
        # chunks, and the 2 * jobs window lets every one go out at once
        forked = []

        def fork(fn, lifeline):
            forked.append(fn)
            return real_fork(fn, lifeline)

        real_fork = fanout._fork
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(fanout, "_fork", fork)
        assert list(graphs.ordered_map(abs, range(-items, 0), cpus)) == list(range(items, 0, -1))
        assert len(forked) == forks

    def test_a_chunk_for_a_dead_worker_fails_instead_of_blocking(self):
        # the chunk is larger than a pipe holds, nothing reads it, and SIGPIPE
        # kills as it does in the CLI
        code = ("import os, signal\nfrom twindom import fanout\n"
                "signal.signal(signal.SIGPIPE, signal.SIG_DFL)\n"
                "worker = fanout._fork(abs, os.pipe())\n"
                "os.kill(worker[0], signal.SIGKILL)\nos.waitpid(worker[0], 0)\n"
                "try:\n    fanout._send(worker, bytes(1 << 20))\n"
                "except ChildProcessError as e:\n    print(e)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"a worker process died\n", b"")

    @pytest.mark.parametrize("setup", [
        # items 64..127 form one chunk. Its first 62 results take 248 KiB, and
        # item 126 raises an error holding a lock, which cannot be pickled:
        # the worker writes the whole 64 KiB frames before it and dies
        "def fn(i):\n"
        "    if i == 126:\n        raise ValueError(threading.Lock())\n"
        "    return bytes(4096)\n",
        # each worker loses its first reply's last byte, as when it is killed
        # in a write; this process sends with pickle.dumps, not pickle.dump
        "fn = abs\n"
        "pickle.dump = lambda obj, f: (f.write(pickle.dumps(obj)[:-1]), f.flush(), os._exit(1))\n",
    ], ids=["unpicklable-error", "last-byte-lost"])
    def test_a_reply_cut_short_reads_as_a_dead_worker(self, setup):
        code = ("import os, pickle, threading\nfrom twindom import fanout, graphs\n"
                "fanout.os.cpu_count = lambda: 2\n"
                "pids, fork = [], fanout._fork\n"
                "fanout._fork = lambda *args: pids.append((w := fork(*args))[0]) or w\n"
                + setup +
                "try:\n    list(graphs.ordered_map(fn, range(200), 2))\n"
                "except ChildProcessError as e:\n    print(e)\n"
                "for pid in pids:\n"
                "    try:\n        os.kill(pid, 0)\n"
                "    except ProcessLookupError:\n        print('reaped')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env(), timeout=60)
        assert proc.stderr == b""
        assert (proc.returncode, proc.stdout) == (0, b"a worker process died\nreaped\nreaped\n")

    def test_a_failing_first_record_ends_every_loaded_run(self, tmp_path):
        # line 65, the first record a worker maps, has an isolated vertex,
        # which classify refuses. A pool once hung on such a first record on
        # a host loaded by other runs, so four run at a time.
        lines = [g6(g) for g in islice(enumerate_small_graphs(5, "isolate_free"), 80)]
        lines.insert(graphs.CHUNK, g6(Graph(3, [(0, 1)])))
        f = write_g6(tmp_path, lines)
        for _ in range(5):
            procs = [spawn_cli(["classify", str(f), "--json", "--jobs", "2"]) for _ in range(4)]
            try:
                runs = [finish_cli(proc) for proc in procs]
            except BaseException:
                for proc in procs:
                    if proc.poll() is None:
                        os.killpg(proc.pid, signal.SIGKILL)
                raise
            for proc, (code, out, err) in zip(procs, runs):
                assert (code, len(out.splitlines())) == (1, graphs.CHUNK)
                assert err == b"twindom classify: gamma_t is undefined: graph has an isolated vertex\n"
                assert_session_ends(proc.pid)

    def test_the_first_result_is_not_held_back_by_later_items(self, tmp_path, monkeypatch):
        # every item but the first waits for the release file, or for the
        # deadline, so the first result arrives early only if no later item
        # is mapped before it is yielded
        release = tmp_path / "release"
        deadline = time.monotonic() + 3

        def fn(item):
            while item and not release.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            return -item

        sizes = []
        send = fanout._send

        def recorded(worker, data):  # each chunk goes out pickled
            sizes.append(len(pickle.loads(data)))
            return send(worker, data)

        monkeypatch.setattr(fanout, "_send", recorded)
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # a real fan-out, even on one CPU
        results = graphs.ordered_map(fn, range(200), 2)
        assert next(results) == 0
        assert time.monotonic() < deadline - 2
        release.touch()
        assert list(results) == [-i for i in range(1, 200)]
        # the first CHUNK items are mapped here, the rest in full chunks
        assert graphs.CHUNK == 64 and sizes == [64, 64, 8]

    @pytest.mark.parametrize("jobs,count,checked", [(1, 200, 200), (2, 200, 64)])
    def test_the_kth_result_needs_only_k_items(self, monkeypatch, jobs, count, checked):
        pulled = []

        def source():
            for i in range(count):
                pulled.append(i)
                yield i

        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # jobs 2 stays 2, even on one CPU
        results = graphs.ordered_map(abs, source(), jobs)
        for k in range(1, checked + 1):
            assert next(results) == k - 1
            assert len(pulled) == k
        results.close()  # before the fan-out, which would read ahead
        assert len(pulled) == checked

    @pytest.mark.parametrize("index", [0, 1, 2, 3, 6, 7, 62, 63, 64, 65, 126, 127, 128, 129])
    @pytest.mark.parametrize("command", [["classify"], ["sweep", "--input"]], ids=["classify", "sweep"])
    def test_a_failing_record_at_a_chunk_boundary_ends_like_serial_run(
            self, tmp_path, capsys, monkeypatch, command, index):
        # the record fails in this process or in a worker, and nothing after
        # it is written; items 0..63 are mapped here, and the chunks sent to
        # the workers start at items 64 and 128
        assert graphs.CHUNK == 64
        lines = [g6(g) for g in islice(enumerate_small_graphs(5, "isolate_free"), 140)]
        lines[index] = "E"  # a size header without its body
        f = write_g6(tmp_path, lines)
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # a real fan-out, even on one CPU
        runs = []
        for jobs in ("1", "2"):
            code = run([*command, str(f), "--jobs", jobs])
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 1 and err.startswith(f"twindom {command[0]}: line {index + 1}: ")
        assert len(out.splitlines()) == (index if command == ["classify"] else 0)

    @pytest.mark.parametrize("count", [65, 66, 127, 128, 129, 200])
    def test_classify_is_identical_at_any_jobs(self, tmp_path, capsys, monkeypatch, count):
        # yes and no verdicts, and every 20th graph an ineligible one with its witness
        lines = [g6(g) for g in islice(enumerate_small_graphs(6, "isolate_free"), 0, 7 * count, 7)]
        lines[3::20] = [g6((cycle(6), fixture("g1"), fixture("g2"))[i % 3]) for i in range(len(lines[3::20]))]
        f = write_g6(tmp_path, lines)
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # a real fan-out, even on one CPU
        outs = []
        for jobs in ("1", "2"):
            assert run(["classify", str(f), "--json", "--jobs", jobs]) == 0
            outs.append(re.sub(r'"elapsedMicros":\d+', '"elapsedMicros":0', capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == count

    def test_a_worker_whose_lifeline_is_closed_exits_at_once(self):
        # as when its parent ends right after the fork, most likely before
        # the worker starts reading the pipe; the alarm ends a wait for a
        # worker that does not exit
        code = ("import os, signal, time\nfrom twindom import fanout\n"
                "signal.alarm(10)\n"
                "lifeline = os.pipe()\nworker = fanout._fork(abs, lifeline)\n"
                "os.close(lifeline[1])\nstart = time.monotonic()\n"
                "status = os.waitpid(worker[0], 0)[1]\n"
                "print(os.waitstatus_to_exitcode(status), time.monotonic() - start < 2)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"1 True\n", b"")

    def test_a_worker_whose_lifeline_is_open_answers_a_chunk(self):
        # it is still alive when it is killed after its reply
        code = ("import os, pickle, signal\nfrom twindom import fanout\n"
                "worker = fanout._fork(abs, os.pipe())\n"
                "fanout._send(worker, pickle.dumps([-1, -2]))\n"
                "print(pickle.load(worker[3]))\n"
                "os.kill(worker[0], signal.SIGKILL)\n"
                "print(os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1]))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"([1, 2], None)\n-9\n", b"")

    def test_sweep_pool_parent_never_reencodes(self, tmp_path, capsys, monkeypatch):
        # the parent parses the first CHUNK lines and the workers the rest;
        # nothing is encoded
        lines = [g6(g) for g in islice(enumerate_small_graphs(5), 100)]
        assert len(lines) > graphs.CHUNK
        f = write_g6(tmp_path, lines)
        calls = TestPerGraphDriver._count_codec_calls(monkeypatch)
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # real workers, even on one CPU
        assert run(["sweep", "--input", str(f), "--jobs", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["graphs"] == len(lines)
        assert calls == {"parse_graph6": graphs.CHUNK, "serialize_graph6": 0}

    def test_small_input_sweep_is_identical_at_any_jobs(self, tmp_path, capsys):
        lines = [g6(g) for g in islice(enumerate_small_graphs(5), 20, 20 + graphs.CHUNK)]
        f = write_g6(tmp_path, lines)
        outs = []
        for jobs in ("1", "2"):
            assert run(["sweep", "--input", str(f), "--jobs", jobs, "--json"]) == 0
            outs.append(re.sub(r'"elapsedMicros":\d+', '"elapsedMicros":0', capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["graphs"] == graphs.CHUNK

    @pytest.mark.parametrize("command", [["classify"], ["sweep", "--input"]], ids=["classify", "sweep"])
    def test_a_one_chunk_batch_stays_in_this_process(self, tmp_path, capsys, monkeypatch, command):
        # the first CHUNK graphs are mapped here, so a batch of CHUNK forks nothing
        class FannedOut(Exception):
            pass

        def fork(fn, lifeline):
            raise FannedOut

        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(fanout, "_fork", fork)
        lines = [g6(g) for g in islice(enumerate_small_graphs(5, "isolate_free"), graphs.CHUNK + 1)]
        assert run([*command, str(write_g6(tmp_path, lines[:-1])), "--jobs", "2"]) == 0
        with pytest.raises(FannedOut):
            run([*command, str(write_g6(tmp_path, lines)), "--jobs", "2"])

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_pool_size_is_clamped_to_the_cpu_count(self, tmp_path, capsys, monkeypatch, command):
        # the fake fan-out records the number of workers asked for and maps
        # in this process, so a huge --jobs forks nothing
        sizes = []

        def fake_fan_out(fn, items, jobs):
            sizes.append(jobs)
            return map(fn, items)

        monkeypatch.setattr(fanout, "fan_out", fake_fan_out)
        lines = [g6(g) for g in islice(enumerate_small_graphs(5, "isolate_free"), 100)]
        assert len(lines) > graphs.CHUNK
        f = str(write_g6(tmp_path, lines))
        argv = ["classify", f] if command == "classify" else ["sweep", "--input", f]
        outs = []
        for cpus, jobs in ((3, "1"), (3, "100000"), (None, "100000")):
            monkeypatch.setattr(fanout.os, "cpu_count", lambda: cpus)
            assert run([*argv, "--json", "--jobs", jobs]) == 0
            outs.append(re.sub(r'"elapsedMicros":\d+', '"elapsedMicros":0', capsys.readouterr().out))
        # an unknown CPU count counts as one CPU: no fan-out at all
        assert sizes == [3]
        assert outs[0] == outs[1] == outs[2]


class TestGenerate:
    def test_fixture_spec(self, capsys):
        assert run(["generate", "g1"]) == 0
        line = capsys.readouterr().out.strip()
        assert parse_graph6(line) == fixture("g1")

    def test_corona_spec(self, capsys):
        assert run(["generate", "corona:c3"]) == 0
        g = parse_graph6(capsys.readouterr().out.strip())
        assert g.n == 9

    def test_enum_spec(self, capsys):
        assert run(["generate", "enum:3:connected"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4

    def test_tree_spec_deterministic(self, capsys):
        assert run(["generate", "tree:9:5"]) == 0
        a = capsys.readouterr().out
        assert run(["generate", "tree:9:5"]) == 0
        assert a == capsys.readouterr().out

    @pytest.mark.parametrize("spec", [["blockgraph:5:3:7"]], ids=["spec-seed"])
    def test_blockgraph_spec_of_a_per_graph_command(self, capsys, spec):
        (obj,) = run_json(capsys, ["special", "--generate", *spec, "--json"])
        assert obj["graph6"] == g6(generators.random_block_graph(5, 3, 7)) == "GxaH?O"
        assert obj["special"] == [0, 2, 4]

    @pytest.mark.parametrize("family", ["tree:9", "blockgraph:5:3"])
    def test_a_random_spec_without_a_seed_uses_seed_0(self, capsys, family):
        assert run(["generate", family]) == 0
        unseeded = capsys.readouterr().out
        assert run(["generate", f"{family}:0"]) == 0
        assert unseeded == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["generate", "tree:9"], ["special", "--generate", "tree:9"]],
                             ids=["generate", "special"])
    def test_the_seed_option_is_gone(self, capsys, argv):
        # the seed is a field of the spec; an option repeating it was ignored
        with pytest.raises(SystemExit) as exited:
            run([*argv, "--seed", "5"])
        out, err = capsys.readouterr()
        assert (exited.value.code, out) == (1, "")
        assert "unrecognized arguments: --seed" in err

    @pytest.mark.parametrize("spec,message", [
        ("corona", "corona spec is corona:<fixture>"),
        ("corona:c3:x", "corona spec is corona:<fixture>"),
        ("tree", "tree spec is tree:<n>[:<seed>]"),
        ("tree:1:2:3", "tree spec is tree:<n>[:<seed>]"),
        ("blockgraph:3", "blockgraph spec is blockgraph:<blocks>:<max-clique>[:<seed>]"),
        ("blockgraph:1:2:3:4", "blockgraph spec is blockgraph:<blocks>:<max-clique>[:<seed>]"),
        ("enum", "enum spec is enum:<n>[:<filter>]"),
        ("enum:3:a:b", "enum spec is enum:<n>[:<filter>]"),
        ("tree:x", "tree spec is tree:<n>[:<seed>]; <n> must be an integer, not 'x'"),
        ("tree:5:y", "tree spec is tree:<n>[:<seed>]; <seed> must be an integer, not 'y'"),
        ("blockgraph:x:3", "blockgraph spec is blockgraph:<blocks>:<max-clique>[:<seed>]; "
                           "<blocks> must be an integer, not 'x'"),
        ("blockgraph:4:y", "blockgraph spec is blockgraph:<blocks>:<max-clique>[:<seed>]; "
                           "<max-clique> must be an integer, not 'y'"),
        ("blockgraph:4:3:1.5", "blockgraph spec is blockgraph:<blocks>:<max-clique>[:<seed>]; "
                               "<seed> must be an integer, not '1.5'"),
        ("enum:z", "enum spec is enum:<n>[:<filter>]; <n> must be an integer, not 'z'"),
        ("foo:1", "unknown generator spec 'foo:1'"),
        ("bogus", "unknown fixture 'bogus'"),
    ])
    @pytest.mark.parametrize("command", [["generate"], ["special", "--generate"]],
                             ids=["generate", "special"])
    def test_spec_usage_error(self, capsys, command, spec, message):
        assert run([*command, spec]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"twindom {command[0]}: {message}\n")


class TestSweepCommand:
    def test_small_sweep_passes(self, capsys):
        assert run(["sweep", "--max-n", "4", "--jobs", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert obj["graphs"] == 1 + 2 + 8 + 64
        assert all(c["violations"] == [] for c in obj["claims"].values())

    def test_parallel_sweep_matches(self, capsys):
        assert run(["sweep", "--max-n", "4", "--jobs", "2", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True and obj["graphs"] == 75

    def test_claims_filter(self, capsys):
        assert run(["sweep", "--max-n", "3", "--jobs", "1", "--claims", "bounds,lemma6", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert sorted(obj["claims"]) == ["bounds", "lemma6"]

    def test_corrupted_classifier_is_caught(self, capsys, monkeypatch):
        # mutation-style self-test: force a wrong yes and require exit 2
        genuine = characterize.classify

        def corrupted(g, fallback="none", oracle_cap=32):
            rep = genuine(g, fallback, oracle_cap)
            if rep.eligible and rep.verdict == "not_gamma2":
                return rep._replace(verdict="is_gamma2")
            return rep

        monkeypatch.setattr(characterize, "classify", corrupted)
        code = run(["sweep", "--max-n", "4", "--jobs", "1", "--json"])
        assert code == 2
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False
        assert any(c["violations"] for c in obj["claims"].values())

    def _sweep_violations(self, capsys) -> dict:
        assert run(["sweep", "--max-n", "5", "--jobs", "1", "--json"]) == 2
        obj = json.loads(capsys.readouterr().out)
        return {name: c["violations"] for name, c in obj["claims"].items() if c["violations"]}

    def test_wrong_support_vertices_are_caught(self, capsys, monkeypatch):
        genuine = structure.support_vertices
        monkeypatch.setattr(structure, "support_vertices", lambda g: set(sorted(genuine(g))[1:]))
        assert "supports" in self._sweep_violations(capsys)

    def test_wrong_cut_vertices_are_caught(self, capsys, monkeypatch):
        # drop the first block, so another block's vertex looks like a non-cut one
        genuine = structure.clique_blocks
        monkeypatch.setattr(structure, "clique_blocks", lambda g: (blocks := genuine(g)) and blocks[1:])
        assert "blocks" in self._sweep_violations(capsys)

    def test_eligibility_is_computed_once_per_graph(self, capsys, monkeypatch):
        calls = {"is_chordal": 0, "special_classes": 0}
        for name, genuine in (("is_chordal", forbidden.is_chordal),
                              ("special_classes", structure.special_classes)):
            def counted(*args, _name=name, _genuine=genuine, **kwargs):
                calls[_name] += 1
                return _genuine(*args, **kwargs)

            # replace every alias, so a call by any import path is counted
            for module in (forbidden, structure, characterize, sweep):
                if getattr(module, name, None) is genuine:
                    monkeypatch.setattr(module, name, counted)
        assert run(["sweep", "--max-n", "5", "--jobs", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        isolate_free = obj["graphs"] - obj["skippedIsolated"]
        assert calls == {"is_chordal": isolate_free, "special_classes": isolate_free}

    def test_hexagon_is_searched_once_per_graph(self, capsys, monkeypatch):
        # cor4 and supports ask for an induced c3 or c6: the eligibility
        # witness answers it, and with none a triangle test by masks, which
        # is no pattern search
        corpus = [g6(g) for n in range(1, 6) for g in enumerate_small_graphs(n, "isolate_free")]
        calls = {"c3": [], "c6": []}
        genuine = forbidden.find_induced

        def counted(g, pattern):
            calls.setdefault(pattern.name, []).append(g6(g))
            return genuine(g, pattern)

        # replace every alias, so a call by any import path is counted
        for module in (twindom, forbidden, characterize, sweep, cli):
            if getattr(module, "find_induced", None) is genuine:
                monkeypatch.setattr(module, "find_induced", counted)
        assert run(["sweep", "--max-n", "5", "--jobs", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["graphs"] - obj["skippedIsolated"] == len(corpus)
        assert sorted(calls["c6"]) == sorted(corpus)
        assert calls["c3"] == []

    def test_only_chordal_graphs_are_scanned_for_blocks(self, capsys, monkeypatch):
        # a block graph is chordal, and only bounds reads connectivity, when
        # 3 * gamma_t > 2n on n >= 3; the sweep computes no fact it does not read
        chordal = [g6(g) for n in range(1, 7) for g in enumerate_small_graphs(n, "isolate_free")
                   if forbidden.is_chordal(g)]
        calls = {"component_masks": [], "clique_blocks": []}
        # sweep's component_masks alias only: clique_blocks calls its own
        for module, name, genuine in ((sweep, "component_masks", graphs.component_masks),
                                      (structure, "clique_blocks", structure.clique_blocks)):
            def counted(g, _name=name, _genuine=genuine):
                calls[_name].append(g)
                return _genuine(g)

            monkeypatch.setattr(module, name, counted)
        assert run(["sweep", "--max-n", "6", "--jobs", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert {name: c["checked"] for name, c in obj["claims"].items()} == SWEEP_N6_CHECKED
        assert calls["component_masks"]
        for g in calls["component_masks"]:
            assert g.n >= 3 and 3 * domination.exact_gamma_total(g).value > 2 * g.n, g6(g)
        assert len(chordal) == 14626 and sorted(map(g6, calls["clique_blocks"])) == sorted(chordal)

    @pytest.mark.parametrize("claims", ["bounds", "bounds,lemma5"])
    def test_claims_that_read_no_report_skip_the_classifier(self, capsys, monkeypatch, claims):
        calls = {"find_induced": 0, "classify": 0}
        for module_of, name in ((forbidden, "find_induced"), (characterize, "classify")):
            genuine = getattr(module_of, name)

            def counted(*args, _name=name, _genuine=genuine, **kwargs):
                calls[_name] += 1
                return _genuine(*args, **kwargs)

            # replace every alias, so a call by any import path is counted
            for module in (twindom, forbidden, characterize, sweep, cli):
                if getattr(module, name, None) is genuine:
                    monkeypatch.setattr(module, name, counted)
        assert run(["sweep", "--max-n", "5", "--jobs", "1", "--claims", claims, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True and obj["claims"]["bounds"]["checked"] == obj["graphs"] - obj["skippedIsolated"]
        assert calls == {"find_induced": 0, "classify": 0}

    def test_claims_that_read_no_oracle_skip_the_oracles(self, capsys, monkeypatch):
        # supports and blocks read neither gamma nor gamma_t
        calls = []
        for name in ("exact_gamma", "exact_gamma_total"):
            genuine = getattr(domination, name)

            def counted(*args, _name=name, _genuine=genuine, **kwargs):
                calls.append(_name)
                return _genuine(*args, **kwargs)

            # replace every alias, so a call by any import path is counted
            for module in (twindom, domination, characterize, sweep, cli):
                if getattr(module, name, None) is genuine:
                    monkeypatch.setattr(module, name, counted)
        assert run(["sweep", "--max-n", "5", "--jobs", "1", "--json"]) == 0
        every = json.loads(capsys.readouterr().out)["claims"]
        assert calls
        calls.clear()
        assert run(["sweep", "--max-n", "5", "--jobs", "1", "--claims", "supports,blocks", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert calls == []
        assert obj["claims"] == {name: every[name] for name in ("blocks", "supports")}

    def test_sweep_graphs_returns_the_printed_summary(self, capsys):
        assert run(["sweep", "--max-n", "4", "--jobs", "1", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        del printed["elapsedMicros"]
        summary = sweep.sweep_graphs(g for n in range(1, 5) for g in enumerate_small_graphs(n))
        assert summary == printed
        assert list(summary) == list(printed) and list(summary["claims"]) == list(printed["claims"])

    def test_gamma_sets_are_enumerated_once_per_graph(self, capsys, monkeypatch):
        # lemma5 and cor9 both read the minimum dominating sets, and only of
        # graphs with gamma_t = 2*gamma
        corpus = [g for n in range(1, 6) for g in enumerate_small_graphs(n, "isolate_free")]
        expected = sum(map(is_gamma2_exact, corpus))
        calls = []
        genuine = domination.enumerate_gamma_sets

        def counted(g, *args, **kwargs):
            calls.append(serialize_graph6(g))
            return genuine(g, *args, **kwargs)

        # replace every alias, so a call by any import path is counted
        for module in (twindom, domination, sweep, cli):
            if getattr(module, "enumerate_gamma_sets", None) is genuine:
                monkeypatch.setattr(module, "enumerate_gamma_sets", counted)
        assert run(["sweep", "--max-n", "5", "--jobs", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(set(calls)) == len(calls) == expected == obj["claims"]["lemma5"]["checked"] > 0

    def test_non_packing_gamma_set_is_caught(self, capsys, monkeypatch):
        # the whole vertex set dominates, and on an isolate-free graph it
        # is no packing; the count is left alone, so cor9 still agrees
        genuine = domination.enumerate_gamma_sets

        def with_whole_vertex_set(g, *args, **kwargs):
            e = genuine(g, *args, **kwargs)
            return e._replace(sets=e.sets + (frozenset(range(g.n)),))

        monkeypatch.setattr(domination, "enumerate_gamma_sets", with_whole_vertex_set)
        assert set(self._sweep_violations(capsys)) == {"lemma5"}

    def test_gamma_sets_at_another_gamma_are_caught(self, capsys, monkeypatch):
        # the true sets and count, reported at gamma + 1: lemma5 and cor9
        # hold the enumeration's gamma to the oracle's
        genuine = domination.enumerate_gamma_sets
        monkeypatch.setattr(domination, "enumerate_gamma_sets", lambda g, *args, **kwargs: (
            e := genuine(g, *args, **kwargs))._replace(gamma=e.gamma + 1))
        violations = self._sweep_violations(capsys)
        assert set(violations) == {"lemma5", "cor9"}
        assert violations["lemma5"][0] == {"graph6": "A_", "detail": "enumerated gamma=2, oracle gamma=1"}

    def _summary(self, capsys, argv) -> dict:
        """The --json summary of a one-job sweep, with elapsedMicros zeroed."""
        assert run(["sweep", *argv, "--jobs", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        obj["elapsedMicros"] = 0
        return obj

    @pytest.mark.parametrize("source", [["--input", "FILE"], ["FILE"], ["-"]], ids=["input", "path", "stdin"])
    def test_input_stream_sweep(self, tmp_path, capsys, monkeypatch, source):
        f = write_g6(tmp_path, [g6(g) for g in [cycle(6), fixture("g1"), fixture("g2")]])
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(f.read_bytes()), encoding="ascii"))
        obj = self._summary(capsys, [str(f) if a == "FILE" else a for a in source])
        assert obj["graphs"] == 3 and obj["ok"] is True
        assert obj == self._summary(capsys, ["--input", str(f)])

    def test_generated_sweep_matches_its_stream(self, tmp_path, capsys):
        f = write_g6(tmp_path, [g6(g) for g in enumerate_small_graphs(4, "connected")])
        generated = self._summary(capsys, ["--generate", "enum:4:connected"])
        assert generated["graphs"] == 38
        assert generated == self._summary(capsys, ["--input", str(f)])
        texts = []
        for argv in (["--generate", "enum:4:connected"], ["--input", str(f)]):
            assert run(["sweep", *argv, "--jobs", "1"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("swept 38 graphs") and texts[0] == texts[1]

    def test_fixture_sweeps_one_graph(self, tmp_path, capsys):
        obj = self._summary(capsys, ["--fixture", "g2"])
        assert (obj["graphs"], obj["skippedIsolated"], obj["ok"]) == (1, 0, True)
        assert obj == self._summary(capsys, ["--input", str(write_g6(tmp_path, [g6(fixture("g2"))]))])

    @pytest.mark.parametrize("text, fmt", [("?", "graph6"), ("n 0", "edgelist")])
    def test_the_null_graph_is_no_cor4_case(self, capsys, monkeypatch, text, fmt):
        # cor4 needs minimum degree >= 2, which no vertex of the null graph has
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode() + b"\n"), encoding="ascii"))
        assert run(["sweep", "-", "--format", fmt, "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "  cor4     checked=       0 violations=0\n" in captured.out
        assert captured.err == ""

    def test_human_summary(self, capsys):
        assert run(["sweep", "--max-n", "3", "--jobs", "1", "--claims", "lemma6,bounds"]) == 0
        assert capsys.readouterr().out == (
            "swept 11 graphs (6 skipped with isolated vertices)\n"
            "  bounds   checked=       5 violations=0\n"
            "  lemma6   checked=       5 violations=0\n"
        )

    def test_human_summary_lists_at_most_ten_violations_per_claim(self, capsys, monkeypatch):
        monkeypatch.setattr(sweep, "check_graph",
                            lambda g, claims, oracle_cap: {"bounds": [{"graph6": g6(g), "detail": "planted"}]})
        assert run(["sweep", "--max-n", "3", "--jobs", "1", "--claims", "bounds"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[:2] == ["swept 11 graphs (0 skipped with isolated vertices)",
                             "  bounds   checked=      11 violations=11"]
        assert lines[2:] == [f"    VIOLATION {g6(g)}: planted"
                             for g in islice((g for n in range(1, 4) for g in enumerate_small_graphs(n)), 10)]
        assert captured.err == "claim violation found: this indicates an implementation bug\n"


class TestErrors:
    def test_no_input_source(self, capsys):
        assert run(["classify"]) == 1
        assert capsys.readouterr().err == (
            "twindom classify: exactly one input source required: FILE, --input, --fixture, or --generate\n")

    def test_two_input_sources(self, capsys):
        assert run(["classify", "--fixture", "c6", "--generate", "c5"]) == 1

    def test_unknown_fixture(self, capsys):
        assert run(["classify", "--fixture", "bogus"]) == 1

    def test_unknown_pattern(self, capsys):
        assert run(["check-free", "--fixture", "c6", "--patterns", "c4"]) == 1
        assert capsys.readouterr() == ("", "twindom check-free: unknown pattern 'c4'; expected c3, c6, h1, h2\n")
        for patterns in (",", ""):
            assert run(["check-free", "--fixture", "c6", "--patterns", patterns]) == 1
            assert capsys.readouterr() == ("", "twindom check-free: no patterns given\n")

    def test_missing_file(self, capsys):
        assert run(["classify", "/nonexistent/file.g6"]) == 1

    @pytest.mark.parametrize("text", ["n 1000000000\n", "0 1000000000\n"])
    def test_edgelist_order_is_capped(self, tmp_path, capsys, text):
        f = tmp_path / "huge.edges"
        f.write_text(text)
        assert run(["classify", str(f), "--format", "edgelist"]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("source", [["--fixture", "c40000"], ["--generate", "tree:40000"],
                                        ["--generate", "blockgraph:20000:3"]],
                             ids=["fixture", "tree", "blockgraph"])
    def test_generated_order_is_capped(self, source):
        code, out, err = run_cli(["special", *source, "--json"])
        assert (code, out) == (1, b"")
        assert len(err.splitlines()) == 1
        assert b"exceeds the order cap 32768" in err

    @pytest.mark.parametrize("argv", [["classify", "--jobs", "1"], ["classify", "--jobs", "2"],
                                      ["sweep", "--jobs", "1", "--input"]],
                             ids=["classify-jobs1", "classify-jobs2", "sweep"])
    def test_non_ascii_byte_fails_its_line(self, tmp_path, capsys, argv):
        lines = [g6(g).encode() for g in islice(enumerate_small_graphs(5, "isolate_free"), 80)]
        lines.insert(36, b"B\xffw")  # line 37
        f = tmp_path / "in.g6"
        f.write_bytes(b"\n".join(lines) + b"\n")
        assert len(lines) > graphs.CHUNK
        assert run([*argv, str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"twindom {argv[0]}: line 37: invalid graph6 byte 255 at offset 1\n"
        records = 36 if argv[0] == "classify" else 0
        assert [line.split()[:2] for line in captured.out.splitlines()] == [
            [f"#{i}", line.decode()] for i, line in enumerate(lines[:records])]

    @pytest.mark.parametrize("argv", [["classify", "--jobs", "1"], ["classify", "--jobs", "1", "-"],
                                      ["sweep", "--jobs", "1", "--input"]],
                             ids=["classify", "classify-stdin", "sweep"])
    def test_line_breaks_number_lines_as_splitlines(self, tmp_path, capsys, monkeypatch, argv):
        # \r, \r\n, \x0b, \x0c, \x1c and \x1d all end a line, as in str.splitlines
        data = b"A_\rA_\r\n\r\nBw\x0cA_\x0b\nA_\x1cBw\x1d\n\nE\nA_\n"
        lines = data.decode("ascii").splitlines()
        assert lines.index("E") == 10
        f = tmp_path / "in.g6"
        f.write_bytes(data)
        if argv[-1] == "-":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
        else:
            argv = [*argv, str(f)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"twindom {argv[0]}: line 11: graph6 body has 0 bytes, expected 3 for n=6\n"
        records = [line for line in lines[:10] if line] if argv[0] == "classify" else []
        assert [line.split()[:2] for line in captured.out.splitlines()] == [
            [f"#{i}", line] for i, line in enumerate(records)]

    def test_malformed_graph6(self, tmp_path, capsys):
        f = tmp_path / "bad.g6"
        f.write_text("E\n")
        assert run(["classify", str(f)]) == 1

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank-lines"])
    def test_classify_refuses_a_stream_without_graphs(self, tmp_path, capsys, text):
        f = tmp_path / "in.g6"
        f.write_text(text)
        assert run(["classify", str(f), "--json"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "twindom classify: input contains no graphs\n")

    @pytest.mark.parametrize("text,message", [
        (">>graph6<<\n", "line 1: empty graph6 string"),
        ("A_\n~?\n", "line 2: truncated graph6 size header"),
        ("A_\n\n~~???\n", "line 3: truncated graph6 size header"),
    ], ids=["lone-prefix", "short-tilde", "short-double-tilde"])
    def test_graph6_header_errors(self, tmp_path, capsys, text, message):
        f = tmp_path / "in.g6"
        f.write_text(text)
        assert run(["special", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"twindom special: {message}\n"
        assert captured.out == ("#0 A_ special={0,1} classes=[{0,1}]\n" if text.startswith("A_") else "")

    @pytest.mark.parametrize("text,message", [
        ("n x\n0 1\n", "line 1: header count is not an integer"),
        ("n -1\n", "line 1: header count is negative"),
        ("0 1\n1 2 3\n", "line 2: expected two tokens, got 3"),
    ], ids=["not-an-integer", "negative", "three-tokens"])
    def test_edgelist_header_errors(self, tmp_path, capsys, text, message):
        f = tmp_path / "g.edges"
        f.write_text(text)
        assert run(["classify", str(f), "--format", "edgelist"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"twindom classify: {message}\n")

    def test_sweep_needs_a_source(self, capsys):
        # --max-n is one more source, offered by sweep alone
        message = ("twindom sweep: exactly one input source required: "
                   "FILE, --input, --fixture, --generate, or --max-n\n")
        for argv in ([], ["--max-n", "3", "--input", "x.g6"], ["--max-n", "3", "--fixture", "c6"]):
            assert run(["sweep", *argv, "--jobs", "1"]) == 1
            assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("argv,message", [
        (["--max-n", "0"], "--max-n must be at least 1"),
        (["--max-n", "-3"], "--max-n must be at least 1"),
        (["--input", "EMPTY"], "input contains no graphs"),
        (["--max-n", "3", "--claims", ","], "no claims given"),
    ], ids=["max-n-0", "max-n-negative", "empty-input", "no-claims"])
    def test_a_sweep_that_checks_nothing_is_a_usage_error(self, tmp_path, capsys, argv, message):
        (tmp_path / "empty.g6").write_text("\n\n")
        argv = [str(tmp_path / "empty.g6") if a == "EMPTY" else a for a in argv]
        assert run(["sweep", *argv, "--jobs", "1", "--json"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"twindom sweep: {message}\n")

    def test_sweep_rejects_unknown_claim(self, capsys):
        assert run(["sweep", "--max-n", "3", "--claims", "lemma99"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("twindom sweep: unknown claim 'lemma99'; expected from ('bounds', ")

    def test_enumeration_cap(self, capsys):
        assert run(["classify", "--generate", "enum:8"]) == 1

    def test_sweep_enumeration_cap_builds_no_graph(self, capsys, monkeypatch):
        built = []
        genuine = Graph.__dict__["from_masks"].__func__
        monkeypatch.setattr(Graph, "from_masks", classmethod(
            lambda cls, *args, **kwargs: built.append(args[0]) or genuine(cls, *args, **kwargs)))
        message = ("exhaustive enumeration is limited to n <= 7; "
                   "supply larger corpora as a graph6 stream (--input)\n")
        assert run(["generate", "enum:8"]) == 1
        assert capsys.readouterr().err == f"twindom generate: {message}"
        assert run(["sweep", "--max-n", "8", "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"twindom sweep: {message}")
        assert built == []

    def test_usage_error_exit_code_is_one(self):
        with pytest.raises(SystemExit) as err:
            run(["classify", "--fallback", "sometimes", "--fixture", "c6"])
        assert err.value.code == 1

    def test_oracle_cap_propagates_as_usage_error(self, capsys):
        assert run(["gamma", "--generate", "corona:c20", "--oracle-cap", "32"]) == 1
        assert "cap" in capsys.readouterr().err

    def test_a_too_deep_exact_search_fails_in_one_line(self, tmp_path):
        # a perfect matching: each of its gamma = n/2 chosen vertices is one
        # more nested call of the cover search
        def matching(n):
            f = tmp_path / f"m{n}.el"
            f.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(n // 2)))
            return [str(f), "--format", "edgelist", "--oracle-cap", "5000", "--json"]
        for command in ("gamma", "analyze"):
            code, out, err = run_cli([command, *matching(2000)])
            assert (code, out) == (1, b"")
            assert err == (f"twindom {command}: exact search too deep: covers of 1000 vertices "
                           f"reach Python's recursion limit ({sys.getrecursionlimit()})\n").encode()
        code, out, err = run_cli(["gamma", *matching(1900)])
        assert (code, err) == (0, b"")
        assert json.loads(out)["value"] == 950


class ReadRecorder(argparse.Namespace):
    """A namespace that notes every public name read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def unread_arguments(monkeypatch, argv) -> list[str]:
    """The arguments of ``argv``'s command, by dest, that a run of it never
    reads: argparse sets each one on the namespace, and its own reads
    are forgotten before the command runs."""
    genuine, parsed = cli.build_parser, []

    def recording_parser(*command):
        parser = genuine(*command)
        parse = parser.parse_args

        def parse_args(args):
            parsed.append(namespace := parse(args, ReadRecorder()))
            namespace._reads.clear()
            return namespace
        parser.parse_args = parse_args
        return parser
    monkeypatch.setattr(cli, "build_parser", recording_parser)
    assert run(argv) == 0
    (namespace,) = parsed
    return sorted(name for name in vars(namespace) if not name.startswith("_") and name not in namespace._reads)


def foreign_options() -> list[tuple[str, str, list[str]]]:
    """(command, flag, its value) for each command and each option that
    another command takes and it does not."""
    options = {flag: kwargs for _, _, arguments in cli.COMMANDS.values()
               for flag, kwargs in arguments if flag.startswith("--")}
    return [(command, flag, [] if options[flag].get("action") == "store_true" else ["1"])
            for command, (_, _, arguments) in cli.COMMANDS.items()
            for flag in options if flag not in {f for f, _ in arguments}]


class TestCommandTable:
    # c6 also sends count-gamma-sets down its enumeration branch
    RUNS = {**{command: [command, "GRAPHS", "--json"] for command in [*PER_GRAPH_COMMANDS, "sweep"]},
            "generate": ["generate", "c6"]}
    FOREIGN = foreign_options()

    @pytest.fixture
    def graphs(self, tmp_path):
        f = tmp_path / "in.g6"
        f.write_text(f"{g6(cycle(6))}\n{g6(fixture('k3'))}\n")
        return str(f)

    def test_every_command_is_run(self):
        assert sorted(self.RUNS) == sorted(cli.COMMANDS)

    @pytest.mark.parametrize("command", RUNS)
    def test_every_argument_is_read(self, monkeypatch, graphs, command):
        argv = [graphs if a == "GRAPHS" else a for a in self.RUNS[command]]
        assert unread_arguments(monkeypatch, argv) == []

    def test_an_unread_argument_is_reported(self, monkeypatch, graphs):
        runner, help_text, arguments = cli.COMMANDS["gamma"]
        monkeypatch.setitem(cli.COMMANDS, "gamma", (
            runner, help_text, (*arguments, ("--unread", dict(action="store_true")))))
        assert unread_arguments(monkeypatch, ["gamma", graphs, "--json"]) == ["unread"]

    @staticmethod
    def _subparsers(parser) -> dict:
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_a_one_command_parser_prints_what_the_full_parser_does(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
        alone = self._subparsers(cli.build_parser(command))
        assert list(alone) == [command]
        full = self._subparsers(cli.build_parser())[command]
        assert (alone[command].format_help(), alone[command].format_usage()) == (
            full.format_help(), full.format_usage())

    @pytest.mark.parametrize("argv, code", [(["-h"], 0), ([], 1), (["bogus"], 1)],
                             ids=["help", "no-command", "unknown-command"])
    def test_a_run_naming_no_command_lists_every_command(self, capsys, monkeypatch, argv, code):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exited:
            run(argv)
        out, err = capsys.readouterr()
        assert exited.value.code == code
        assert "{" + ",".join(cli.COMMANDS) + "}" in out + err

    @pytest.mark.parametrize("command, flag, value", FOREIGN, ids=[f"{c} {f}" for c, f, _ in FOREIGN])
    def test_a_foreign_option_is_refused_under_the_commands_usage(self, capsys, command, flag, value):
        source = ["c6"] if command == "generate" else ["--fixture", "c6"]
        with pytest.raises(SystemExit) as exited:
            run([command, *source, flag, *value])
        out, err = capsys.readouterr()
        assert (exited.value.code, out) == (1, "")
        assert err.startswith(f"usage: twindom {command} ")
        assert err.splitlines()[-1].startswith(f"twindom {command}: unrecognized arguments: {flag}")


class TestHostileInput:
    """Seeded hostile input through the in-process CLI: mutated graph6
    lines, random edge lists and bad generator specs. No exception escapes
    ``run``, the exit code is 0 or 1, stderr holds no traceback, and
    ``--jobs 2`` prints what ``--jobs 1`` prints."""

    CASES = 150
    # spec fields: small orders, values below each minimum, non-integers and
    # values over the caps, so that every spec builds a small graph or fails
    FIELDS = ["-1", "0", "1", "2", "3", "x", "", "99999999"]
    HEADS = ["tree", "blockgraph", "enum", "corona", "c3", "k4", "p0", "star2", "fig1", "h9", "c99999999"]

    @staticmethod
    def _mutated(rng, text: bytes) -> bytes:
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            at = rng.randrange(len(text) + 1)
            text = rng.choice((
                text[:at] + bytes([rng.randrange(256)]) + text[at:],  # an inserted byte
                text[:at] + text[at + 1:],  # a deleted byte
                text[:at],  # cut short
                rng.choice((b">>graph6<<", b"~", b"~~", b"\r", b"\x0c ")) + text,
            ))
        return text

    def _graph6_input(self, rng) -> bytes:
        if rng.random() < 0.15:
            # more than CHUNK isolate-free lines, one of them mutated near or
            # past the CHUNK-th, so that under --jobs 2 a worker may meet it
            lines = [g6(g).encode() for g in islice(enumerate_small_graphs(5, "isolate_free"),
                                                     rng.randrange(100), None, 7)]
            lines = lines[:graphs.CHUNK + rng.randrange(1, 9)]
            at = rng.randrange(graphs.CHUNK - 4, len(lines))
            lines[at] = self._mutated(rng, lines[at])
        else:
            lines = []
            for _ in range(rng.randrange(1, 5)):
                n = rng.randrange(11)
                pairs = [(u, v) for v in range(n) for u in range(v)]
                lines.append(self._mutated(rng, serialize_graph6(
                    Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1))))))
        return b"\n".join(lines) + rng.choice((b"", b"\n", b"\r\n"))

    @staticmethod
    def _edgelist_input(rng) -> bytes:
        token = lambda: rng.choice(("-1", "0", "1", "2", "5", "11", "a", "b", "x y", "40000", "1.5", "\xff"))
        rows = [f"n {rng.choice(('-1', '0', '3', '12', 'x', '40000'))}"] if rng.random() < 0.4 else []
        rows += [" ".join(token() for _ in range(rng.choice((1, 2, 2, 2, 3)))) for _ in range(rng.randrange(6))]
        return "\n".join(rows).encode("utf-8", "surrogateescape") + rng.choice((b"", b"\n", b"\x80"))

    def _spec(self, rng) -> str:
        fields = [rng.choice(self.FIELDS) for _ in range(rng.randrange(4))]
        return ":".join([rng.choice(self.HEADS), *fields])

    @pytest.mark.parametrize("command", [*PER_GRAPH_COMMANDS, "sweep"])
    def test_no_exception_escapes_the_cli(self, tmp_path, capsys, monkeypatch, command):
        rng = random.Random(f"hostile {command}")
        monkeypatch.setattr(fanout.os, "cpu_count", lambda: 2)  # a real fan-out, even on one CPU
        f = tmp_path / "input"
        codes = set()
        for _ in range(self.CASES):
            kind = rng.choice(("graph6", "edgelist", "generate"))
            if kind == "generate":
                argv = [command, f"--generate={self._spec(rng)}"]
            else:
                f.write_bytes(self._graph6_input(rng) if kind == "graph6" else self._edgelist_input(rng))
                argv = [command, str(f), "--format", kind]
            argv += rng.choice(([], ["--json"]))
            runs = []
            for jobs in (["--jobs", "1"], ["--jobs", "2"]) if command in ("classify", "sweep") else ([],):
                code = run([*argv, *jobs])
                captured = capsys.readouterr()
                assert code in (0, 1), argv
                assert "Traceback" not in captured.err, argv
                runs.append((code, re.sub(r'"elapsedMicros":\d+', "", captured.out), captured.err))
                codes.add(code)
            assert runs[0] == runs[-1], argv
        assert codes == {0, 1}  # the cases reach both outcomes
