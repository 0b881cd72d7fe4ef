from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

import twindom
from twindom import characterize, cli, domination, forbidden, generators, graphs, structure, sweep
from twindom.cli import run
from twindom.generators import cycle, enumerate_small_graphs, fixture
from twindom.graphs import Graph, parse_edgelist, parse_graph6, serialize_graph6

from conftest import blow_up, brute_find_induced, is_gamma2_exact


def g6(g) -> str:
    return serialize_graph6(g).decode("ascii")


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

    def test_parallel_batch_matches_serial(self, tmp_path, capsys):
        graphs = list(enumerate_small_graphs(4, "isolate_free"))
        f = tmp_path / "n4.g6"
        f.write_text("\n".join(g6(g) for g in graphs) + "\n")
        serial = run_json(capsys, ["classify", str(f), "--json", "--jobs", "1"])
        parallel = run_json(capsys, ["classify", str(f), "--json", "--jobs", "2"])
        strip = lambda o: {k: v for k, v in o.items() if k != "elapsedMicros"}
        assert list(map(strip, serial)) == list(map(strip, parallel))

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

    def test_check_free_c3_keeps_the_least_triangle(self, tmp_path, capsys):
        # K5 is all true twins: collapsing them would leave no triangle
        f = write_g6(tmp_path, [g6(generators.complete(5))])
        (obj,) = run_json(capsys, ["check-free", str(f), "--patterns", "c3", "--json"])
        assert obj["witness"] == {"pattern": "c3", "mapping": [0, 1, 2]}

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


PER_GRAPH_COMMANDS = ["classify", "analyze", "gamma", "gamma-t", "special", "s-set",
                      "count-gamma-sets", "check-free"]


CLI = [sys.executable, "-c", "from twindom.cli import main; main()"]


def cli_env() -> dict:
    src = str(Path(twindom.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_cli(argv, timeout=60) -> tuple[int, bytes, bytes]:
    """Run the CLI in a new session; (exit status, stdout, stderr). The
    session is killed if the run does not end within ``timeout`` s."""
    proc = subprocess.Popen([*CLI, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=cli_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"twindom {' '.join(argv)} did not end within {timeout} s")
    return proc.returncode, out, err


def assert_session_ends(group: int, within: float = 30) -> None:
    """Fail unless every process of the session ``group`` is gone in time."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            os.killpg(group, 0)  # any worker still alive in the session?
        except ProcessLookupError:
            return
        time.sleep(0.05)
    os.killpg(group, signal.SIGKILL)
    pytest.fail("a pool worker outlived the CLI")


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
        lines = [g6(g) for g in enumerate_small_graphs(4, "isolate_free")]
        assert len(lines) > sweep.POOL_MIN_RECORDS
        f = write_g6(tmp_path, lines)
        calls = self._count_codec_calls(monkeypatch)
        objs = run_json(capsys, ["classify", str(f), "--json", "--jobs", "2"])
        assert [o["graph6"] for o in objs] == lines
        assert calls == {"parse_graph6": 0, "serialize_graph6": 0}

    def test_records_before_a_failing_line_are_written(self, tmp_path, capsys):
        lines = [g6(g) for g in islice(enumerate_small_graphs(5, "isolate_free"), 45)]
        lines.insert(40, "E")  # line 41: size header without its body
        f = write_g6(tmp_path, lines)
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

        class EndlessStdin(io.RawIOBase):
            """A malformed line 1, then valid lines without end; reading
            past ``limit`` bytes fails the test."""
            pending, served = b"E\n", 0

            def readable(self):
                return True

            def readinto(self, buf):
                assert self.served < limit, f"read {self.served} bytes and line 1 is not parsed yet"
                while len(self.pending) < len(buf):
                    self.pending += b"A_\n" * 4096
                k = len(buf)
                buf[:k], self.pending = self.pending[:k], self.pending[k:]
                self.served += k
                return k

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BufferedReader(EndlessStdin()), encoding="ascii"))
        assert run(["classify", "-", "--jobs", "1"]) == 1
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


class TestFanOut:
    """classify and sweep share one ordered fan-out to worker processes."""

    @pytest.mark.parametrize("argv", [["classify", "--fallback", "oracle"], ["sweep", "--input"]],
                             ids=["classify", "sweep"])
    def test_worker_error_ends_like_serial_run(self, tmp_path, argv):
        # line 36: a hexagon and a disjoint 36-vertex path, ineligible and
        # above the oracle cap, so its worker raises OracleCapExceeded
        big = Graph(42, [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 1) for i in range(6, 41)])
        lines = [g6(g) for g in islice(enumerate_small_graphs(4, "isolate_free"), 39)]
        lines.insert(35, g6(big))
        f = write_g6(tmp_path, lines)
        runs = [run_cli([*argv, str(f), "--jobs", jobs]) for jobs in ("1", "2")]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 1
        assert b"exact search refused: n=42 exceeds oracle cap 32" in err
        assert b"Traceback" not in err
        assert len(out.splitlines()) == (35 if argv[0] == "classify" else 0)

    @pytest.mark.skipif(sys.platform != "linux", reason="workers die with their parent on Linux")
    def test_sweep_workers_die_with_the_cli(self):
        proc = subprocess.Popen([*CLI, "sweep", "--max-n", "6", "--jobs", "2"],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                env=cli_env(), start_new_session=True)
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 30
        try:
            while len(children.read_text().split()) < 2:  # until both workers run
                assert time.monotonic() < deadline, "the sweep started no pool"
                time.sleep(0.05)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            raise
        proc.kill()
        proc.wait(timeout=30)
        assert_session_ends(proc.pid)

    @pytest.mark.parametrize("given, survives", [("os.getppid()", True), ("os.getpid()", False)],
                             ids=["parent-alive", "parent-gone"])
    def test_worker_start_checks_its_parent(self, given, survives):
        # a worker whose parent died before PR_SET_PDEATHSIG was armed has
        # been re-parented, so its parent is no longer the pid it was handed
        code = f"import os\nfrom twindom import sweep\nsweep._die_with_parent({given})\nprint('ran')"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=cli_env(), timeout=60)
        assert proc.stderr == b""
        assert (proc.returncode, proc.stdout) == ((0, b"ran\n") if survives else (1, b""))

    def test_sweep_pool_parent_never_reencodes(self, tmp_path, capsys, monkeypatch):
        lines = [g6(g) for g in enumerate_small_graphs(4)]
        assert len(lines) > sweep.POOL_MIN_RECORDS
        f = write_g6(tmp_path, lines)
        calls = TestPerGraphDriver._count_codec_calls(monkeypatch)
        assert run(["sweep", "--input", str(f), "--jobs", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["graphs"] == len(lines)
        assert calls == {"parse_graph6": len(lines), "serialize_graph6": 0}

    def test_small_input_sweep_is_identical_at_any_jobs(self, tmp_path, capsys):
        lines = [g6(g) for g in islice(enumerate_small_graphs(4), 20, 20 + sweep.POOL_MIN_RECORDS)]
        f = write_g6(tmp_path, lines)
        outs = []
        for jobs in ("1", "2"):
            assert run(["sweep", "--input", str(f), "--jobs", jobs, "--json"]) == 0
            outs.append(re.sub(r'"elapsedMicros":\d+', '"elapsedMicros":0', capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["graphs"] == sweep.POOL_MIN_RECORDS

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_pool_size_is_clamped_to_the_cpu_count(self, tmp_path, capsys, monkeypatch, command):
        # the fake pool records the size asked for and maps in this process,
        # so a huge --jobs starts no process
        sizes = []

        class FakePool:
            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(sweep, "get_context", lambda method=None: SimpleNamespace(Pool=FakePool))
        lines = [g6(g) for g in enumerate_small_graphs(4, "isolate_free")]
        assert len(lines) > sweep.POOL_MIN_RECORDS
        f = str(write_g6(tmp_path, lines))
        argv = ["classify", f] if command == "classify" else ["sweep", "--input", f]
        outs = []
        for cpus, jobs in ((3, "1"), (3, "100000"), (None, "100000")):
            monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
            assert run([*argv, "--json", "--jobs", jobs]) == 0
            outs.append(re.sub(r'"elapsedMicros":\d+', '"elapsedMicros":0', capsys.readouterr().out))
        # an unknown CPU count counts as one CPU: no pool at all
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
                return dataclasses.replace(rep, verdict="is_gamma2")
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
        # witness answers it, and with none only a triangle search is left
        corpus = [g6(g) for n in range(1, 6) for g in enumerate_small_graphs(n, "isolate_free")]
        free = [g for g in corpus if forbidden.is_free(parse_graph6(g))[0]]
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
        assert sorted(calls["c3"]) == sorted(free)

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
            return dataclasses.replace(e, sets=e.sets + (frozenset(range(g.n)),))

        monkeypatch.setattr(domination, "enumerate_gamma_sets", with_whole_vertex_set)
        assert set(self._sweep_violations(capsys)) == {"lemma5"}

    def test_input_stream_sweep(self, tmp_path, capsys):
        f = tmp_path / "graphs.g6"
        f.write_text("\n".join(g6(g) for g in [cycle(6), fixture("g1"), fixture("g2")]) + "\n")
        assert run(["sweep", "--input", str(f), "--jobs", "1", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["graphs"] == 3 and obj["ok"] is True


class TestErrors:
    def test_no_input_source(self, capsys):
        assert run(["classify"]) == 1
        assert "input source" in capsys.readouterr().err

    def test_two_input_sources(self, capsys):
        assert run(["classify", "--fixture", "c6", "--generate", "c5"]) == 1

    def test_unknown_fixture(self, capsys):
        assert run(["classify", "--fixture", "bogus"]) == 1

    def test_unknown_pattern(self, capsys):
        assert run(["check-free", "--fixture", "c6", "--patterns", "c4"]) == 1

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
        lines = [g6(g).encode() for g in islice(enumerate_small_graphs(4, "isolate_free"), 40)]
        lines.insert(36, b"B\xffw")  # line 37
        f = tmp_path / "in.g6"
        f.write_bytes(b"\n".join(lines) + b"\n")
        assert len(lines) > sweep.POOL_MIN_RECORDS
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

    def test_sweep_needs_a_source(self, capsys):
        assert run(["sweep", "--jobs", "1"]) == 1
        assert run(["sweep", "--max-n", "3", "--input", "x.g6"]) == 1

    def test_sweep_rejects_unknown_claim(self, capsys):
        assert run(["sweep", "--max-n", "3", "--claims", "lemma99"]) == 1

    def test_enumeration_cap(self, capsys):
        assert run(["classify", "--generate", "enum:8"]) == 1

    def test_usage_error_exit_code_is_one(self):
        with pytest.raises(SystemExit) as err:
            run(["classify", "--fallback", "sometimes", "--fixture", "c6"])
        assert err.value.code == 1

    def test_oracle_cap_propagates_as_usage_error(self, capsys):
        assert run(["gamma", "--generate", "corona:c20", "--oracle-cap", "32"]) == 1
        assert "cap" in capsys.readouterr().err
