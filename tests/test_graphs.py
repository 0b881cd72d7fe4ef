from __future__ import annotations

import pickle
import random
import sys

import pytest
from hypothesis import given

from twindom import classify, forbidden
from twindom.generators import complete, cycle, enumerate_small_graphs, fixture, path, star
from twindom.domination import is_dominating
from twindom.graphs import (
    Graph,
    MAX_ORDER,
    GraphParseError,
    bit_indices,
    parse_edgelist,
    parse_graph6,
    serialize_graph6,
)

from conftest import small_graphs


def edgelist_text(g: Graph) -> bytes:
    """``g`` in the edge-list format, with the order fixed by a header."""
    return "".join([f"n {g.n}\n", *(f"{u} {v}\n" for u, v in g.edges())]).encode("ascii")


class TestNeighborhoods:
    # adj[v] is N(v) and closed[v] is N[v]; a set's N[S] is the union of
    # closed masks, which is_dominating compares with the full mask
    def test_fig1_open_neighborhood_of_v5(self):
        g = fixture("fig1")
        assert set(bit_indices(g.adj[4])) == {0, 1, 3, 6}  # v5 -> {v1,v2,v4,v7}

    def test_k2(self):
        g = complete(2)
        assert set(bit_indices(g.adj[0])) == {1}

    def test_c6(self):
        assert set(bit_indices(cycle(6).adj[0])) == {1, 5}

    def test_fig1_closed_neighborhood_of_v1(self):
        g = fixture("fig1")
        assert set(bit_indices(g.closed[0])) == {0, 1, 2, 3, 4, 5}

    def test_isolated_closed(self):
        assert set(bit_indices(Graph(3).closed[1])) == {1}

    def test_k4_closed(self):
        assert set(bit_indices(complete(4).closed[2])) == {0, 1, 2, 3}

    def test_set_neighborhood_antipodal_pair_covers_c6(self):
        g = cycle(6)
        assert g.closed[0] | g.closed[3] == g.full

    def test_set_neighborhood_empty(self):
        assert not is_dominating(cycle(6), set())
        assert is_dominating(Graph(0), set())

    def test_set_neighborhood_fig1_v1_misses_far_pair(self):
        g = fixture("fig1")
        assert list(bit_indices(g.full & ~g.closed[0])) == [6, 7]
        assert not is_dominating(g, {0})

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            cycle(3).check_vertex(3)
        with pytest.raises(ValueError):
            is_dominating(cycle(3), {-1})

    @given(small_graphs())
    def test_closed_is_open_plus_self(self, g):
        for v in range(g.n):
            assert g.closed[v] == g.adj[v] | 1 << v
            assert g.closed[v].bit_count() == g.degree(v) + 1

    @given(small_graphs())
    def test_set_neighborhood_monotone(self, g):
        # growing a set never undoes domination, and all of V dominates
        grown = [is_dominating(g, range(k)) for k in range(g.n + 1)]
        assert grown == sorted(grown) and grown[-1]


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_rejects_a_negative_order_and_a_label_count_off_the_order(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            Graph(-1)
        with pytest.raises(ValueError, match="^labels must have one entry per vertex$"):
            Graph(2, labels=["a"])

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_symmetry_everywhere(self):
        for g in (fixture("fig1"), fixture("g2"), star(3), Graph(4, [(2, 0), (3, 1)])):
            for u in range(g.n):
                for v in range(g.n):
                    assert g.has_edge(u, v) == g.has_edge(v, u)
                assert not g.has_edge(u, u)

    def test_equality_ignores_labels(self):
        a = Graph(2, [(0, 1)], labels=("x", "y"))
        b = Graph(2, [(0, 1)])
        assert a == b

    def test_edges_sorted(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 2)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]

    @pytest.mark.parametrize("g", [fixture("fig1"), fixture("g2"), Graph(8, list(cycle(7).edges()))],
                             ids=["fig1", "g2", "c7-and-isolated"])
    def test_pickles_by_value(self, g):
        # the closed masks and the pattern-search memo are derived, so
        # searching the graph leaves its pickle as it was
        before = pickle.dumps(g)
        if all(g.adj):
            classify(g)
        forbidden.is_free(g)
        assert g._cores is not None
        assert pickle.dumps(g) == before
        twin = pickle.loads(before)
        assert (twin, hash(twin), twin.labels, twin.closed) == (g, hash(g), g.labels, g.closed)
        assert twin._cores is None


class TestGraph6:
    def test_k2_is_known_encoding(self):
        # hand-computed: n=2 -> 'A'; single upper-triangle bit padded -> '_'
        assert serialize_graph6(complete(2)) == b"A_"
        assert parse_graph6(b"A_") == complete(2)

    def test_single_vertex(self):
        data = serialize_graph6(Graph(1))
        assert parse_graph6(data) == Graph(1)

    def test_round_trip_all_small(self):
        for n in range(1, 6):
            for g in enumerate_small_graphs(n):
                assert parse_graph6(serialize_graph6(g)) == g

    def test_round_trip_fixtures(self):
        for name in ("fig1", "h1", "h2", "g1", "g2", "c6", "p12", "star5", "k7"):
            g = fixture(name)
            assert parse_graph6(serialize_graph6(g)) == g

    def test_header_prefix_accepted(self):
        assert parse_graph6(b">>graph6<<A_") == complete(2)

    def test_large_order_header(self):
        g = Graph(70, [(0, 69)])
        assert parse_graph6(serialize_graph6(g)) == g

    def test_malformed_body_length(self):
        with pytest.raises(GraphParseError):
            parse_graph6(b"E")  # order 6 but no body

    def test_invalid_byte(self):
        with pytest.raises(GraphParseError):
            parse_graph6(b"A\x07")

    def test_error_texts(self):
        with pytest.raises(GraphParseError, match=r"^line 4: graph6 body has 0 bytes, expected 3 for n=6$"):
            parse_graph6(b"E", line=4)
        with pytest.raises(GraphParseError, match=r"^graph6 body has 2 bytes, expected 1 for n=3$"):
            parse_graph6(b"Bw?")
        with pytest.raises(GraphParseError, match=r"^invalid graph6 byte 7 at offset 1$"):
            parse_graph6(b"A\x07")
        # a non-ASCII byte decoded with surrogateescape is reported as that byte
        for data in (b"B\xffw", "B\udcffw"):
            with pytest.raises(GraphParseError, match=r"^line 3: invalid graph6 byte 255 at offset 1$"):
                parse_graph6(data, line=3)

    @pytest.mark.parametrize(
        "data, text",
        [
            (b"\x07A_", "invalid graph6 byte 7 at offset 0"),  # in the size header
            (b"Ew\x01?", "invalid graph6 byte 1 at offset 2"),  # in the body
            (b"Bw\xc3\xa9", "invalid graph6 byte 195 at offset 2"),  # non-ASCII
            (b"E?\x02\x01", "invalid graph6 byte 2 at offset 2"),  # two bad bytes: the first
            (b"E\x7f?\x01", "invalid graph6 byte 127 at offset 1"),
            (b"E\x01?\x01", "invalid graph6 byte 1 at offset 1"),  # one bad byte twice
            (b">>graph6<<A\x07", "invalid graph6 byte 7 at offset 1"),  # offset after the prefix
        ],
    )
    def test_invalid_byte_texts(self, data, text):
        with pytest.raises(GraphParseError) as e:
            parse_graph6(data, line=3)
        assert str(e.value) == f"line 3: {text}"

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 127, 128, 129, 300])
    def test_round_trip_across_column_blocks(self, n):
        # the decoder reads 64 columns at a time
        rng = random.Random(n)
        for p in (0, 0.5, 1):
            g = Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
            assert parse_graph6(serialize_graph6(g)) == g

    def test_round_trip_every_padding_residue(self):
        # the body pads the triangle to whole digits, the decoder pads the
        # digits to whole base64 quads; set padding bits must not leak
        rng = random.Random(6)
        pad_bits, quad_rests = set(), set()
        for n in range(2, 40):
            for p in (0, 0.5, 1):
                g = Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
                data = serialize_graph6(g)
                pad = -(n * (n - 1) // 2) % 6
                noisy = data[:-1] + bytes([63 + ((data[-1] - 63) | ((1 << pad) - 1))])
                assert parse_graph6(data) == parse_graph6(noisy) == g
                pad_bits.add(pad)
                quad_rests.add(len(data[1:]) % 4)
        assert pad_bits == {0, 2, 3, 5} and quad_rests == {0, 1, 2, 3}

    def test_padding_bits_are_ignored(self):
        # Bw: n=3 with edges 01, 02, 12 and zero padding; B~ sets the padding
        assert parse_graph6(b"B~") == parse_graph6(b"Bw") == complete(3)

    def test_eight_byte_size_header(self):
        assert parse_graph6(b"~~?????Bw") == complete(3)

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        orders = set()
        for _ in range(200):
            n = round(20 * 15 ** rng.random())  # log-uniform on 20..300: networkx is O(n^2)
            p = rng.choice((0.01, 0.1, 0.5, 0.9))
            edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
            g = Graph(n, edges)
            h = nx.Graph()
            h.add_nodes_from(range(n))  # networkx numbers vertices in insertion order
            h.add_edges_from(edges)
            theirs = nx.to_graph6_bytes(h, nodes=range(n), header=False)
            assert serialize_graph6(g) + b"\n" == theirs
            assert parse_graph6(theirs) == g
            orders.add(n)
        # both the 1-byte and the 4-byte size headers occur
        assert min(orders) <= 62 < max(orders)

    @given(small_graphs(max_n=12))
    def test_round_trip_property(self, g):
        assert parse_graph6(serialize_graph6(g)) == g


class TestEdgelist:
    def test_simple_path(self):
        assert parse_edgelist(b"0 1\n1 2") == path(3)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError):
            parse_edgelist(b"0 0")

    def test_header_fixes_order(self):
        g = parse_edgelist(b"n 4\n0 1")
        assert g.n == 4
        assert g.edge_count == 1

    def test_id_beyond_header_rejected(self):
        with pytest.raises(GraphParseError) as err:
            parse_edgelist(b"n 2\n0 5")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("text, line", [
        (f"n {MAX_ORDER + 1}\n", 1),
        (f"0 1\n0 {MAX_ORDER}\n", 2),
        # the first label past the cap appears on the last line
        ("".join(f"a{i} b{i}\n" for i in range(MAX_ORDER // 2)) + "c d\n", MAX_ORDER // 2 + 1),
    ], ids=["header", "vertex-id", "labels"])
    def test_order_cap_rejected_before_allocation(self, text, line):
        with pytest.raises(GraphParseError) as err:
            parse_edgelist(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text, message", [
        ("".join(f"a{2 * i} a{2 * i + 1}\n" for i in range(MAX_ORDER // 2 + 1)),
         f"line {MAX_ORDER // 2 + 1}: label 'a{MAX_ORDER}' needs more than {MAX_ORDER} vertices"),
        # x takes id 0, so the label past the cap is the second of its line
        ("".join(f"x y{i}\n" for i in range(MAX_ORDER)),
         f"line {MAX_ORDER}: label 'y{MAX_ORDER - 1}' needs more than {MAX_ORDER} vertices"),
    ], ids=["first-token", "second-token"])
    def test_label_count_cap_names_the_first_label_past_it(self, text, message):
        with pytest.raises(GraphParseError, match=f"^{message}$"):
            parse_edgelist(text)

    def test_labels_first_appearance_order(self):
        g = parse_edgelist(b"v1 v2\nv2 v3")
        assert g.n == 3
        assert g.labels == ("v1", "v2", "v3")
        assert g == path(3)

    def test_mixed_tokens_are_all_labels_in_first_appearance_order(self):
        g = parse_edgelist(b"3 a\n1 3\na 0")
        assert g.labels == ("3", "a", "1", "0")
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 3)]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit here")
    def test_a_numeral_too_long_for_int_fails_at_its_line_under_any_digit_limit(self):
        # int() refuses more than 4,300 digits under Python's default limit
        # and reads any number under a limit of 0; the file decides alone
        text = f"{'1' * 4301} 0\n0 2"
        with pytest.raises(GraphParseError) as default:
            parse_edgelist(text)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(GraphParseError) as unlimited:
                parse_edgelist(text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(default.value) == str(unlimited.value) == (
            f"line 1: vertex id {'1' * 20}... needs more than {MAX_ORDER} vertices")

    def test_numerals_with_leading_zeros_are_ids(self):
        g = parse_edgelist(f"{'0' * 5000}1 002\n0 1")
        assert (g.labels, sorted(g.edges())) == (None, [(0, 1), (1, 2)])

    def test_grid_labels_are_labels(self):
        # int() reads 1_1 as 11, which made this 4-cycle a 12-vertex graph
        g = parse_edgelist(b"0_0 0_1\n0_1 1_1\n1_1 1_0\n1_0 0_0\n")
        assert g == cycle(4)
        assert g.labels == ("0_0", "0_1", "1_1", "1_0")

    @pytest.mark.parametrize("text", ["-1 0", "+1 0", "\u0661 \u0662", "\u00b2 1"],
                             ids=["minus", "plus", "arabic-indic", "superscript"])
    def test_a_token_of_other_than_ascii_digits_makes_every_token_a_label(self, text):
        g = parse_edgelist(text.encode("utf-8"))
        assert g.labels == tuple(text.split())
        assert g == path(2)

    def test_duplicates_collapse(self):
        g = parse_edgelist(b"0 1\n1 0")
        assert g.edge_count == 1

    def test_round_trip(self):
        for name in ("fig1", "g1", "g2"):
            g = fixture(name)
            assert parse_edgelist(edgelist_text(g)) == g

    @given(small_graphs(max_n=12))
    def test_round_trip_property(self, g):
        assert parse_edgelist(edgelist_text(g)) == g
