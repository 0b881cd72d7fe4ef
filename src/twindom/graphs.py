"""Immutable simple-graph representation, basic queries, the graph6 format,
and the ordered map that the per-graph commands and the sweep run over
their input graphs.

Vertices are dense integer ids ``0..n-1``. Adjacency is stored as one
bitmask per vertex, so neighborhood intersection, union, and containment
tests are single integer operations regardless of degree. All analyses in
the package are pure functions over these immutable values, which makes
them safe to share across worker processes.
"""

from __future__ import annotations

import binascii
import os
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

GRAPH6_MAX_N = 68719476735  # largest order representable in the 8-byte size header
# largest order edgelist.parse_edgelist accepts: its header and vertex ids are
# not tied to the input size, and at this order the closed masks alone take ~64 MiB
MAX_ORDER = 1 << 15


class GraphParseError(ValueError):
    """Malformed graph text. Carries the offending line (1-based) when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """An immutable simple undirected graph.

    ``adj[v]`` is the open-neighborhood bitmask of ``v`` and ``closed[v]``
    additionally contains ``v`` itself. ``labels``, when present, holds one
    external display name per vertex and never takes part in equality.
    ``_cores`` is where :func:`twindom.forbidden.find_induced` keeps the
    reduced hosts and the sorted degree sequence it derives from the graph,
    and takes no part either. A pickle holds ``n``, ``adj`` and ``labels``.
    """

    __slots__ = ("n", "adj", "closed", "full", "labels", "_cores")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), labels: Sequence[str] | None = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._init_from_masks(n, masks, labels)

    def _init_from_masks(self, n: int, masks: Sequence[int], labels: Sequence[str] | None) -> None:
        self.n = n
        self.adj = tuple(masks)
        self.closed = tuple([m | (1 << v) for v, m in enumerate(masks)])
        self.full = (1 << n) - 1
        self.labels = tuple(labels) if labels is not None else None
        self._cores = None
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels must have one entry per vertex")

    @classmethod
    def from_masks(cls, n: int, masks: Sequence[int], labels: Sequence[str] | None = None) -> "Graph":
        """Build from adjacency bitmasks already known to be symmetric and loop-free."""
        g = cls.__new__(cls)
        g._init_from_masks(n, masks, labels)
        return g

    # -- queries ---------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ordered pairs (u, v) with u < v, ascending."""
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for off in bit_indices(higher):
                yield (u, u + 1 + off)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for graph of order {self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __reduce__(self):
        return Graph.from_masks, (self.n, self.adj, self.labels)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def component_masks(g: Graph) -> list[int]:
    """Connected components as bitmasks, ordered by least member."""
    out = []
    remaining = g.full
    adj = g.adj
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            nxt = 0
            while frontier:  # not bit_indices: a generator per layer costs more than the layer
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


# -- graph6 ---------------------------------------------------------------
#
# Standard 6-bit encoding: printable bytes 63..126, size header followed by
# the upper triangle of the adjacency matrix in column order, zero-padded
# to a multiple of six bits. Each byte carries six bits, most significant
# first, so a graph6 body is base64 text under another alphabet, and after
# bit reversal within each decoded byte stream bit k is bit k of a
# little-endian integer: column j is the run of j bits at offset j(j-1)/2.

_GRAPH6_DIGITS = bytes(range(63, 127))
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6_DIGITS, _BASE64_DIGITS)
_FROM_BASE64 = bytes.maketrans(_BASE64_DIGITS, _GRAPH6_DIGITS)
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _graph6_decode_size(data: bytes, line: int | None) -> tuple[int, int]:
    """Return (n, bytes consumed by the size header)."""
    if not data:
        raise GraphParseError("empty graph6 string", line)
    if data[0] != 126:  # '~'
        return data[0] - 63, 1
    # '~' and three digits, or '~~' and six
    width = 8 if data[:2] in (b"~", b"~~") else 4
    if len(data) < width:
        raise GraphParseError("truncated graph6 size header", line)
    n = 0
    for b in data[width // 4:width]:
        n = (n << 6) | (b - 63)
    return n, width


def parse_graph6(data: bytes | str, line: int | None = None) -> Graph:
    """Decode one graph6-encoded graph."""
    if isinstance(data, str):
        data = data.encode("ascii", "surrogateescape")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    # what is left once every digit is deleted starts with the first bad byte
    if bad := data.translate(None, _GRAPH6_DIGITS):
        raise GraphParseError(f"invalid graph6 byte {bad[0]} at offset {data.index(bad[0])}", line)
    n, start = _graph6_decode_size(data, line)
    expected = (n * (n - 1) // 2 + 5) // 6
    if len(data) - start != expected:
        raise GraphParseError(
            f"graph6 body has {len(data) - start} bytes, expected {expected} for n={n}", line
        )
    # base64 decodes whole quads: pad with zero digits, which fall past the
    # triangle like the padding bits. One statement per step keeps at most
    # two body-sized buffers alive.
    data = b"".join((memoryview(data)[start:], b"?" * (-expected % 4)))
    data = data.translate(_TO_BASE64)
    data = binascii.a2b_base64(data)
    bits = data.translate(_REVERSED_BITS)
    del data
    masks = [0] * n
    for first in range(1, n, 64):  # up to 64 columns at a time, read from one int
        stop = min(first + 64, n)
        off, end = first * (first - 1) // 2, stop * (stop - 1) // 2
        tri = int.from_bytes(bits[off >> 3:(end + 7) >> 3], "little") >> (off & 7)
        for j in range(first, stop):
            col = masks[j] = tri & ((1 << j) - 1)
            tri >>= j
            bit = 1 << j
            while col:
                low = col & -col
                masks[low.bit_length() - 1] |= bit
                col ^= low
    return Graph.from_masks(n, masks)


def as_graph(item) -> Graph:
    """A Graph as it is, or a (line number, graph6 line) pair parsed here."""
    return item if isinstance(item, Graph) else parse_graph6(item[1], line=item[0])


def serialize_graph6(g: Graph) -> bytes:
    """Encode as graph6 (without trailing newline)."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 supports at most {GRAPH6_MAX_N} vertices")
    if n <= 62:
        head = bytes([n + 63])
    else:
        digits = 3 if n <= 258047 else 6
        head = b"~" * (digits // 3) + bytes(((n >> 6 * k) & 63) + 63 for k in reversed(range(digits)))
    # append column j (j bits) to a little-endian bit buffer, flushing whole bytes
    bits = bytearray()
    acc = filled = 0
    for j in range(1, n):
        acc |= (g.adj[j] & ((1 << j) - 1)) << filled
        whole, filled = divmod(filled + j, 8)
        bits += (acc & ((1 << 8 * whole) - 1)).to_bytes(whole, "little")
        acc >>= 8 * whole
    bits += acc.to_bytes((filled + 7) >> 3, "little")
    text = binascii.b2a_base64(bits.translate(_REVERSED_BITS), newline=False)
    del bits
    # the header joins in base64 form, so one translation maps everything back
    text = b"".join((head.translate(_TO_BASE64), memoryview(text)[:(n * (n - 1) // 2 + 5) // 6]))
    return text.translate(_FROM_BASE64)


# -- mapping the input graphs -----------------------------------------------


# the items per message to a fanout worker; ordered_map maps the first CHUNK
# items in this process, as starting workers costs more
CHUNK = 64


def ordered_map(fn, items, jobs: int):
    """Yield ``fn(item)`` for every item, in input order.

    Items are read and mapped here one at a time, but with ``jobs > 1`` and
    ``os.fork`` available those after the first ``CHUNK`` go to
    :func:`fanout.fan_out`, at most one worker per CPU. Only a batch that
    reaches past the first chunk imports that module. Either way an item's
    exception, or the input iterator's, is raised when its position is
    reached, after the results of the items before it; a worker that dies
    or cuts a reply short raises ``ChildProcessError``.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    items = iter(items)
    if jobs <= 1 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    yield from map(fn, islice(items, CHUNK))
    for item in items:  # one past the first chunk: the rest fans out
        from .fanout import fan_out
        yield from fan_out(fn, chain((item,), items), jobs)
        return
