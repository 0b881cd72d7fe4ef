"""The whitespace edge-list text format, read by ``--format edgelist`` and
``check-free --pattern-file`` only: no other run compiles this module."""

from __future__ import annotations

from .graphs import MAX_ORDER, Graph, GraphParseError


def parse_edgelist(text: bytes | str) -> Graph:
    """Parse the whitespace edge-list format.

    An optional first line ``n <count>`` fixes the vertex count. Every
    other nonblank line names one edge as two tokens. Tokens are integer
    ids when every one is ASCII digits 0-9, otherwise labels mapped to ids
    in first-appearance order. Duplicate edges collapse; self-loops are
    rejected.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows: list[tuple[int, str, str]] = []
    declared_n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks:
            continue
        if declared_n is None and not rows and len(toks) == 2 and toks[0] == "n":
            try:
                declared_n = int(toks[1])
            except ValueError:
                raise GraphParseError("header count is not an integer", lineno) from None
            if declared_n < 0:
                raise GraphParseError("header count is negative", lineno)
            if declared_n > MAX_ORDER:
                raise GraphParseError(f"header count exceeds the order cap {MAX_ORDER}", lineno)
            continue
        if len(toks) != 2:
            raise GraphParseError(f"expected two tokens, got {len(toks)}", lineno)
        rows.append((lineno, toks[0], toks[1]))

    index: dict[str, int] = {}  # label -> id, empty when every token is a numeral
    if all([(a + b).isascii() and (a + b).isdigit() for _, a, b in rows]):
        ids = [(ln, _vertex_id(a, ln), _vertex_id(b, ln)) for ln, a, b in rows]
    else:  # a token that is no numeral: all are labels
        ids = [(ln, index.setdefault(a, len(index)), index.setdefault(b, len(index))) for ln, a, b in rows]

    n = declared_n if declared_n is not None else 1 + max((max(u, v) for _, u, v in ids), default=-1)
    if n > MAX_ORDER:  # labels alone get here: the header and each numeral are capped where read
        ln, label = next((ln, t) for ln, a, b in rows for t in (a, b) if index[t] == MAX_ORDER)
        raise GraphParseError(f"label {label!r} needs more than {MAX_ORDER} vertices", ln)
    # a vertex the header adds past the last label is named by its id
    labels = [*index, *map(str, range(len(index), n))] if index else None

    masks = [0] * n
    for ln, u, v in ids:
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", ln)
        if u >= n or v >= n:
            raise GraphParseError(f"vertex id {max(u, v)} outside 0..{n - 1}", ln)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph.from_masks(n, masks, labels)


def _vertex_id(numeral: str, line: int) -> int:
    """A numeral as a vertex id. One at or past the order cap fails at
    ``line``; int() reads only numerals no longer than the cap's."""
    digits = numeral.lstrip("0") or "0"
    if len(digits) > len(str(MAX_ORDER)) or int(digits) >= MAX_ORDER:
        shown = digits if len(digits) <= 20 else digits[:20] + "..."
        raise GraphParseError(f"vertex id {shown} needs more than {MAX_ORDER} vertices", line)
    return int(digits)
