"""graph6 / digraph6 codecs plus plain edge- and arc-list text formats.

graph6 layout: optional size prefix, then the upper triangle of the
adjacency matrix read column by column -- pair order (0,1),(0,2),(1,2),
(0,3),(1,3),(2,3),... -- packed into 6-bit groups (most significant bit
first), each group stored as one byte with value group+63.  Trailing pad
bits must be zero.

digraph6 is '&', the same size field, then all n*n adjacency bits in
row-major order.
"""

from .graphs import Graph, Digraph, canonical_form, check_pair, relabel


class FormatError(ValueError):
    """Malformed input; byte_offset points at the offending byte."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


def _read_size(text, pos):
    if pos >= len(text):
        raise FormatError("missing size field", pos)
    c = ord(text[pos])
    if c != 126:  # not '~': one byte
        if not 63 <= c <= 125:
            raise FormatError(f"size byte {text[pos]!r} out of range", pos)
        return c - 63, pos + 1
    # '~' then 3 bytes, or '~~' then 6 bytes, of 6 bits each
    start, width = (pos + 2, 6) if text[pos + 1:pos + 2] == "~" else (pos + 1, 3)
    chars = text[start:start + width]
    if len(chars) < width:
        raise FormatError(f"truncated {start - pos + width}-byte size field", pos)
    n = 0
    for i, ch in enumerate(chars):
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise FormatError(f"size byte {ch!r} out of range", start + i)
        n = n << 6 | v
    return n, start + width


def _write_size(n):
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    raise FormatError(f"n={n} out of supported range")


def _read_bits(text, pos, count):
    bits = []
    offset = pos
    while len(bits) < count:
        if offset >= len(text):
            raise FormatError(f"payload too short, expected {count} bits", offset)
        c = ord(text[offset])
        if not 63 <= c <= 126:
            raise FormatError(f"payload byte {text[offset]!r} out of range", offset)
        v = c - 63
        for shift in range(5, -1, -1):
            bits.append(v >> shift & 1)
        offset += 1
    pad = bits[count:]
    if any(pad):
        raise FormatError("nonzero trailing pad bits", offset - 1)
    if offset != len(text):
        raise FormatError("trailing bytes after payload", offset)
    return bits[:count]


def _write_bits(bits):
    out = []
    for start in range(0, len(bits), 6):
        group = bits[start:start + 6]
        group += [0] * (6 - len(group))
        v = 0
        for b in group:
            v = v << 1 | b
        out.append(chr(v + 63))
    return "".join(out)


def _pair_order(n):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(text: str) -> Graph:
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[10:]
    n, pos = _read_size(text, 0)
    count = n * (n - 1) // 2
    bits = _read_bits(text, pos, count)
    edges = [(i, j) for (i, j), b in zip(_pair_order(n), bits) if b]
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    bits = [1 if g.has_edge(i, j) else 0 for i, j in _pair_order(g.n)]
    return _write_size(g.n) + _write_bits(bits)


def parse_digraph6(text: str) -> Digraph:
    text = text.strip()
    if text.startswith(">>digraph6<<"):
        text = text[12:]
    if not text or text[0] != "&":
        raise FormatError("digraph6 must start with '&'", 0)
    n, pos = _read_size(text, 1)
    bits = _read_bits(text, pos, n * n)
    arcs = []
    for i in range(n):
        for j in range(n):
            if bits[i * n + j]:
                if i == j:
                    raise FormatError(f"loop arc at vertex {i}", pos)
                arcs.append((i, j))
    return Digraph(n, arcs)


def write_digraph6(d: Digraph) -> str:
    bits = [1 if d.has_arc(i, j) else 0 for i in range(d.n) for j in range(d.n)]
    return "&" + _write_size(d.n) + _write_bits(bits)


# ---------------------------------------------------------------------------
# plain text lists: header "n m" then one "u v" line per edge/arc

def parse_edge_list(text: str) -> Graph:
    return Graph(*_parse_pair_list(text, "edge"))


def parse_arc_list(text: str) -> Digraph:
    return Digraph(*_parse_pair_list(text, "arc"))


def _parse_pair_list(text, kind):
    """(n, pairs) from a pair list; a loop, a vertex outside 0..n-1 or a
    repeated pair (for edges, in either orientation) is a FormatError
    naming its line, so the header's m counts distinct pairs."""
    lines = [(no, ln) for no, ln in enumerate((raw.strip() for raw in text.splitlines()), 1)
             if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty input")
    head = lines[0][1].split()
    if len(head) != 2 or not all(t.lstrip("-").isdigit() for t in head):
        raise FormatError(f"expected 'n m' header, got {lines[0][1]!r}")
    n, m = int(head[0]), int(head[1])
    pairs = {}
    for no, ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2 or not all(t.lstrip("-").isdigit() for t in toks):
            raise FormatError(f"line {no}: expected '{kind} line u v', got {ln!r}")
        u, v = int(toks[0]), int(toks[1])
        key = (min(u, v), max(u, v)) if kind == "edge" else (u, v)
        try:
            check_pair(n, u, v, kind)
        except ValueError as e:
            raise FormatError(f"line {no}: {e}") from None
        if key in pairs:
            raise FormatError(f"line {no}: {kind} ({u},{v}) repeats line {pairs[key]}")
        pairs[key] = no
    if len(pairs) != m:
        raise FormatError(f"header promised {m} {kind}s, found {len(pairs)}")
    return n, list(pairs)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def write_arc_list(d: Digraph) -> str:
    lines = [f"{d.n} {d.m}"] + [f"{u} {v}" for u, v in sorted(d.arcs)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

def canonical_graph6(g) -> str:
    """graph6/digraph6 string of the canonically relabeled (di)graph."""
    cf = canonical_form(g)
    h = relabel(g, cf.perm)
    if isinstance(g, Digraph):
        return write_digraph6(h)
    return write_graph6(h)


def autodetect(text: str, digraph_lists=False):
    """Parse a whole input: graph6/digraph6 lines, or one edge/arc list.

    Returns a list of Graph/Digraph objects.  Plain pair lists are read as
    arc lists when digraph_lists is set, as edge lists otherwise.
    """
    stripped = text.strip()
    if not stripped:
        raise FormatError("empty input")
    first = stripped.splitlines()[0].strip()
    toks = first.split()
    if len(toks) == 2 and all(t.isdigit() for t in toks):
        return [parse_arc_list(text) if digraph_lists else parse_edge_list(text)]
    out = []
    offset = 0
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                if line.startswith("&") or line.startswith(">>digraph6<<"):
                    out.append(parse_digraph6(line))
                else:
                    out.append(parse_graph6(line))
            except FormatError as exc:
                raise FormatError(f"line starting at byte {offset}: {exc}") from exc
        offset += len(raw) + 1
    return out
