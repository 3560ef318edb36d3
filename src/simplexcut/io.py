"""Instance and cut serialization: JSON and a DIMACS-like text format.

Weights always serialize as "p/q" with q > 0 and gcd(p, q) = 1, so both
formats round-trip exactly.  Node indices follow the colexicographic
order contract of the lattice module; the DIMACS-like format carries no
node table and recovers n by inverting the node count for the given k.
Zero-weight edges are omitted unless explicitly included.  Each distinct
weight is rendered or parsed once, however many edges carry it.  A
malformed document raises ValueError, whatever is wrong with it.

The edge section of a DIMACS document is most of its bytes (about 31 per
edge; 14.5 MB at k = 4, n = 78), so it is written and read a block at a
time with list-level operations instead of one Python step per line.
Blocks of EMIT_BLOCK_ROWS edges are joined from columns of node names
and weight texts and appended to the one document string, which grows in
place, so the document is never held twice.  The reader takes a slice of
PARSE_SLICE_CHARS characters at one go, split once on spaces, only when
it is edge lines exactly as the emitter writes them and the rows continue
the edge order into empty slots; that is every slice of an emitted
document but the one holding the header.  Every other slice goes through
the general line-by-line reader, which accepts lines in any order,
comments, odd whitespace and number forms, and is the source of every
error message: the list-level path only ever returns the result the line
reader would.  Either way a row's weight text goes in as a code into one
array slot per edge, a byte while there are at most 255 distinct texts,
and the slots become the parsed map's codes.  The text is read until its
problem line and terminal lines build the lattice, stepping over slices
of edge lines with one pattern match, and read again from the top once
the graph exists; a problem line that announces a negative edge count,
or more edges than its lattice has, is refused before the lattice is
built.
"""

from __future__ import annotations

import json
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm

from .cuts import CutLabeling
from .instances import WeightMap
from .lattice import SimplexGraph, build_graph, edge_count, node_count, reach, terminal_nodes

INSTANCE_FORMAT = "simplexcut-instance"
CUT_FORMAT = "simplexcut-cut"
FORMAT_VERSION = 1
# edge rows put together into one string at a time when emitting DIMACS;
# a block (about 250 KB at 31 bytes per row) is all the emitter holds
# beside the document it is appended to
EMIT_BLOCK_ROWS = 8192
# characters of DIMACS text read at a time when parsing; a slice of edge
# lines splits into tokens that take about 7 times its size
PARSE_SLICE_CHARS = 1 << 16


def render_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Accept "p/q", integer, or decimal literals; decimals are exact."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
    return value


def render_decimal(x: Fraction, places: int = 6) -> str:
    """Half-even decimal rendering for human-readable columns, rounded once
    and exactly: round() of a Fraction breaks ties to the even integer.  A
    value that rounds to zero has no sign."""
    x = Fraction(x)
    scaled = round(abs(x) * 10**places)
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if x < 0 and scaled else ""
    if not places:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


@dataclass(frozen=True)
class ParsedInstance:
    weights: WeightMap
    tag: str | None = None
    c: Fraction | None = None
    lam: tuple[Fraction, ...] | None = None


class _NodeNames:
    """str(r) for the nodes r of a window that slides up the node order.

    Emitting and parsing DIMACS go through the edges in order, and the
    edges of one block span a few thousand nodes, most of them shared with
    the next block.  Sliding the window names each node about once, and
    never holds the names of all nodes at once.
    """

    def __init__(self, g: SimplexGraph):
        self.names: dict[int, str] = {}
        self.lo, self.hi = 0, -1  # the window holds the names of lo..hi
        self.reach, self.last = reach(g.k, g.n), node_count(g.k, g.n) - 1

    def window(self, tails: array) -> dict[int, str]:
        """The names of at least both ends of every edge whose tail lies
        in the ascending, nonempty run tails: an edge (u, v) has
        v <= u + reach(k, n), so its head is at most tails[-1] + reach."""
        lo, hi = tails[0], min(tails[-1] + self.reach, self.last)
        names = self.names
        if lo < self.lo or lo > self.hi + 1:
            names.clear()
            self.hi = lo - 1
        else:
            for r in range(self.lo, lo):
                del names[r]
        if hi > self.hi:
            new = range(self.hi + 1, hi + 1)
            names.update(zip(new, map(str, new)))
            self.hi = hi
        self.lo = lo
        return names


def _weight_texts(w: WeightMap) -> list[str]:
    """The weight text "p/q" of each palette value of w, indexed by code."""
    return [render_rational(Fraction(x, w.den)) for x in w.palette]


def emit_instance_json(
    w: WeightMap,
    tag: str | None = None,
    c: Fraction | None = None,
    lam: tuple[Fraction, ...] | None = None,
    include_zero_edges: bool = False,
) -> str:
    g = w.graph
    texts, rows = _weight_texts(w), zip(g.tails, g.heads, w.codes)
    doc = {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "k": g.k,
        "n": g.n,
        "tag": tag,
        "c": render_rational(c) if c is not None else None,
        "lambda": [render_rational(x) for x in lam] if lam is not None else None,
        "terminals": list(g.terminals),
        "nodes": [list(p) for p in g.nodes],
        "edges": [[u, v, texts[x]] for u, v, x in rows if x or include_zero_edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_instance_dimacs(
    w: WeightMap,
    tag: str | None = None,
    c: Fraction | None = None,
    lam: tuple[Fraction, ...] | None = None,
    include_zero_edges: bool = False,
) -> str:
    """The DIMACS-like document: comment lines, the problem line, one
    terminal line per corner, then one edge line per emitted edge.

    Edge lines are joined EMIT_BLOCK_ROWS edges at a time, and each block
    is appended to the document, so no list of every line is ever held.
    The document is one str that only the local doc refers to while it
    grows, which CPython 3.11 extends in place (realloc, mremap for large
    strings): the peak is the document plus one block.  Were there another
    reference to it, each += would copy the document instead; the text
    would be the same and only the peak would grow.
    """
    g = w.graph
    row_count = len(w.codes) if include_zero_edges else len(w.weights)
    lines = [f"c {INSTANCE_FORMAT} version {FORMAT_VERSION}"]
    if tag is not None:
        lines.append(f"c tag {tag}")
    if c is not None:
        lines.append(f"c c {render_rational(c)}")
    if lam is not None:
        lines.append("c lambda " + " ".join(render_rational(x) for x in lam))
    lines.append(f"p mwc {node_count(g.k, g.n)} {row_count} {g.k}")
    for i, t in enumerate(g.terminals, start=1):
        lines.append(f"t {t} {i}")
    doc = "\n".join(lines) + "\n"
    for block in _edge_blocks(w, include_zero_edges):
        doc += block
    return doc


def _edge_blocks(w: WeightMap, include_zero_edges: bool) -> Iterator[str]:
    """The edge lines "e u v p/q" of the emitted edges in edge order,
    joined EMIT_BLOCK_ROWS edges at a time.

    A block is put together from lists: compress drops its zero-weight
    edges, node names come from a sliding window of str(r) for r from the
    block's first u to its last u plus the lattice's reach, and weight
    texts from one list indexed by the palette codes.  No row is formatted
    on its own, and the endpoints are read from the columns as the names
    are looked up, so no list of endpoint ints is made.
    """
    g, codes = w.graph, w.codes
    texts = [f" {text}\n" for text in _weight_texts(w)]
    names = _NodeNames(g)
    for start in range(0, len(codes), EMIT_BLOCK_ROWS):
        rows = slice(start, start + EMIT_BLOCK_ROWS)
        us, vs, block_codes = g.tails[rows], g.heads[rows], codes[rows]
        name = names.window(us).__getitem__
        if not include_zero_edges:
            us, vs = compress(us, block_codes), compress(vs, block_codes)
            block_codes = list(compress(block_codes, block_codes))
        m = len(block_codes)
        if not m:
            continue
        # "e ", u, " ", v, " p/q\n" for each row
        parts = [" "] * (5 * m)
        parts[0::5] = ["e "] * m
        parts[1::5] = map(name, us)
        parts[3::5] = map(name, vs)
        parts[4::5] = map(texts.__getitem__, block_codes)
        yield "".join(parts)


def _invert_node_count(k: int, count: int) -> int:
    """The resolution n >= 1 whose k-coordinate lattice has count nodes,
    found by bisection over the increasing node_count(k, n)."""
    if k < 2:
        raise ValueError(f"need at least two terminals, got k={k}")
    # node_count(k, n) >= n + 1, and >= 2**min(n, k - 1); the second bound
    # keeps n, and so every binomial tried, small when k is large
    lo, hi = 1, count if k <= count.bit_length() else count.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if node_count(k, mid) < count:
            lo = mid + 1
        else:
            hi = mid
    if k > count or node_count(k, lo) != count:
        raise ValueError(f"no lattice with k={k} has {count} nodes")
    return lo


def _graph_with(k: int, n: int, count: int):
    """The lattice graph for (k, n), once it is known to have count nodes.

    A document lists every node (or labels every node), so comparing counts
    first keeps a corrupted k or n from building a huge graph.
    """
    if k < 2 or n < 1 or n >= count or k > count or node_count(k, n) != count:
        raise ValueError(f"k={k}, n={n} does not match the {count} nodes listed")
    return build_graph(k, n)


def _graph_at_corners(k: int, n: int, terminal_rows: list[tuple[int, int]]) -> SimplexGraph:
    """The lattice graph for (k, n), once the (node, terminal) rows are known
    to name its corners.

    The corners' node indices follow from k and n alone, so a problem line
    without matching terminal lines builds no graph.
    """
    expected = [(t, i) for i, t in enumerate(terminal_nodes(k, n), start=1)]
    if sorted(terminal_rows) != expected:
        raise ValueError("terminal lines do not match the lattice")
    return build_graph(k, n)


class _WeightSlots:
    """Edge weights read one (u, v, "p/q") row at a time (add), or a run
    of rows in edge order at one go (fill).

    Each row goes straight into its edge's slot.  A slot holds a code for
    the row's weight text (0 for an edge no row names) in an array of
    bytes, widened to 4-byte unsigned ints when a 256th distinct text
    arrives; each distinct text is parsed once.  When the map is made the
    weights are put over their common denominator and the slots become its
    codes.
    """

    def __init__(self, g: SimplexGraph):
        self.graph = g
        self.tails, self.heads = g.tails, g.heads
        self.edge_between = g.edge_between  # bound once: add runs per edge
        self.codes: dict[str, int] = {}  # weight text -> code
        self.keys: dict[str, int] = {}  # "text\ne" -> code, for fill
        self.values: list[Fraction] = []
        self.slots = array("B", bytes(len(g.tails)))
        # the edge after the last one filled: emitted rows come in edge
        # order, so this is usually the next row's edge
        self.hint = 0
        self.names = _NodeNames(g)

    def add(self, u: int, v: int, text: str) -> None:
        e = self.hint
        if e == len(self.tails) or self.tails[e] != u or self.heads[e] != v:
            e = self.edge_between(u, v)
            if e is None:
                nodes = node_count(self.graph.k, self.graph.n)
                if not (0 <= u < nodes and 0 <= v < nodes):
                    raise ValueError(f"edge endpoint out of range: ({u}, {v})")
                raise ValueError(f"nodes {u} and {v} are not lattice neighbors")
        if self.slots[e]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        code = self.codes.get(text)
        if code is None:
            x = parse_rational(text)
            if x < 0:
                raise ValueError("negative edge weight")
            self.values.append(x)
            code = self.codes[text] = len(self.values)
            self._widen(code)
        self.slots[e] = code
        self.hint = e + 1

    def fill(self, piece: str) -> bool:
        """Fill the slots of a slice of edge rows at one go.

        The slice is split once on " ", and "e" is appended to its last
        token, so that a slice of rows "e u v text\\n" gives "e" and then
        u, v and the key "text\\ne" for each row.  It is taken when the
        endpoints are the names str writes for the edges that continue
        from the hint, their slots are empty, and each new key ends in
        "\\ne" after a printable text that parses to a nonnegative
        rational.  A printable text holds no whitespace but " ", at which
        the slice was split, and no line break, so the slice is those rows
        exactly, as the line reader would read them; new texts are parsed
        once each, in document order, as add would.  Otherwise nothing
        changes and the result is False: add then reads the rows one by
        one, and raises the error if there is one.
        """
        tokens = piece.split(" ")
        tokens[-1] += "e"
        h, (m, extra) = self.hint, divmod(len(tokens) - 1, 3)
        us, vs = self.tails[h : h + m], self.heads[h : h + m]
        if tokens[0] != "e" or extra or not 0 < m == len(us) or any(self.slots[h : h + m]):
            return False
        # endpoints must be written as str writes them; other forms ("03",
        # "+3") are left to add, which reads them with int
        name = self.names.window(us).__getitem__
        if tokens[1::3] != list(map(name, us)) or tokens[2::3] != list(map(name, vs)):
            return False
        keys = tokens[3::3]
        new = [key for key in dict.fromkeys(keys) if key not in self.keys]
        texts = [key[:-2] for key in new]
        if not all(key.endswith("\ne") and text.isprintable() for key, text in zip(new, texts)):
            return False
        fresh = [text for text in texts if text not in self.codes]
        try:
            values = [parse_rational(text) for text in fresh]
        except ValueError:
            return False
        if any(x < 0 for x in values):
            return False
        first = len(self.values) + 1
        self.codes.update(zip(fresh, range(first, first + len(fresh))))
        self.values += values
        self._widen(len(self.values))
        self.keys.update(zip(new, map(self.codes.__getitem__, texts)))
        self.slots[h : h + m] = array(self.slots.typecode, map(self.keys.__getitem__, keys))
        self.hint = h + m
        return True

    def _widen(self, code: int) -> None:
        """Make room in the slots for code."""
        if code > 255 and self.slots.typecode == "B":
            self.slots = array("I", self.slots)

    def weight_map(self) -> WeightMap:
        den = lcm(1, *(x.denominator for x in self.values))
        values = [0] + [x.numerator * (den // x.denominator) for x in self.values]
        return WeightMap.from_codes(self.graph, den, values, self.slots)


def _document(text: str, fmt: str, noun: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"not {noun} document")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version: {doc.get('version')!r}")
    return doc


def _field(doc: dict, key: str, kind: type):
    # json.loads yields exact builtin types, and type(True) is bool, not int
    if type(doc.get(key)) is not kind:
        raise ValueError(f"field {key!r} must be present and of type {kind.__name__}")
    return doc[key]


def parse_instance_json(text: str) -> ParsedInstance:
    doc = _document(text, INSTANCE_FORMAT, "an instance")
    k, n = _field(doc, "k", int), _field(doc, "n", int)
    nodes = _field(doc, "nodes", list)
    g = _graph_with(k, n, len(nodes))
    if nodes != [list(p) for p in g.nodes]:
        raise ValueError("node table violates the colexicographic order contract")
    if _field(doc, "terminals", list) != list(g.terminals):
        raise ValueError("terminal list does not match the lattice")
    slots = _WeightSlots(g)
    for row in _field(doc, "edges", list):
        if type(row) is not list or [type(x) for x in row] != [int, int, str]:
            raise ValueError(f"malformed edge row: {row!r}")
        slots.add(*row)
    w = slots.weight_map()
    tag, c, lam = doc.get("tag"), doc.get("c"), doc.get("lambda")
    if tag is not None and not isinstance(tag, str):
        raise ValueError("field 'tag' must be a string")
    if lam is not None and not isinstance(lam, list):
        raise ValueError("field 'lambda' must be a list")
    return ParsedInstance(
        weights=w,
        tag=tag,
        c=parse_rational(c) if c is not None else None,
        lam=tuple(parse_rational(s) for s in lam) if lam is not None else None,
    )


def _slices(text: str) -> Iterator[str]:
    """text in slices of about PARSE_SLICE_CHARS characters.

    Each slice but the last ends just after a newline, so no line break
    (not even "\\r\\n") straddles two slices, and the lines of the slices
    are exactly those of the whole text.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + PARSE_SLICE_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


# a slice of edge lines "e u v text" with single spaces and printable
# ASCII tokens, each line ended by "\n" or "\r\n": the line reader finds
# three fields after "e" on each of its lines
_EDGE_ROWS = re.compile(r"(?:e [!-~]+ [!-~]+ [!-~]+\r?\n)+")


def _integers(fields: list[str], kind: str, line: str) -> list[int]:
    """The fields of a line as integers, or the error that names the line."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ValueError(f"malformed {kind} line: {line!r}") from None


def _read_dimacs(text: str, graph: SimplexGraph | None) -> SimplexGraph | ParsedInstance:
    """Read a DIMACS-like document once, from the top.

    Without a graph, edge lines are only checked for their shape, a slice
    at a time where _EDGE_ROWS matches it, and the lattice graph is
    returned as soon as the problem line and all k terminal lines are in;
    a header that never completes is refused at the end of the text.  With the graph, every edge line fills its slot
    in document order; the header lines on the way passed the first
    reading, so only edge lines and the lines after the header can raise.
    """
    tag = None
    c_value: Fraction | None = None
    lam: tuple[Fraction, ...] | None = None
    header: tuple[int, int, int] | None = None  # declared edge count, k, n
    terminal_rows: list[tuple[int, int]] = []
    slots = None if graph is None else _WeightSlots(graph)
    edge_lines = 0
    for piece in _slices(text):
        if _EDGE_ROWS.fullmatch(piece) if slots is None else slots.fill(piece):
            edge_lines += piece.count("\n")
            continue
        for raw in piece.splitlines():
            line = raw.strip()
            if not line:
                continue
            kind, _, rest = line.partition(" ")
            fields = rest.split()
            if kind == "e":
                if len(fields) != 3:
                    raise ValueError(f"malformed edge line: {line!r}")
                edge_lines += 1
                if slots is not None:
                    u, v = _integers(fields[:2], "edge", line)
                    slots.add(u, v, fields[2])
                continue
            if kind == "c":
                if fields[:1] == ["tag"] and len(fields) == 2:
                    tag = fields[1]
                elif fields[:1] == ["c"] and len(fields) == 2:
                    c_value = parse_rational(fields[1])
                elif fields[:1] == ["lambda"]:
                    lam = tuple(parse_rational(f) for f in fields[1:])
                continue
            if kind == "p":
                if header is not None:
                    raise ValueError("multiple problem lines")
                if len(fields) != 4 or fields[0] != "mwc":
                    raise ValueError(f"malformed problem line: {line!r}")
                declared_nodes, declared_edges, k = _integers(fields[1:], "problem", line)
                if declared_edges < 0:
                    raise ValueError(f"problem line announces {declared_edges} edges, fewer than 0")
                n = _invert_node_count(k, declared_nodes)
                # more edge lines than edges can never parse: refuse them
                # before the graph is built or another line read
                if declared_edges > edge_count(k, n):
                    raise ValueError(
                        f"problem line announces {declared_edges} edges, "
                        f"the lattice has {edge_count(k, n)}"
                    )
                header = (declared_edges, k, n)
            elif kind == "t":
                if len(fields) != 2:
                    raise ValueError(f"malformed terminal line: {line!r}")
                terminal_rows.append(tuple(_integers(fields, "terminal", line)))
            else:
                raise ValueError(f"unknown line kind: {kind!r}")
            if slots is None and header is not None and len(terminal_rows) == header[1]:
                return _graph_at_corners(header[1], header[2], terminal_rows)
    if header is None:
        raise ValueError("missing problem line")
    declared_edges, k, _ = header
    # without slots, k terminal lines never matched; with them, any further one is extra
    if slots is None or len(terminal_rows) != k:
        raise ValueError("terminal lines do not match the lattice")
    if edge_lines != declared_edges:
        raise ValueError(f"problem line announces {declared_edges} edges, found {edge_lines}")
    return ParsedInstance(weights=slots.weight_map(), tag=tag, c=c_value, lam=lam)


def parse_instance_dimacs(text: str) -> ParsedInstance:
    """Parse the DIMACS-like format; its lines may come in any order.

    The text is read one slice of about PARSE_SLICE_CHARS characters at a
    time, so only one slice's lines or tokens are held at once.  A slice
    of edge lines exactly as emit_instance_dimacs writes them, "e u v
    text" with single spaces and a printable weight text, is split once on
    spaces and taken in at one go (_WeightSlots.fill) when its rows
    continue the edge order into empty slots; rejoined with spaces, its
    tokens are the slice, so the line reader would read those rows alike.
    Every other slice (the header, comments, rows out of order,
    duplicates, CRLF endings, odd whitespace or number forms, any error)
    is read line by line.  That general reader remains the one definition
    of the format and the source of every error message; a slice is taken
    at one go only when the result is the one the line reader would give.

    The text is read until the problem line and all k terminal lines are
    in, which builds the lattice, and read again from the top once the
    graph exists (_read_dimacs).  The first reading steps over a slice of
    edge lines that _EDGE_ROWS matches, keeping no token, since each of
    its lines is one the line reader only counts.  An emitted document
    completes its header in its first slice, so only that slice's first
    lines are read twice.  A problem line that announces a negative edge
    count, or more edges than the lattice has, is refused as soon as it is
    read, so no graph is built for it.
    """
    return _read_dimacs(text, _read_dimacs(text, None))


def parse_instance(text: str) -> ParsedInstance:
    """Sniff the format: JSON documents start with a brace."""
    if text.lstrip().startswith("{"):
        return parse_instance_json(text)
    return parse_instance_dimacs(text)


def emit_cut(p: CutLabeling) -> str:
    g = p.graph
    doc = {
        "format": CUT_FORMAT,
        "version": FORMAT_VERSION,
        "k": g.k,
        "n": g.n,
        "labels": list(p.labels),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_cut(text: str) -> CutLabeling:
    doc = _document(text, CUT_FORMAT, "a cut")
    k, n = _field(doc, "k", int), _field(doc, "n", int)
    labels = _field(doc, "labels", list)
    if any(type(l) is not int for l in labels):
        raise ValueError("labels must be integers")
    return CutLabeling(_graph_with(k, n, len(labels)), tuple(labels))
