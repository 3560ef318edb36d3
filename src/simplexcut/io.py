"""Instance and cut serialization: JSON and a DIMACS-like text format.

Weights always serialize as "p/q" with q > 0 and gcd(p, q) = 1, so both
formats round-trip exactly.  Node indices follow the colexicographic
order contract of the lattice module; the DIMACS-like format carries no
node table and recovers n by inverting the node count for the given k.
Zero-weight edges are omitted unless explicitly included.  Each distinct
weight is rendered or parsed once, however many edges carry it.  A
malformed document raises ValueError, whatever is wrong with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, localcontext, ROUND_HALF_EVEN
from fractions import Fraction
from math import lcm

from .cuts import CutLabeling
from .instances import WeightMap
from .lattice import build_graph, node_count

INSTANCE_FORMAT = "simplexcut-instance"
CUT_FORMAT = "simplexcut-cut"
FORMAT_VERSION = 1


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
    """Half-even decimal rendering for human-readable columns."""
    x = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return str(d.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN))


@dataclass(frozen=True)
class ParsedInstance:
    weights: WeightMap
    tag: str | None = None
    c: Fraction | None = None
    lam: tuple[Fraction, ...] | None = None


def _edge_rows(w: WeightMap, include_zero_edges: bool) -> list[tuple[int, int, str]]:
    """(u, v, rendered weight) for each emitted edge, in edge order."""
    rendered: dict[int, str] = {}
    rows = []
    for (u, v), x in zip(w.graph.edges, w.nums):
        if x or include_zero_edges:
            text = rendered.get(x)
            if text is None:
                text = rendered[x] = render_rational(Fraction(x, w.den))
            rows.append((u, v, text))
    return rows


def emit_instance_json(
    w: WeightMap,
    tag: str | None = None,
    c: Fraction | None = None,
    lam: tuple[Fraction, ...] | None = None,
    include_zero_edges: bool = False,
) -> str:
    g = w.graph
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
        "edges": [list(row) for row in _edge_rows(w, include_zero_edges)],
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_instance_dimacs(
    w: WeightMap,
    tag: str | None = None,
    c: Fraction | None = None,
    lam: tuple[Fraction, ...] | None = None,
    include_zero_edges: bool = False,
) -> str:
    g = w.graph
    rows = _edge_rows(w, include_zero_edges)
    lines = [f"c {INSTANCE_FORMAT} version {FORMAT_VERSION}"]
    if tag is not None:
        lines.append(f"c tag {tag}")
    if c is not None:
        lines.append(f"c c {render_rational(c)}")
    if lam is not None:
        lines.append("c lambda " + " ".join(render_rational(x) for x in lam))
    lines.append(f"p mwc {len(g.nodes)} {len(rows)} {g.k}")
    for i, t in enumerate(g.terminals, start=1):
        lines.append(f"t {t} {i}")
    for u, v, wt in rows:
        lines.append(f"e {u} {v} {wt}")
    return "\n".join(lines) + "\n"


def _invert_node_count(k: int, count: int) -> int:
    if k < 2:
        raise ValueError(f"need at least two terminals, got k={k}")
    n = 0
    while True:
        size = node_count(k, n)
        if size == count:
            return n
        if size > count:
            raise ValueError(f"no lattice with k={k} has {count} nodes")
        n += 1


def _graph_with(k: int, n: int, count: int):
    """The lattice graph for (k, n), once it is known to have count nodes.

    A document lists every node (or labels every node), so comparing counts
    first keeps a corrupted k or n from building a huge graph.
    """
    if k < 2 or n < 1 or n >= count or k > count or node_count(k, n) != count:
        raise ValueError(f"k={k}, n={n} does not match the {count} nodes listed")
    return build_graph(k, n)


def _weights_from_rows(g, rows: list[tuple[int, int, str]]) -> WeightMap:
    """Integer weights from (u, v, "p/q") rows over a common denominator."""
    values: dict[str, Fraction] = {}
    for _, _, text in rows:
        if text not in values:
            values[text] = parse_rational(text)
    if any(x < 0 for x in values.values()):
        raise ValueError("negative edge weight")
    den = lcm(1, *(x.denominator for x in values.values()))
    scaled = {text: x.numerator * (den // x.denominator) for text, x in values.items()}
    nums = [0] * len(g.edges)
    seen = bytearray(len(g.edges))
    for u, v, text in rows:
        if not (0 <= u < len(g.nodes) and 0 <= v < len(g.nodes)):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        e = g.edge_between(u, v)
        if e is None:
            raise ValueError(f"nodes {u} and {v} are not lattice neighbors")
        if seen[e]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen[e] = 1
        nums[e] = scaled[text]
    return WeightMap.from_numerators(g, den, nums)


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
    rows = _field(doc, "edges", list)
    for row in rows:
        if type(row) is not list or [type(x) for x in row] != [int, int, str]:
            raise ValueError(f"malformed edge row: {row!r}")
    w = _weights_from_rows(g, rows)
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


def parse_instance_dimacs(text: str) -> ParsedInstance:
    tag = None
    c_value: Fraction | None = None
    lam: tuple[Fraction, ...] | None = None
    header = None
    terminal_rows: list[tuple[int, int]] = []
    edge_rows: list[tuple[int, int, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        fields = rest.split()
        if kind == "c":
            if fields[:1] == ["tag"] and len(fields) == 2:
                tag = fields[1]
            elif fields[:1] == ["c"] and len(fields) == 2:
                c_value = parse_rational(fields[1])
            elif fields[:1] == ["lambda"]:
                lam = tuple(parse_rational(f) for f in fields[1:])
        elif kind == "p":
            if header is not None:
                raise ValueError("multiple problem lines")
            if len(fields) != 4 or fields[0] != "mwc":
                raise ValueError(f"malformed problem line: {line!r}")
            header = tuple(int(f) for f in fields[1:])
        elif kind == "t":
            if len(fields) != 2:
                raise ValueError(f"malformed terminal line: {line!r}")
            terminal_rows.append((int(fields[0]), int(fields[1])))
        elif kind == "e":
            if len(fields) != 3:
                raise ValueError(f"malformed edge line: {line!r}")
            edge_rows.append((int(fields[0]), int(fields[1]), fields[2]))
        else:
            raise ValueError(f"unknown line kind: {kind!r}")
    if header is None:
        raise ValueError("missing problem line")
    declared_nodes, edge_count, k = header
    n = _invert_node_count(k, declared_nodes)
    g = build_graph(k, n)
    if len(edge_rows) != edge_count:
        raise ValueError(
            f"problem line announces {edge_count} edges, found {len(edge_rows)}"
        )
    expected_terminals = [(t, i) for i, t in enumerate(g.terminals, start=1)]
    if sorted(terminal_rows) != sorted(expected_terminals):
        raise ValueError("terminal lines do not match the lattice")
    w = _weights_from_rows(g, edge_rows)
    return ParsedInstance(weights=w, tag=tag, c=c_value, lam=lam)


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
