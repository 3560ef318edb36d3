"""Serialization: exact rationals, JSON and DIMACS-style instance files."""

import json
import random
import tracemalloc
from itertools import accumulate
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcut import (
    GapParams,
    WeightMap,
    build_base_triangle,
    build_component,
    build_graph,
    combine,
    emit_cut,
    emit_instance_dimacs,
    emit_instance_json,
    isolate_terminals,
    midlines,
    parse_cut,
    parse_instance,
    parse_rational,
    render_decimal,
    render_rational,
)
from simplexcut import cli
from simplexcut import io as sio
from simplexcut.lattice import edge_count, node_count, terminal_nodes


def _sample_instances():
    g8 = build_graph(4, 8)
    return [
        ("triangle", None, None, build_base_triangle(9)),
        ("lines", None, None, build_component(2, build_graph(4, 5))),
        ("cycles", Fraction(1, 4), None, build_component(3, g8, c=Fraction(1, 4))),
        ("uniform", None, None, build_component(4, g8)),
        (
            "combined",
            Fraction(1, 4),
            GapParams.tuned(c=Fraction(1, 4)).lams(),
            combine(GapParams.tuned(c=Fraction(1, 4)), build_graph(4, 12)),
        ),
    ]


def test_render_rational_always_fractional():
    assert render_rational(Fraction(1, 5)) == "1/5"
    assert render_rational(Fraction(3)) == "3/1"
    assert render_rational(Fraction(-1, 5)) == "-1/5"
    assert render_rational(Fraction(6, 4)) == "3/2"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_rational_round_trip(p, q):
    x = Fraction(p, q)
    assert parse_rational(render_rational(x)) == x


def test_parse_rational_accepts_decimals_exactly():
    assert parse_rational("0.074125") == Fraction(593, 8000)
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("3") == 3
    with pytest.raises(ValueError):
        parse_rational("1/5/2")


def test_render_decimal_half_even():
    assert render_decimal(Fraction(5, 10**7)) == "0.000000"
    assert render_decimal(Fraction(15, 10**7)) == "0.000002"
    assert render_decimal(Fraction(25, 10**7)) == "0.000002"
    assert render_decimal(Fraction(35, 10**7)) == "0.000004"
    assert render_decimal(Fraction(6, 5)) == "1.200000"
    assert render_decimal(Fraction(6, 5), places=2) == "1.20"
    # rounded once, from the exact value, at any size
    assert render_decimal(Fraction(5, 10**7) + Fraction(1, 10**70)) == "0.000001"
    assert render_decimal(Fraction(10**54)) == "1" + "0" * 54 + ".000000"
    # a value that rounds to zero has no sign; one that does not keeps it
    assert render_decimal(Fraction(-1, 10**8)) == "0.000000"
    assert render_decimal(Fraction(-1, 2), places=0) == "0"
    assert render_decimal(Fraction(-3, 2), places=0) == "-2"


@pytest.mark.parametrize("tag,c,lam,w", _sample_instances(), ids=lambda v: str(v)[:24])
def test_json_round_trip(tag, c, lam, w):
    text = emit_instance_json(w, tag=tag, c=c, lam=lam)
    parsed = parse_instance(text)
    assert parsed.tag == tag
    assert parsed.c == c
    assert parsed.lam == lam
    assert parsed.weights.graph is w.graph
    assert parsed.weights.weights == w.weights


@pytest.mark.parametrize("tag,c,lam,w", _sample_instances(), ids=lambda v: str(v)[:24])
def test_dimacs_round_trip(tag, c, lam, w):
    text = emit_instance_dimacs(w, tag=tag, c=c, lam=lam)
    parsed = parse_instance(text)
    assert parsed.tag == tag
    assert parsed.c == c
    assert parsed.lam == lam
    assert parsed.weights.graph is w.graph
    assert parsed.weights.weights == w.weights


@pytest.mark.parametrize("tag,c,lam,w", _sample_instances(), ids=lambda v: str(v)[:24])
def test_cross_format_equality(tag, c, lam, w):
    from_json = parse_instance(emit_instance_json(w, tag=tag, c=c, lam=lam))
    from_dimacs = parse_instance(emit_instance_dimacs(w, tag=tag, c=c, lam=lam))
    assert from_json.weights.graph is from_dimacs.weights.graph
    assert from_json.weights.weights == from_dimacs.weights.weights
    assert (from_json.tag, from_json.c, from_json.lam) == (
        from_dimacs.tag,
        from_dimacs.c,
        from_dimacs.lam,
    )


def test_emission_is_deterministic():
    for tag, c, lam, w in _sample_instances():
        assert emit_instance_json(w, tag=tag, c=c, lam=lam) == emit_instance_json(
            w, tag=tag, c=c, lam=lam
        )
        assert emit_instance_dimacs(w, tag=tag, c=c, lam=lam) == emit_instance_dimacs(
            w, tag=tag, c=c, lam=lam
        )


def test_frozen_triangle_header():
    text = emit_instance_dimacs(build_base_triangle(9), tag="triangle")
    lines = text.splitlines()
    p_line = next(l for l in lines if l.startswith("p "))
    assert p_line == "p mwc 55 117 3"
    assert "c simplexcut-instance version 1" in lines
    assert "c tag triangle" in lines
    t_lines = [l for l in lines if l.startswith("t ")]
    assert t_lines == ["t 0 1", "t 9 2", "t 54 3"]


def test_include_zero_edges_changes_header_only():
    w = build_base_triangle(9)
    full = emit_instance_dimacs(w, include_zero_edges=True)
    p_line = next(l for l in full.splitlines() if l.startswith("p "))
    assert p_line == "p mwc 55 135 3"
    # zero rows are listed in the file but canonicalized away on parse
    parsed = parse_instance(full)
    assert parsed.weights == w
    assert len(full.splitlines()) == len(
        emit_instance_dimacs(w).splitlines()
    ) + 18


def test_dimacs_rejects_malformed():
    w = build_base_triangle(3)
    good = emit_instance_dimacs(w)
    with pytest.raises(ValueError):
        parse_instance(good.replace("p mwc", "p max"))
    # drop one edge row: count mismatch
    lines = [l for l in good.splitlines() if l]
    edge_lines = [l for l in lines if l.startswith("e ")]
    broken = "\n".join(l for l in lines if l != edge_lines[0]) + "\n"
    with pytest.raises(ValueError):
        parse_instance(broken)
    with pytest.raises(ValueError):
        parse_instance(good.replace("t 0 1", "t 1 1"))


def test_json_rejects_malformed():
    w = build_base_triangle(3)
    good = emit_instance_json(w, tag="triangle")
    with pytest.raises(ValueError):
        parse_instance(good.replace('"simplexcut-instance"', '"other-format"'))
    with pytest.raises(ValueError):
        parse_instance(good.replace('"version": 1', '"version": 2'))


def test_cut_round_trip():
    g = build_graph(3, 9)
    for p in (midlines(g), isolate_terminals(g)):
        text = emit_cut(p)
        q = parse_cut(text)
        assert q == p
        assert emit_cut(q) == text


def test_cut_rejects_wrong_format():
    with pytest.raises(ValueError):
        parse_cut('{"format": "other", "version": 1}')


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"format": "simplexcut-cut", "version": 1, "k": 3, "labels": [1, 2, 3]}',
        '{"format": "simplexcut-cut", "version": 1, "k": 3, "n": "x", "labels": []}',
        '{"format": "simplexcut-cut", "version": 1, "k": 3, "n": 1, "labels": [1, 2, [3]]}',
        '{"format": "simplexcut-cut", "version": 1, "k": 99, "n": 99, "labels": [1, 2, 3]}',
    ],
)
def test_cut_parser_rejects_bad_shapes(text):
    with pytest.raises(ValueError):
        parse_cut(text)


@pytest.mark.parametrize(
    "field,value",
    [
        ("edges", 5),
        ("edges", [7]),
        ("edges", [[0, 1]]),
        ("edges", [[0, 1, 5]]),
        ("edges", [["0", 1, "1/2"]]),
        ("nodes", 5),
        ("nodes", [[3, 0, 0], 7]),
        ("terminals", 0),
        ("k", None),
        ("n", 10**6),
        ("lambda", "1/2"),
        ("lambda", [1]),
        ("c", 0.25),
        ("tag", 3),
    ],
)
def test_instance_parser_rejects_bad_shapes(field, value):
    doc = json.loads(emit_instance_json(build_base_triangle(3), tag="triangle"))
    doc[field] = value
    with pytest.raises(ValueError):
        parse_instance(json.dumps(doc))
    del doc[field]
    if field not in ("lambda", "c", "tag"):  # optional fields
        with pytest.raises(ValueError):
            parse_instance(json.dumps(doc))


def test_dimacs_rejects_single_terminal_header():
    # k=1 lattices have one node at every resolution; inverting the node
    # count must fail instead of searching forever
    with pytest.raises(ValueError):
        parse_instance("p mwc 2 0 1\n")


def test_dimacs_header_alone_builds_no_graph():
    # a 10**12-node header without its terminal lines is rejected before
    # any graph is built
    cached = build_graph.cache_info().currsize
    with pytest.raises(ValueError):
        parse_instance("p mwc 1000000000000 0 2\n")
    assert build_graph.cache_info().currsize == cached


def test_dimacs_refuses_more_edges_than_the_lattice_has(monkeypatch):
    # the k = 4, n = 78 corners match, but the problem line announces one
    # edge more than the lattice has: it is refused at that line, before
    # the graph is built or the terminal lines read.  Other tests may have
    # cached this graph, so building it is also made to fail
    k, n = 4, 78
    announced = edge_count(k, n) + 1
    corners = "".join(f"t {t} {i}\n" for i, t in enumerate(terminal_nodes(k, n), start=1))
    monkeypatch.setattr(sio, "build_graph", lambda k, n: pytest.fail(f"built the k={k}, n={n} graph"))
    cached = build_graph.cache_info().currsize
    with pytest.raises(ValueError, match=f"announces {announced} edges, the lattice has 492960$"):
        parse_instance(f"p mwc {node_count(k, n)} {announced} {k}\n" + corners)
    assert build_graph.cache_info().currsize == cached


def test_dimacs_refuses_a_lattice_past_the_limit(tmp_path, capsys):
    # 36 valid bytes (no edges, every weight 0) announce a lattice of
    # 10**6 + 1 nodes: refused at the problem line, before any graph is
    # built, and by the CLI as an invalid parameter
    text = "p mwc 1000001 0 2\nt 0 1\nt 1000000 2\n"
    assert len(text) == 36
    message = (
        "a lattice of 1000001 nodes and 1000000 edges exceeds"
        f" the limit of {sio.DIMACS_MAX_LATTICE} nodes and edges together"
    )
    cached = build_graph.cache_info()
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_instance(text)
    assert build_graph.cache_info() == cached
    path = tmp_path / "huge.dimacs"
    path.write_text(text)
    assert cli.main(["eval-cut", "--instance", str(path), "--cut", "isolate-terminals"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "invalid-parameter", "message": message}


@pytest.mark.parametrize("k,n", [(2, 6), (3, 4), (4, 3)])
def test_dimacs_lattice_limit_admits_its_own_size(monkeypatch, k, n):
    # a lattice of exactly the limit parses; one node or edge past it does not
    size = node_count(k, n) + edge_count(k, n)
    header = f"p mwc {node_count(k, n)} 0 {k}\n"
    text = header + "".join(f"t {t} {i}\n" for i, t in enumerate(terminal_nodes(k, n), start=1))
    monkeypatch.setattr(sio, "DIMACS_MAX_LATTICE", size)
    assert parse_instance(text).weights.graph is build_graph(k, n)
    monkeypatch.setattr(sio, "DIMACS_MAX_LATTICE", size - 1)
    with pytest.raises(ValueError, match=f"exceeds the limit of {size - 1} nodes and edges together$"):
        parse_instance(text)


def test_dimacs_limit_admits_the_largest_emitted_instance():
    # combined k = 4, n = 78 (85,320 nodes, 492,960 edges) is the largest
    # lattice the package writes; its DIMACS document still round-trips
    params = GapParams.tuned(c=Fraction(1, 13))
    w = combine(params, build_graph(4, 78))
    assert node_count(4, 78) + edge_count(4, 78) <= sio.DIMACS_MAX_LATTICE
    parsed = parse_instance(emit_instance_dimacs(w, tag="combined", c=params.c, lam=params.lams()))
    assert parsed.weights == w
    assert (parsed.tag, parsed.c, parsed.lam) == ("combined", params.c, params.lams())


def test_dimacs_refuses_a_negative_edge_count(monkeypatch):
    # the k = 3, n = 3 corners match, but no count of edge lines is below
    # 0: the problem line is refused at that line, before the graph is
    # built.  Other tests may have cached this graph, so building it is
    # also made to fail
    k, n = 3, 3
    corners = "".join(f"t {t} {i}\n" for i, t in enumerate(terminal_nodes(k, n), start=1))
    monkeypatch.setattr(sio, "build_graph", lambda k, n: pytest.fail(f"built the k={k}, n={n} graph"))
    cached = build_graph.cache_info().currsize
    with pytest.raises(ValueError, match="^problem line announces -1 edges, fewer than 0$"):
        parse_instance(f"p mwc {node_count(k, n)} -1 {k}\n" + corners)
    assert build_graph.cache_info().currsize == cached


@pytest.mark.parametrize("layout", ["as emitted", "edges first"])
def test_each_parse_builds_the_lattice_once(monkeypatch, layout):
    # the first reading builds the graph and the second only fills slots:
    # neither validates the corners, builds a graph or makes slots again
    w = build_component(4, build_graph(4, 5))
    text = _LAYOUTS[layout](emit_instance_dimacs(w, tag="t"))
    built, made = [], []
    at_corners, init = sio._graph_at_corners, sio._WeightSlots.__init__

    def counted_graph(*args):
        built.append(args[:2])
        return at_corners(*args)

    def counted_slots(self, g):
        made.append(g)
        init(self, g)

    monkeypatch.setattr(sio, "_graph_at_corners", counted_graph)
    monkeypatch.setattr(sio._WeightSlots, "__init__", counted_slots)
    assert parse_instance(text).weights == w
    assert built == [(4, 5)]
    assert made == [w.graph]


@given(st.permutations(emit_instance_dimacs(build_base_triangle(3), tag="t").splitlines()))
@settings(max_examples=50, deadline=None)
def test_dimacs_lines_in_any_order(lines):
    text = emit_instance_dimacs(build_base_triangle(3), tag="t")
    edges_first = sorted(lines, key=lambda line: not line.startswith("e "))
    for order in (lines, edges_first):
        assert parse_instance("\n".join(order) + "\n") == parse_instance(text)


# sha256 of the emitted documents, recorded before the lattice was built from
# colex-rank arithmetic: a change of node order, edge order or weight
# rendering shows here
EMISSION_SHA256 = {
    ("triangle", "dimacs", False): "a8b7a0b4a68236d73e47f1b6117c328b92c8cffd3d9ef17a9a7c6358df581e19",
    ("triangle", "dimacs", True): "52113540a5f8ee24ba5410230d37538e7bea4aeea5a9c759d688db7dab780608",
    ("triangle", "json", False): "8b635a46c722d824edfa22d2033b28d6d6d7008f51cab94ec7b2049e6f0d920a",
    ("triangle", "json", True): "79b91287903bfa7f75266d04026fb5165ab1508db2cc5c42eea623578788cd32",
    ("combined", "dimacs", False): "b4cb484170f6ce9c637f376565a134ba03334e73d4ef3a7db60bac7bd8bc189a",
    ("combined", "dimacs", True): "b4cb484170f6ce9c637f376565a134ba03334e73d4ef3a7db60bac7bd8bc189a",
    ("combined", "json", False): "d0116868d97e002e8f9190df4160223198609954338e362ee7625c3bd4214b1f",
    ("combined", "json", True): "d0116868d97e002e8f9190df4160223198609954338e362ee7625c3bd4214b1f",
    ("uniform", "dimacs", False): "128a7ebed0d6e92ca3577a801fbc5cd5e8c73ad19b02f21a16245d9ec55f8ed7",
    ("uniform", "dimacs", True): "128a7ebed0d6e92ca3577a801fbc5cd5e8c73ad19b02f21a16245d9ec55f8ed7",
    ("uniform", "json", False): "f57cb553273f76ad7a0971425380f2610458453835493a327355ec1d0e242390",
    ("uniform", "json", True): "f57cb553273f76ad7a0971425380f2610458453835493a327355ec1d0e242390",
}


def test_emission_matches_recorded_hashes():
    instances = {
        "triangle": build_base_triangle(9),
        "combined": combine(GapParams.tuned(c=Fraction(1, 4)), build_graph(4, 12)),
        "uniform": build_component(4, build_graph(4, 5)),
    }
    emitters = {"dimacs": emit_instance_dimacs, "json": emit_instance_json}
    for (name, fmt, zero_edges), digest in EMISSION_SHA256.items():
        text = emitters[fmt](instances[name], include_zero_edges=zero_edges)
        assert sha256(text.encode()).hexdigest() == digest, (name, fmt, zero_edges)


@pytest.mark.parametrize("block_rows", [1, 7])
def test_emission_blocks_do_not_change_documents(monkeypatch, block_rows):
    monkeypatch.setattr(sio, "EMIT_BLOCK_ROWS", block_rows)
    test_emission_matches_recorded_hashes()


@pytest.mark.parametrize("slice_chars", [1, 2, 5, 64])
def test_parse_slices_do_not_change_lines(monkeypatch, slice_chars):
    w = combine(GapParams.tuned(c=Fraction(1, 3)), build_graph(4, 3))
    text = emit_instance_dimacs(w, tag="combined", c=Fraction(1, 3))
    expected = parse_instance(text)
    # CRLF endings, blank lines, a missing final newline and lone CRs,
    # whichever line break a slice ends in
    crlf = text.replace("\n", "\r\n\r\n")[:-4]
    mixed = text.replace("\ne ", "\re ")
    monkeypatch.setattr(sio, "PARSE_SLICE_CHARS", slice_chars)
    for variant in (text, crlf, mixed):
        assert parse_instance(variant) == expected


def _with_edge_rows(text: str, reorder) -> str:
    lines = text.splitlines()
    rows = [l for l in lines if l.startswith("e ")]
    return "\n".join([l for l in lines if not l.startswith("e ")] + reorder(rows)) + "\n"


@pytest.mark.parametrize("slice_chars", [64, sio.PARSE_SLICE_CHARS])
def test_one_weight_written_two_ways_is_one_palette_value(monkeypatch, slice_chars):
    # the same weight as "1/2" and "2/4" gets two text codes while reading,
    # which the map merges into one palette value
    g = build_graph(3, 4)
    w = WeightMap(g, dict.fromkeys(range(len(g.edges)), Fraction(1, 2)))
    text = emit_instance_dimacs(w)
    rows = [line for line in text.splitlines() if line.startswith("e ")]
    assert rows[5].endswith(" 1/2")
    monkeypatch.setattr(sio, "PARSE_SLICE_CHARS", slice_chars)
    parsed = parse_instance(text.replace(rows[5] + "\n", rows[5][:-3] + "2/4\n")).weights
    assert parsed == w and parsed.palette == (0, 1) and parsed.den == 2
    assert set(parsed.codes) == {1}


@pytest.mark.parametrize("k,n", [(2, 9), (3, 7), (4, 6), (5, 4), (6, 3)])
def test_node_name_window_covers_both_ends_of_each_run(k, n):
    # a run of edges needs the names up to its last tail plus reach(k, n),
    # however short the run and wherever it starts
    g = build_graph(k, n)
    for size in (1, 2, 7, 50):
        names = sio._NodeNames(g)
        for start in range(0, len(g.tails), size):
            us, vs = g.tails[start : start + size], g.heads[start : start + size]
            window = names.window(us)
            assert all(u in window and v in window for u, v in zip(us, vs))
            assert all(window[r] == str(r) for r in window)


def test_edge_rows_in_any_order_fill_the_same_slots():
    w = combine(GapParams.tuned(c=Fraction(1, 3)), build_graph(4, 6))
    text = emit_instance_dimacs(w)
    for reorder in (list, lambda rows: rows[::-1]):
        assert parse_instance(_with_edge_rows(text, reorder)).weights == w

    def shuffled_with_duplicate(rows):
        rows = rows[:]
        random.Random(7).shuffle(rows)
        # the twin fills the slot the next-edge hint points past
        return rows[:10] + [rows[9]] + rows[11:]

    with pytest.raises(ValueError, match="duplicate edge"):
        parse_instance(_with_edge_rows(text, shuffled_with_duplicate))


@pytest.fixture(scope="module")
def n48_document():
    w = combine(GapParams.tuned(c=Fraction(1, 4)), build_graph(4, 48))
    return w, emit_instance_dimacs(w)


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emission_peak_memory_is_bounded(n48_document):
    # edge lines are joined a block at a time, not held as one list, and
    # each block is appended to the one document, which grows in place
    # (1.31 measured on CPython 3.11; a second copy of the document would
    # take it past 2)
    w, text = n48_document
    assert len(w.graph.edges) == 117_600
    again, peak = _traced_peak(emit_instance_dimacs, w)
    assert again == text
    assert peak / len(text) <= 1.5


def test_parse_peak_memory_is_bounded(n48_document):
    # the text is split into tokens a slice at a time, three a row, and
    # each edge's slot takes 4 bytes (0.43 measured on CPython 3.11)
    w, text = n48_document
    parsed, peak = _traced_peak(parse_instance, text)
    assert parsed.weights == w
    assert peak / len(text) <= 0.6


def test_edges_first_parse_peak_memory_is_bounded(n48_document):
    # edge lines read before the graph exists are only checked, not held,
    # and the text is read again from the top once the graph exists (0.44
    # measured on CPython 3.11)
    w, text = n48_document
    lines = text.splitlines()
    edges_first = "\n".join(sorted(lines, key=lambda line: not line.startswith("e "))) + "\n"
    parsed, peak = _traced_peak(parse_instance, edges_first)
    assert parsed.weights == w
    assert peak / len(edges_first) <= 0.6


# Fuzzing: mutated valid documents may be rejected, but only with ValueError.

_FUZZ_INSTANCES = (
    build_base_triangle(3),
    combine(GapParams.tuned(c=Fraction(1, 3)), build_graph(4, 3)),
)
_FUZZ_TEXTS = [emit_instance_json(w, tag="t", c=Fraction(1, 3)) for w in _FUZZ_INSTANCES]
_FUZZ_TEXTS += [
    emit_instance_dimacs(w, tag="t", lam=GapParams.tuned().lams()) for w in _FUZZ_INSTANCES
]
_FUZZ_CUTS = [emit_cut(midlines(build_graph(3, 3))), emit_cut(isolate_terminals(build_graph(4, 2)))]

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 100)
    | st.floats(allow_nan=True)
    | st.text(alphabet="0123456789-/.e xa", max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _text_mutation(draw, texts):
    """Delete, insert or replace a short run of characters."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(i + 4, len(text))))
        insert = draw(st.text(alphabet='0123456789-/.e ,:{}[]"\nptcx', max_size=4))
        text = text[:i] + insert + text[j:]
    return text


@st.composite
def _json_mutation(draw, texts):
    """Replace or delete one value somewhere in a parsed JSON document."""
    doc = json.loads(draw(st.sampled_from([t for t in texts if t.startswith("{")])))
    key = draw(st.sampled_from(sorted(doc)))
    holder, slot = doc, key
    while isinstance(holder[slot], list) and holder[slot] and draw(st.booleans()):
        holder, slot = holder[slot], draw(st.integers(0, len(holder[slot]) - 1))
    if draw(st.booleans()):
        holder[slot] = draw(_json_values)
    elif isinstance(holder, dict):
        del holder[slot]
    else:
        holder.pop(slot)
    return json.dumps(doc)


@st.composite
def _line_mutation(draw, texts):
    """Drop, duplicate or rewrite one token of one line of a DIMACS document."""
    lines = draw(st.sampled_from([t for t in texts if not t.startswith("{")])).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(("drop", "duplicate", "token")))
    if action == "drop":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split()
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j] = draw(
            st.sampled_from(("", "-1", "0", "2", "99", "1/0", "x", "1/2", "e", "p", "-1/3"))
        )
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _rejects_only_with_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@given(
    st.one_of(
        _text_mutation(_FUZZ_TEXTS), _json_mutation(_FUZZ_TEXTS), _line_mutation(_FUZZ_TEXTS)
    )
)
@settings(max_examples=300, deadline=None)
def test_parse_instance_fuzz_raises_only_value_error(text):
    _rejects_only_with_value_error(parse_instance, text)


@given(st.one_of(_text_mutation(_FUZZ_CUTS), _json_mutation(_FUZZ_CUTS)))
@settings(max_examples=200, deadline=None)
def test_parse_cut_fuzz_raises_only_value_error(text):
    _rejects_only_with_value_error(parse_cut, text)


# The line-by-line DIMACS reader as it stood before slices of edge lines
# were read at one go, kept as an oracle: on any text the sliced reader must
# give the same instance, or raise ValueError with the same message.  It
# refuses a problem line that announces a negative edge count, or more edges
# than the lattice has, at that line, as the sliced reader does.


def _reference_lines(text):
    start = 0
    while start < len(text):
        end = text.find("\n", start + sio.PARSE_SLICE_CHARS - 1) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _reference_ints(fields, kind, line):
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ValueError(f"malformed {kind} line: {line!r}") from None


def _reference_parse_dimacs(text):
    tag = None
    c_value = None
    lam = None
    header = None
    terminal_rows = []
    slots = None
    edge_lines = 0
    for raw in _reference_lines(text):
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        fields = rest.split()
        if kind == "e":
            if len(fields) != 3:
                raise ValueError(f"malformed edge line: {line!r}")
            u, v, wt = fields
            edge_lines += 1
            if slots is not None:
                slots.add(*_reference_ints((u, v), "edge", line), wt)
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
            declared_nodes, declared_edges, k = _reference_ints(fields[1:], "problem", line)
            if declared_edges < 0:
                raise ValueError(f"problem line announces {declared_edges} edges, fewer than 0")
            n = sio._invert_node_count(k, declared_nodes)
            if declared_edges > edge_count(k, n):
                raise ValueError(
                    f"problem line announces {declared_edges} edges, the lattice has {edge_count(k, n)}"
                )
            header = (declared_edges, k, n)
        elif kind == "t":
            if len(fields) != 2:
                raise ValueError(f"malformed terminal line: {line!r}")
            terminal_rows.append(tuple(_reference_ints(fields, "terminal", line)))
        else:
            raise ValueError(f"unknown line kind: {kind!r}")
        if slots is None and header is not None and len(terminal_rows) == header[1]:
            slots = sio._WeightSlots(sio._graph_at_corners(header[1], header[2], terminal_rows))
            early = edge_lines
            if early:
                for again in _reference_lines(text):
                    head, _, tail = again.strip().partition(" ")
                    if head == "e":
                        u, v, wt = tail.split()
                        slots.add(*_reference_ints((u, v), "edge", again.strip()), wt)
                        early -= 1
                        if not early:
                            break
    if header is None:
        raise ValueError("missing problem line")
    declared_edges, k, _ = header
    if slots is None or len(terminal_rows) != k:
        raise ValueError("terminal lines do not match the lattice")
    if edge_lines != declared_edges:
        raise ValueError(f"problem line announces {declared_edges} edges, found {edge_lines}")
    return sio.ParsedInstance(weights=slots.weight_map(), tag=tag, c=c_value, lam=lam)


def _outcome(parse, text):
    try:
        parsed = parse(text)
    except ValueError as exc:
        return "rejected", str(exc)
    return parsed.weights, parsed.tag, parsed.c, parsed.lam


_DIMACS_TEXTS = [t for t in _FUZZ_TEXTS if not t.startswith("{")]
_DIMACS_TEXTS.append(emit_instance_dimacs(build_component(4, build_graph(4, 5))))


ARABIC_DIGITS = "".join(map(chr, range(0x660, 0x66A)))


def _odd_forms(token):
    """Ways to write a token that int(), str.split() or str.splitlines()
    read differently from its plain form."""
    forms = ["+" + token, "0" + token, token[:1] + "_" + token[1:], token + "\t", "e\t" + token]
    forms.append(token.translate(str.maketrans("0123456789", ARABIC_DIGITS)))
    forms += [token + "\r", "\t", "e\t1", "\r", "+3", "03", "1_0", "\u0663"]
    return forms


@st.composite
def _odd_token_mutation(draw, texts):
    """Write one token of one line in an odd form."""
    lines = draw(st.sampled_from(texts)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    j = draw(st.integers(0, len(tokens) - 1))
    tokens[j] = draw(st.sampled_from(_odd_forms(tokens[j])))
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _edges_first(text):
    lines = text.splitlines()
    return "\n".join(sorted(lines, key=lambda line: not line.startswith("e "))) + "\n"


_LAYOUTS = {
    "as emitted": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "lone cr": lambda text: text.replace("\n", "\r"),
    "edges first": _edges_first,
    "edges first, crlf": lambda text: _edges_first(text).replace("\n", "\r\n"),
}


@given(
    st.one_of(
        st.sampled_from(_DIMACS_TEXTS),
        _line_mutation(_DIMACS_TEXTS),
        _text_mutation(_DIMACS_TEXTS),
        _odd_token_mutation(_DIMACS_TEXTS),
    ),
    st.sampled_from(sorted(_LAYOUTS)),
)
@settings(max_examples=400, deadline=None)
def test_sliced_reader_matches_line_reader(text, layout):
    text = _LAYOUTS[layout](text)
    default = sio.PARSE_SLICE_CHARS
    try:
        for slice_chars in (64, default):
            sio.PARSE_SLICE_CHARS = slice_chars
            expected = _outcome(_reference_parse_dimacs, text)
            assert _outcome(sio.parse_instance_dimacs, text) == expected, slice_chars
    finally:
        sio.PARSE_SLICE_CHARS = default


def test_edge_slices_are_read_at_one_go(monkeypatch, n48_document):
    # only the edge rows in the header's slice go through add one by one;
    # every later slice is taken in whole, so a silent fall-back to the line
    # reader fails here
    w, text = n48_document
    calls = []
    add = sio._WeightSlots.add

    def counted(self, u, v, wt):
        calls.append((u, v))
        add(self, u, v, wt)

    monkeypatch.setattr(sio._WeightSlots, "add", counted)
    first = next(sio._slices(text))
    assert sio.parse_instance(text).weights == w
    assert len(first) < len(text) // 50
    assert len(calls) == sum(line.startswith("e ") for line in first.splitlines())


def _two_rows(edit):
    # apply edit to rows i and i + 1
    return lambda lines, i: lines[:i] + edit(lines[i], lines[i + 1]) + lines[i + 2 :]


def _first_three(row):
    return row.rsplit(" ", 1)[0]


def _weight(row):
    return row.rsplit(" ", 1)[1]


# Edits of edge rows that a slice test could let through: each keeps most of
# the shape of "e u v w" lines, so only one of _edge_tokens' or fill's tests
# tells the slice apart from rows read one by one.
_ROW_EDITS = {
    "two rows on one line": _two_rows(lambda a, b: [f"{a} {b}"]),
    "weight moved to the next line": _two_rows(lambda a, b: [_first_three(a), f"{_weight(a)} {b}"]),
    "weight moved to the next row": _two_rows(lambda a, b: [_first_three(a), f"{b} {_weight(a)}"]),
    "e moved to the row before": _two_rows(lambda a, b: [f"{a} e", _first_three(b)]),
    "blank line between rows": _two_rows(lambda a, b: [a, "", b]),
    "spaces around tokens": _two_rows(lambda a, b: [f" {a}  ", b.replace(" ", "  ")]),
    "unknown kind": _two_rows(lambda a, b: [a, "x" + b[1:]]),
    "lone cr in a row": _two_rows(lambda a, b: [a, f"{_first_three(b)}\r{_weight(b)}"]),
    "vertical tab in a row": _two_rows(lambda a, b: [a, f"{_first_three(b)}\v{_weight(b)}"]),
    "line separator in a row": _two_rows(lambda a, b: [a, f"{_first_three(b)}\u2028{_weight(b)}"]),
    "tab in a row": _two_rows(lambda a, b: [a, b.replace(" ", "\t", 2)]),
    "odd digits": _two_rows(lambda a, b: [a.replace(" ", " +", 1), b.replace(" ", " 0", 2)]),
    "arabic digits": _two_rows(lambda a, b: [a, b.translate(str.maketrans("0123456789", ARABIC_DIGITS))]),
    "negative weight": _two_rows(lambda a, b: [a, f"{_first_three(b)} -{_weight(b)}"]),
    "rows swapped": _two_rows(lambda a, b: [b, a]),
    "row repeated first": lambda lines, i: [lines[i], *lines],
    "rows repeated at the end": lambda lines, i: lines + lines[i : i + 8],
    "e dropped from a row": _two_rows(lambda a, b: [a, b[1:]]),
    "e and its space dropped from a row": _two_rows(lambda a, b: [a, b[2:]]),
}
# whitespace at which str.split() splits, or str.splitlines() ends a line,
# inside a weight text or just after it, where a split on " " does not
for odd in "\t\v\f\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000":
    _ROW_EDITS[f"U+{ord(odd):04X} inside a weight"] = _two_rows(
        lambda a, b, odd=odd: [a, f"{b[:-1]}{odd}{b[-1]}"]
    )
    _ROW_EDITS[f"U+{ord(odd):04X} after a weight"] = _two_rows(lambda a, b, odd=odd: [a, b + odd])


@pytest.mark.parametrize("edit", sorted(_ROW_EDITS))
def test_sliced_reader_matches_line_reader_on_edited_rows(edit):
    text = emit_instance_dimacs(build_component(4, build_graph(4, 5)), tag="t")
    lines = text.splitlines()
    default = sio.PARSE_SLICE_CHARS
    try:
        for i in range(len(lines) // 2, len(lines) // 2 + 8):
            edited = "\n".join(_ROW_EDITS[edit](lines, i)) + "\n"
            for variant in (edited, edited.replace("\n", "\r\n"), _edges_first(edited)):
                for slice_chars in (64, 200, default):
                    sio.PARSE_SLICE_CHARS = slice_chars
                    expected = _outcome(_reference_parse_dimacs, variant)
                    assert _outcome(sio.parse_instance_dimacs, variant) == expected
    finally:
        sio.PARSE_SLICE_CHARS = default


@pytest.mark.parametrize("slice_chars", [64, 200, None], ids=["64", "200", "default"])
@pytest.mark.parametrize("cut", [0, 1, 2], ids=["as emitted", "e dropped", "e and space dropped"])
@pytest.mark.parametrize("instance", ["uniform", "combined"])
def test_row_after_a_slice_ending_row(monkeypatch, instance, cut, slice_chars):
    # a slice's first row loses its leading "e" (or "e "), right after a
    # slice read at one go whose last weight text the reader has seen
    # before; the uniform map repeats one weight text on every row
    g = build_graph(4, 24)
    w = build_component(4, g) if instance == "uniform" else combine(GapParams.tuned(c=Fraction(1, 4)), g)
    text = emit_instance_dimacs(w, tag="t")
    if slice_chars is not None:
        monkeypatch.setattr(sio, "PARSE_SLICE_CHARS", slice_chars)
    # the first slice after the header's one whose last weight text is
    # also that of an earlier row
    ends = accumulate(map(len, sio._slices(text)))
    end = next(e for e in list(ends)[1:-1] if text[:e].count(" " + text[:e].rsplit(" ", 1)[1]) > 1)
    assert text[end:].startswith("e ")
    edited = text[:end] + text[end + cut :]
    expected = _outcome(_reference_parse_dimacs, edited)
    assert expected[0] == ("rejected" if cut else w)
    assert _outcome(sio.parse_instance_dimacs, edited) == expected


def test_rows_past_the_last_edge_fall_back_to_the_line_reader(monkeypatch):
    # the first slice ends with the last edge, so the next slice's rows
    # would continue from past the end of the edge list
    text = emit_instance_dimacs(build_base_triangle(3))
    again = text + "".join(line + "\n" for line in text.splitlines() if line.startswith("e "))
    monkeypatch.setattr(sio, "PARSE_SLICE_CHARS", len(text))
    assert next(sio._slices(again)) == text
    assert _outcome(sio.parse_instance_dimacs, again) == ("rejected", "duplicate edge (0, 1)")
    assert _outcome(_reference_parse_dimacs, again) == ("rejected", "duplicate edge (0, 1)")
