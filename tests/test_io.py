"""Serialization: exact rationals, JSON and DIMACS-style instance files."""

import json
import random
import tracemalloc
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcut import (
    GapParams,
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
from simplexcut import io as sio


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


@pytest.mark.parametrize("tag,c,lam,w", _sample_instances(), ids=lambda v: str(v)[:24])
def test_json_round_trip(tag, c, lam, w):
    text = emit_instance_json(w, tag=tag, c=c, lam=lam)
    parsed = parse_instance(text)
    assert parsed.tag == tag
    assert parsed.c == c
    assert parsed.lam == lam
    assert parsed.weights.graph is w.graph
    assert dict(parsed.weights.items()) == {
        e: wt for e, wt in w.items() if wt != 0
    }


@pytest.mark.parametrize("tag,c,lam,w", _sample_instances(), ids=lambda v: str(v)[:24])
def test_dimacs_round_trip(tag, c, lam, w):
    text = emit_instance_dimacs(w, tag=tag, c=c, lam=lam)
    parsed = parse_instance(text)
    assert parsed.tag == tag
    assert parsed.c == c
    assert parsed.lam == lam
    assert parsed.weights.graph is w.graph
    assert dict(parsed.weights.items()) == {
        e: wt for e, wt in w.items() if wt != 0
    }


@pytest.mark.parametrize("tag,c,lam,w", _sample_instances(), ids=lambda v: str(v)[:24])
def test_cross_format_equality(tag, c, lam, w):
    from_json = parse_instance(emit_instance_json(w, tag=tag, c=c, lam=lam))
    from_dimacs = parse_instance(emit_instance_dimacs(w, tag=tag, c=c, lam=lam))
    assert from_json.weights.graph is from_dimacs.weights.graph
    assert dict(from_json.weights.items()) == dict(from_dimacs.weights.items())
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
    # edge lines are joined a block at a time, not held as one list
    w, text = n48_document
    assert len(w.graph.edges) == 117_600
    again, peak = _traced_peak(emit_instance_dimacs, w)
    assert again == text
    assert peak / len(text) <= 2.5


def test_parse_peak_memory_is_bounded(n48_document):
    # the text is split into lines a slice at a time
    w, text = n48_document
    parsed, peak = _traced_peak(parse_instance, text)
    assert parsed.weights == w
    assert peak / len(text) <= 2


def test_edges_first_parse_peak_memory_is_bounded(n48_document):
    # edge lines read before the graph exists are counted, not held, and
    # read again once the terminal lines are in
    w, text = n48_document
    lines = text.splitlines()
    edges_first = "\n".join(sorted(lines, key=lambda line: not line.startswith("e "))) + "\n"
    parsed, peak = _traced_peak(parse_instance, edges_first)
    assert parsed.weights == w
    assert peak / len(edges_first) <= 2


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
