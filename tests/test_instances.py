"""Instance weights: the base triangle, the four components, mixing."""

import hashlib
import pickle
from array import array
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplexcut import (
    COMPONENT_NAMES,
    CutLabeling,
    GapParams,
    WeightMap,
    boundary_edges,
    boundary_nodes,
    build_base_triangle,
    build_component,
    build_graph,
    combine,
    combine_maps,
    cost,
    emit_instance_dimacs,
    emit_instance_json,
    midlines,
    parse_instance,
    red_regions,
)
from simplexcut.instances import _COUNTED_PALETTE, _component_terms

# boundary schedule at n=9 (m=3, rho=1/15): descending from both corners,
# middle third flat
N9_BOUNDARY_SCHEDULE = [3, 2, 1, 1, 1, 1, 1, 2, 3]


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_base_triangle_totals(n):
    assert build_base_triangle(n).total() == n


def test_base_triangle_rejects_other_resolutions():
    for n in (2, 4, 7):
        with pytest.raises(ValueError):
            build_base_triangle(n)


def test_boundary_schedule_frozen():
    n = 9
    w = build_base_triangle(n)
    g = w.graph
    rho = Fraction(3, 5 * n)
    for pair in [(1, 2), (1, 3), (2, 3)]:
        line_nodes = boundary_nodes(g, pair)
        # order the line by the first coordinate of the pair, descending
        # from the pair's first corner
        ordered = sorted(line_nodes, key=lambda u: -g.nodes[u][pair[0] - 1])
        weights = [
            w.weight(g.edge_between(a, b)) for a, b in zip(ordered, ordered[1:])
        ]
        assert weights == [m * rho for m in N9_BOUNDARY_SCHEDULE]


def test_nonzero_edge_count_at_n9():
    w = build_base_triangle(9)
    assert len(w.graph.edges) == 135
    assert len(w.weights) == 117


def test_zero_edges_at_n3():
    w = build_base_triangle(3)
    g = w.graph
    zero = [e for e in range(len(g.edges)) if w.weight(e) == 0]
    assert len(zero) == 3
    for e in zero:
        u, v = g.edges[e]
        # both endpoints deep in one corner: some shared coordinate >= 2n/3
        shared = [
            i
            for i in range(3)
            if g.nodes[u][i] == g.nodes[v][i] and g.nodes[u][i] >= 2 * g.n // 3
        ]
        assert shared


@pytest.mark.parametrize("n", range(2, 13))
def test_lines_component_total(n):
    g = build_graph(4, n)
    assert build_component(2, g).total() == n


@pytest.mark.parametrize("n", range(3, 13))
def test_cycles_component_total(n):
    g = build_graph(4, n)
    w = build_component(3, g, c=Fraction(1, n))
    assert w.total() == n
    assert set(w.weights) == set().union(*red_regions(g, Fraction(1, n)))


def _maps_digest(maps):
    """sha256 of each map's den, palette and codes, in order."""
    h = hashlib.sha256()
    for w in maps:
        h.update(repr((w.den, w.palette, w.codes.typecode)).encode())
        h.update(w.codes.tobytes())
    return h.hexdigest()


def test_cycles_and_tuned_maps_are_pinned():
    # digests taken before the corner cycles were built from boundary_edges:
    # the cycles component at every integral depth for n = 3..24 (132 maps),
    # and the tuned mixture at n = 78
    cycles = [
        build_component(3, build_graph(4, n), c=Fraction(d, n))
        for n in range(3, 25)
        for d in range(1, (n + 1) // 2)
    ]
    assert len(cycles) == 132
    assert _maps_digest(cycles) == (
        "075ea1517f02f2dcba2ce436020076ad4210d6975e21bd9c0779f2d72238b997"
    )
    tuned = combine(GapParams.tuned(c=Fraction(1, 13)), build_graph(4, 78))
    assert _maps_digest([tuned]) == (
        "2964eadf4be9a28be47b8f246a6c335ac01a598e316645545df988fe908e760c"
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_uniform_component_total(n):
    g = build_graph(4, n)
    assert build_component(4, g).total() == n + 3 + Fraction(2, n)


def test_face_component_matches_lifted_triangle():
    g = build_graph(4, 9)
    w = build_component(1, g)
    assert w.total() == 9
    # every weighted edge stays on the x4 = 0 face
    for e in w.weights:
        u, v = g.edges[e]
        assert g.nodes[u][3] == 0 and g.nodes[v][3] == 0


@pytest.mark.parametrize("n", range(3, 31, 3))
def test_face_component_is_the_edge_prefix_lift(n):
    # the face's edges are the k = 4 edges among its node prefix, in the
    # triangle's order: the lift that looks each edge up by its endpoints
    g = build_graph(4, n)
    base = build_base_triangle(n)
    lifted = map(g.edge_between, base.graph.tails, base.graph.heads)
    nums = [base.palette[code] for code in base.codes]
    assert _component_terms(1, g, None) == (base.den, 0, dict(zip(lifted, nums)))


def test_component_names():
    assert COMPONENT_NAMES == {1: "face", 2: "lines", 3: "cycles", 4: "uniform"}


def test_component_rejects_three_terminal_graph():
    with pytest.raises(ValueError):
        build_component(2, build_graph(3, 6))


_ACCEPTED_PARAMS = [
    (1, 0, 0, 0, Fraction(1, 4)),
    ("1/2", "0.25", "1/8", "0.125", "1/3"),
    (0.5, 0.25, 0.125, 0.125, 0.375),
    (Fraction(1, 3), Fraction(1, 6), Fraction(1, 10), Fraction(2, 5), Fraction(1, 9)),
    (True, False, 0, "0", "1e-3"),
    (1, "-0", 0, -0.0, "1/4"),  # negative zero is zero
]

_REJECTED_PARAMS = [
    ((Fraction(3, 2), Fraction(-1, 2), 0, 0, Fraction(1, 4)), "mixing weights must be nonnegative"),
    ((2, -1, 0, 0, Fraction(1, 4)), "mixing weights must be nonnegative"),
    ((Fraction(1, 2),) * 4 + (Fraction(1, 4),), "mixing weights sum to 2, expected 1"),
    (("1/3", "1/3", "1/3", "1/7", "1/4"), "mixing weights sum to 8/7, expected 1"),
    ((0.1, 0.2, 0.3, 0.4, 0.25), "mixing weights sum to 36028797018963969/36028797018963968, expected 1"),
    ((0, 0, 0, 0, "1/4"), "mixing weights sum to 0, expected 1"),
    ((1, 0, 0, 0, 0), "cap depth out of range: 0"),
    ((1, 0, 0, 0, Fraction(1, 2)), "cap depth out of range: 1/2"),
    ((1, 0, 0, 0, "-1/4"), "cap depth out of range: -1/4"),
    ((1, 0, 0, 0, 0.75), "cap depth out of range: 3/4"),
]


def test_gap_params_validation():
    # ints, numeric strings, exact floats and Fractions all become Fractions
    for args in _ACCEPTED_PARAMS:
        p = GapParams(*args)
        values = p.lams() + (p.c,)
        assert all(type(x) is Fraction for x in values)
        assert values == tuple(Fraction(x) for x in args)
    for args, message in _REJECTED_PARAMS:
        with pytest.raises(ValueError) as info:
            GapParams(*args)
        assert str(info.value) == message


def test_tuned_values():
    p = GapParams.tuned()
    assert p.lams() == (
        Fraction(751652, 10**6),
        Fraction(147852, 10**6),
        Fraction(275, 10**6),
        Fraction(100221, 10**6),
    )
    assert p.c == Fraction(74125, 10**6)
    assert GapParams.tuned(c=Fraction(1, 3)).c == Fraction(1, 3)
    assert GapParams.tuned(c=Fraction(1, 3)).lams() == p.lams()


def test_combine_total_closed_form():
    # full tuned mixture at the nearest resolution where the face exists
    params = GapParams.tuned(c=Fraction(1, 13))
    n = 39
    w = combine(params, build_graph(4, n))
    lam4 = params.lam4
    assert w.total() == n + 3 * lam4 + 2 * lam4 / n
    # face-free mixture at n = 40 with the rounded cap depth
    params = GapParams(0, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(3, 40))
    w = combine(params, build_graph(4, 40))
    assert w.total() == 40 + 3 * Fraction(1, 4) + 2 * Fraction(1, 4) / 40


def test_combine_skips_cycles_when_lam3_zero():
    # c*n is not integral at n=6, but lam3 = 0 never instantiates it
    params = GapParams(Fraction(1, 2), Fraction(1, 4), 0, Fraction(1, 4), Fraction(1, 7))
    w = combine(params, build_graph(4, 6))
    assert w.total() == 6 + 3 * Fraction(1, 4) + 2 * Fraction(1, 4) / 6
    # and the face is skipped the same way when lam1 = 0
    params = GapParams(0, Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 3))
    w = combine(params, build_graph(4, 7))
    assert w.total() == 7 + 3 * Fraction(1, 2) + 2 * Fraction(1, 2) / 7


def test_combine_rejects_nonintegral_depth_when_needed():
    params = GapParams(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8), Fraction(1, 3))
    with pytest.raises(ValueError):
        combine(params, build_graph(4, 7))


@given(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
)
@settings(max_examples=30, deadline=None)
def test_combine_is_linear_in_lambda(raw):
    total = sum(raw)
    lam = tuple(Fraction(r, total) for r in raw)
    params = GapParams(*lam, c=Fraction(1, 3))
    g = build_graph(4, 6)
    w = combine(params, g)
    comps = {
        i: build_component(i, g, c=Fraction(1, 3) if i == 3 else None)
        for i in (1, 2, 3, 4)
    }
    for e in range(len(g.edges)):
        expected = sum(lam[i - 1] * comps[i].weight(e) for i in (1, 2, 3, 4))
        assert w.weight(e) == expected


def test_combine_maps_matches_combine():
    params = GapParams(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8), Fraction(1, 3))
    g = build_graph(4, 6)
    parts = [
        (params.lam1, build_component(1, g)),
        (params.lam2, build_component(2, g)),
        (params.lam3, build_component(3, g, c=params.c)),
        (params.lam4, build_component(4, g)),
    ]
    a = combine_maps(parts)
    b = combine(params, g)
    assert a.weights == b.weights


def test_combined_map_at_n78_is_a_byte_palette():
    # 29 distinct numerators, all nonzero since the uniform component
    # fills every edge, and the 0 that every palette starts with
    w = combine(GapParams.tuned(c=Fraction(1, 13)), build_graph(4, 78))
    assert len(w.palette) == 30 and 0 not in w.codes
    assert w.codes.itemsize == 1
    assert len(w.codes) * w.codes.itemsize == 492_960


def _dense_combination(params, g):
    return combine_maps(
        [
            (lam, build_component(i, g, c=params.c if i == 3 else None))
            for i, lam in enumerate(params.lams(), start=1)
            if lam
        ]
    )


def _assert_matches_dense(params, g):
    w, expected = combine(params, g), _dense_combination(params, g)
    assert w == expected and w.den == expected.den
    assert w.palette == expected.palette and w.codes == expected.codes


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_combine_matches_dense_combination(data):
    n = data.draw(st.integers(3, 12))
    raw = data.draw(st.lists(st.integers(0, 8), min_size=4, max_size=4))
    if n % 3:
        raw[0] = 0  # the face needs n divisible by 3
    total = sum(raw)
    assume(total > 0)
    # c*n is integral wherever the cycles weigh; elsewhere it need not be
    k = data.draw(st.integers(1, (n - 1) // 2))
    c = Fraction(k, n if raw[2] else n + 1)
    _assert_matches_dense(GapParams(*(Fraction(r, total) for r in raw), c=c), build_graph(4, n))


def test_combine_matches_dense_combination_at_n78():
    _assert_matches_dense(GapParams.tuned(c=Fraction(1, 13)), build_graph(4, 78))


def test_combine_maps_rejects_mixed_graphs():
    first = build_component(2, build_graph(4, 4))
    # one map differs from the first map's lattice in n, the other in k
    for other in (build_component(2, build_graph(4, 5)), WeightMap(build_graph(3, 4), {0: 1})):
        with pytest.raises(ValueError, match="^weight maps live on different graphs$"):
            combine_maps([(Fraction(1, 2), first), (Fraction(1, 2), other)])


def _assert_canonical(w):
    """The palette contract: ascending from 0, one code per edge in the
    typecode the palette's length needs, and no value that no edge uses
    apart from the leading 0."""
    assert w.palette[0] == 0 and list(w.palette) == sorted(set(w.palette))
    assert w.codes.typecode == ("B" if len(w.palette) <= 256 else "H" if len(w.palette) <= 65536 else "I")
    assert len(w.codes) == len(w.graph.edges)
    assert set(w.codes) | {0} == set(range(len(w.palette)))
    assert list(w.weights) == [e for e, code in enumerate(w.codes) if code]


def _same_map(*maps):
    first = maps[0]
    _assert_canonical(first)
    for w in maps[1:]:
        _assert_canonical(w)
        assert w == first and hash(w) == hash(first)


def _parsed(w, include_zero_edges):
    return [
        parse_instance(emit(w, include_zero_edges=include_zero_edges)).weights
        for emit in (emit_instance_json, emit_instance_dimacs)
    ]


def _from_codes(w):
    """w rebuilt from integers by from_codes, in each form it takes: values
    out of order and repeated, 0 at a nonzero code, a factor shared with
    den, and 4-byte codes that narrow to bytes."""
    g, palette, codes = w.graph, w.palette, w.codes
    # palette[c] sits at code 2 (len(palette) - 1 - c) and at the one after it
    values = [x for x in reversed(palette) for _ in (0, 1)]
    top = len(values) - 2
    shuffled = array("B", (top - 2 * code + e % 2 for e, code in enumerate(codes)))
    rebuilt = WeightMap.from_codes(g, w.den, values, shuffled)
    # byte codes that stay bytes are remapped in place
    assert rebuilt.codes is shuffled
    return [
        rebuilt,
        WeightMap.from_codes(g, w.den, [0, *palette], array("B", (code + 1 for code in codes))),
        WeightMap.from_codes(g, 6 * w.den, [6 * x for x in palette], array("B", codes)),
        WeightMap.from_codes(g, w.den, list(palette), array("I", codes)),
    ]


@pytest.mark.parametrize("include_zero_edges", [False, True])
def test_every_builder_gives_the_one_palette_form(include_zero_edges):
    params = GapParams(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8), Fraction(1, 3))
    g = build_graph(4, 6)
    w = combine(params, g)
    parts = [(lam, build_component(i, g, c=params.c)) for i, lam in enumerate(params.lams(), start=1)]
    _same_map(
        w,
        WeightMap(g, dict(w.weights)),
        *_from_codes(w),
        combine_maps(parts),
        *_parsed(w, include_zero_edges),
    )
    for i, (lam, part) in enumerate(parts, start=1):
        alone = GapParams(*(Fraction(j == i) for j in range(1, 5)), c=params.c)
        _same_map(
            part,
            combine(alone, g),
            combine_maps([(1, part)]),
            WeightMap(g, dict(part.weights)),
            *_from_codes(part),
            *_parsed(part, include_zero_edges),
        )
    triangle = build_base_triangle(6)
    _same_map(
        triangle,
        WeightMap(triangle.graph, dict(triangle.weights)),
        *_from_codes(triangle),
        *_parsed(triangle, include_zero_edges),
    )


@pytest.fixture(scope="module")
def n40_graph():
    g = build_graph(4, 40)
    assert len(g.edges) == 68_880
    return g


@pytest.mark.parametrize(
    "size,typecode",
    [(_COUNTED_PALETTE, "B"), (256, "B"), (257, "H"), (65_536, "H"), (65_537, "I")],
)
def test_palette_sizes_round_trip_in_their_typecode(n40_graph, size, typecode):
    # edge e weighs (7919 e mod size)/7: 7919 is a prime that divides no
    # size, so every value 0..size-1 is met, in an order the palette must
    # sort, and some edges weigh 0
    g = n40_graph
    nums = [(e * 7919) % size for e in range(len(g.edges))]
    w = WeightMap(g, {e: Fraction(x, 7) for e, x in enumerate(nums)})
    assert len(w.palette) == size and w.codes.typecode == typecode and w.den == 7
    # the first map is totalled by byte counts, the others code by code
    assert w.total() == Fraction(sum(nums), 7)
    _assert_canonical(w)
    back = pickle.loads(pickle.dumps(w))
    _same_map(w, back, WeightMap(g, dict(w.weights)), *_parsed(w, False), *_parsed(w, True))
    assert back.codes.typecode == typecode


def test_weight_map_survives_a_pickle_round_trip():
    w = build_base_triangle(6)
    back = pickle.loads(pickle.dumps(w))
    assert back.graph is not w.graph
    assert back == w and hash(back) == hash(w)
    p = midlines(build_graph(3, 6))
    assert cost(p, back) == cost(p, w)
    assert combine_maps([(Fraction(1, 2), w), (Fraction(1, 2), back)]) == w


def test_weight_map_default_zero():
    g = build_graph(4, 5)
    w = WeightMap(g, {0: Fraction(1, 2)})
    assert w.weight(0) == Fraction(1, 2)
    assert w.weight(1) == 0
    assert w.total() == Fraction(1, 2)


def test_weight_map_rejects_bad_input():
    g = build_graph(3, 2)
    with pytest.raises(ValueError, match="negative"):
        WeightMap(g, {0: Fraction(-1, 2)})
    with pytest.raises(ValueError, match="unknown edge"):
        WeightMap(g, {len(g.edges): Fraction(1)})
    for key in (1.5, 1.0, "1", Fraction(1), None):
        with pytest.raises(ValueError, match="edge indices must be integers"):
            WeightMap(g, {key: Fraction(1)})
    assert WeightMap(g, {True: Fraction(1)}).weights == {1: Fraction(1)}
    with pytest.raises(ValueError, match="codes for"):
        WeightMap.from_codes(g, 1, [0], array("B", [0]) * (len(g.edges) - 1))
    with pytest.raises(ValueError, match="positive denominator"):
        WeightMap.from_codes(g, 0, [0], array("B", [0]) * len(g.edges))


def test_reprs_name_the_lattice_only():
    # failure messages show these; they must not grow with the graph
    g = build_graph(4, 5)
    assert repr(g) == "SimplexGraph(k=4, n=5)"
    assert repr(build_component(2, g)) == "WeightMap(graph=SimplexGraph(k=4, n=5), den=3, nonzero=15)"


_rationals = st.fractions(min_value=0, max_value=4, max_denominator=12)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_weight_map_matches_fraction_reference(data):
    """Every accessor and combine_maps agree with plain Fraction dicts."""
    k = data.draw(st.sampled_from((3, 4)))
    g = build_graph(k, data.draw(st.integers(1, 6)))
    edge = st.integers(0, len(g.edges) - 1)
    refs = data.draw(
        st.lists(st.dictionaries(edge, _rationals, max_size=10), min_size=1, max_size=4)
    )
    lams = data.draw(st.lists(_rationals, min_size=len(refs), max_size=len(refs)))
    maps = [WeightMap(g, ref) for ref in refs]

    for wm, ref in zip(maps, refs):
        _assert_canonical(wm)
        nonzero = {e: x for e, x in ref.items() if x}
        assert wm.den == lcm(1, *(x.denominator for x in nonzero.values()))
        assert list(wm.weights.items()) == sorted(nonzero.items())
        assert wm.weights == nonzero
        assert wm.total() == sum(nonzero.values(), Fraction(0))
        assert [wm.weight(e) for e in range(len(g.edges))] == [
            nonzero.get(e, Fraction(0)) for e in range(len(g.edges))
        ]

    expected: dict[int, Fraction] = {}
    for lam, ref in zip(lams, refs):
        for e, x in ref.items():
            expected[e] = expected.get(e, Fraction(0)) + lam * x
    expected = {e: x for e, x in expected.items() if x}
    mixed = combine_maps(list(zip(lams, maps)))
    _assert_canonical(mixed)
    assert list(mixed.weights.items()) == sorted(expected.items())
    assert mixed.total() == sum(expected.values(), Fraction(0))

    labels = data.draw(
        st.lists(st.integers(1, k + 1), min_size=len(g.nodes), max_size=len(g.nodes))
    )
    for i, t in enumerate(g.terminals, start=1):
        labels[t] = i
    p = CutLabeling(g, tuple(labels))
    assert cost(p, mixed) == sum(
        (x for e, x in expected.items() if labels[g.edges[e][0]] != labels[g.edges[e][1]]),
        Fraction(0),
    )

    routes = [
        WeightMap(g, expected),
        combine_maps([(Fraction(1), WeightMap(g, expected))]),
        parse_instance(emit_instance_json(mixed)).weights,
        parse_instance(emit_instance_dimacs(mixed, include_zero_edges=True)).weights,
    ]
    for other in routes:
        assert other == mixed
        assert hash(other) == hash(mixed)
