"""Lattice construction: node order, counts, faces, marked regions."""

import copy
import os
import pickle
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexcut
from simplexcut import (
    GapParams,
    boundary_edges,
    boundary_nodes,
    build_base_triangle,
    build_component,
    build_graph,
    combine,
    limitation_min,
    red_regions,
    simplex_points,
)
from simplexcut.cuts import non_opposite
from simplexcut.lattice import family_choices, family_size, node_count, reach
from simplexcut.reproduce import _pinned
from simplexcut.sperner import admissible, face_relaxed

from helpers import support

PACKAGE_ROOT = Path(simplexcut.__file__).parents[1]

# colexicographic node order is a public contract; frozen by hand
DELTA_3_2_ORDER = [
    (2, 0, 0),
    (1, 1, 0),
    (0, 2, 0),
    (1, 0, 1),
    (0, 1, 1),
    (0, 0, 2),
]


def test_node_order_frozen():
    assert simplex_points(3, 2) == DELTA_3_2_ORDER


def test_node_order_is_colex():
    pts = simplex_points(4, 5)
    assert pts == sorted(pts, key=lambda p: p[::-1])


def test_delta_3_9_shape():
    g = build_graph(3, 9)
    assert len(g.nodes) == 55
    assert len(g.edges) == 135
    assert g.terminals == (0, 9, 54)


@pytest.mark.parametrize("k,n", [(3, 2), (3, 9), (4, 2), (4, 3), (4, 12)])
def test_counts_match_binomials(k, n):
    g = build_graph(k, n)
    assert len(g.nodes) == comb(n + k - 1, k - 1)
    assert len(g.edges) == comb(k, 2) * comb(n + k - 2, k - 1)


@given(st.integers(min_value=3, max_value=5), st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_counts_property(k, n):
    g = build_graph(k, n)
    assert len(g.nodes) == comb(n + k - 1, k - 1)
    assert len(g.edges) == comb(k, 2) * comb(n + k - 2, k - 1)


def test_terminals_are_unit_corners():
    g = build_graph(4, 6)
    for i, t in enumerate(g.terminals):
        p = g.nodes[t]
        assert p[i] == g.n
        assert sum(p) == g.n


def test_edges_are_unit_moves():
    g = build_graph(4, 4)
    for u, v in g.edges:
        diff = [a - b for a, b in zip(g.nodes[u], g.nodes[v])]
        assert sorted(diff) == [-1] + [0] * (g.k - 2) + [1]


def test_edge_index_round_trip():
    g = build_graph(3, 5)
    for e, (u, v) in enumerate(g.edges):
        assert g.edge_between(u, v) == e
        assert g.edge_between(v, u) == e


def _reference_points(k, n):
    """The compositions of n into k parts, lexicographically: the recursive
    enumerator simplex_points once reversed point by point."""
    if k == 1:
        return [(n,)]
    return [(head, *tail) for head in range(n + 1) for tail in _reference_points(k - 1, n - head)]


def _reference_graph(k, n):
    """The tuple-dict construction: every neighbour is found by building its
    coordinate tuple and looking it up in a point -> index dict."""
    nodes = sorted(_reference_points(k, n), key=lambda p: p[::-1])
    index = {p: i for i, p in enumerate(nodes)}
    edges = []
    for u, p in enumerate(nodes):
        for i in range(k):
            if p[i] == 0:
                continue
            for j in range(k):
                if i == j:
                    continue
                q = list(p)
                q[i] -= 1
                q[j] += 1
                v = index[tuple(q)]
                if v > u:
                    edges.append((u, v))
    edges.sort()
    edge_index = {e: i for i, e in enumerate(edges)}
    adj = [[] for _ in nodes]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    terminals = [index[tuple(n if i == t else 0 for i in range(k))] for t in range(k)]
    return nodes, index, edges, edge_index, adj, terminals


def _reference_boundary(nodes, edge_index, pair):
    i, j = pair
    line = [u for u, p in enumerate(nodes) if set(support(p)) <= {i, j}]
    ordered = sorted(line, key=lambda u: -nodes[u][i - 1])
    return tuple(line), tuple(edge_index[min(a, b), max(a, b)] for a, b in zip(ordered, ordered[1:]))


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("k", range(2, 7))
def test_simplex_points_match_the_recursive_enumerator(k, n):
    assert simplex_points(k, n) == [p[::-1] for p in _reference_points(k, n)]


@pytest.mark.parametrize("n", range(1, 13))
def test_bottom_face_is_the_colex_prefix(n):
    # x4 = 0 on the first C(n+2, 2) nodes, in the face graph's own order
    g, face = build_graph(4, n), build_graph(3, n)
    assert g.nodes[: node_count(3, n)] == tuple((*p, 0) for p in face.nodes)
    assert g.terminals[:3] == face.terminals


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(2, 7))
def test_rank_construction_matches_reference(k, n):
    # built outside the cache, so that no other test has read its adj
    g = build_graph.__wrapped__(k, n)
    nodes, index, edges, edge_index, adj, terminals = _reference_graph(k, n)
    assert g.nodes == tuple(nodes)
    assert tuple(g.tails) == tuple(u for u, _ in edges)
    assert tuple(g.heads) == tuple(v for _, v in edges)
    assert len(g.edges) == len(edges) and tuple(g.edges) == tuple(edges)
    assert g.terminals == tuple(terminals)
    # adj is built on first read, not by build_graph, and then kept
    assert "adj" not in vars(g)
    assert g.adj == tuple(map(tuple, adj))
    assert vars(g)["adj"] is g.adj
    for u in range(len(nodes)):
        assert [g.edge_between(u, v) for v in range(len(nodes))] == [
            edge_index.get((min(u, v), max(u, v))) for v in range(len(nodes))
        ]
    for pair in combinations(range(1, k + 1), 2):
        assert (boundary_nodes(g, pair), boundary_edges(g, pair)) == _reference_boundary(
            nodes, edge_index, pair
        )


def test_build_graph_is_cached():
    assert build_graph(3, 7) is build_graph(3, 7)


def test_support():
    assert support((2, 0, 0)) == (1,)
    assert support((1, 1, 0)) == (1, 2)
    assert support((1, 1, 1, 1)) == (1, 2, 3, 4)


def test_boundary_line_counts():
    g = build_graph(3, 6)
    for pair in [(1, 2), (1, 3), (2, 3)]:
        nodes = boundary_nodes(g, pair)
        edges = boundary_edges(g, pair)
        assert len(nodes) == g.n + 1
        assert len(edges) == g.n
        for u in nodes:
            assert set(support(g.nodes[u])) <= set(pair)


def test_boundary_sets_cover_all_pairs():
    # every terminal pair of a four-terminal graph has its boundary line,
    # walked from min(pair) to max(pair) along consecutive edges
    g = build_graph(4, 3)
    for pair in combinations(range(1, 5), 2):
        nodes = boundary_nodes(g, pair)
        edges = boundary_edges(g, pair)
        assert nodes[0] == g.terminals[pair[0] - 1]
        assert nodes[-1] == g.terminals[pair[1] - 1]
        assert [g.edges[e] for e in edges] == [
            tuple(sorted(ends)) for ends in zip(nodes, nodes[1:])
        ]


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))], ids=["deepcopy", "pickle"]
)
def test_graphs_compare_by_k_and_n(clone):
    g = build_graph(3, 6)
    twin = clone(g)
    assert twin is not g and twin.nodes == g.nodes
    assert twin == g and hash(twin) == hash(g)
    assert g != build_graph(3, 5) and g != build_graph(4, 6)
    assert g != (3, 6)


def test_face_is_shared_graph_object():
    # the face component is the base triangle, each edge lifted through its
    # endpoints' coordinates onto the x4 = 0 face
    g = build_graph(4, 6)
    base = build_base_triangle(6)
    face = base.graph
    lift = lambda u: g.rank((*face.nodes[u], 0))
    lifted = {
        g.edge_between(lift(u), lift(v)): base.weight(e) for e, (u, v) in enumerate(face.edges)
    }
    assert dict(build_component(1, g).weights) == {e: w for e, w in lifted.items() if w}


@pytest.mark.parametrize(
    "n,c",
    [
        (3, Fraction(1, 3)),
        (8, Fraction(1, 4)),
        (12, Fraction(1, 4)),
        (40, Fraction(3, 40)),
    ],
)
def test_red_region_counts(n, c):
    g = build_graph(4, n)
    cycles = red_regions(g, c)
    depth = int(c * n)
    for m in (1, 2, 3):
        assert len(cycles[m - 1]) == 3 * depth
    assert len(set().union(*cycles)) == 9 * depth


def test_red_region_cycle_is_closed():
    g = build_graph(4, 8)
    cycles = red_regions(g, Fraction(1, 4))
    for m in (1, 2, 3):
        degree: dict[int, int] = {}
        for e in cycles[m - 1]:
            for u in g.edges[e]:
                degree[u] = degree.get(u, 0) + 1
        # a disjoint union of simple cycles has all degrees 2; the length
        # check in test_red_region_counts pins it to the single triangle
        # of side cn
        assert all(d == 2 for d in degree.values())
        assert len(degree) == len(cycles[m - 1])


def _red_regions_scan(g, c):
    """Reference: mark the corner cycles by scanning every edge."""
    level = g.n - int(c * g.n)
    cycles = []
    for m in (1, 2, 3):
        others = sorted({1, 2, 3} - {m})

        def on_cycle(u, v):
            p, q = g.nodes[u], g.nodes[v]
            if p[3] != 0 or q[3] != 0 or min(p[m - 1], q[m - 1]) < level:
                return False
            if p[m - 1] == level and q[m - 1] == level:
                return True
            return any(
                set(support(p)) <= {m, j} and set(support(q)) <= {m, j} for j in others
            )

        cycles.append(tuple(e for e, (u, v) in enumerate(g.edges) if on_cycle(u, v)))
    return tuple(cycles)


@pytest.mark.parametrize("n", range(3, 25))
def test_red_regions_match_full_scan(n):
    g = build_graph(4, n)
    depths = [d for d in range(1, n) if 2 * d < n]
    assert depths
    for depth in depths:
        c = Fraction(depth, n)
        assert red_regions(g, c) == _red_regions_scan(g, c)


def test_graph_bytes_per_edge():
    # a graph built outside the cache keeps the cached graphs other tests
    # hold intact
    tracemalloc.start()
    try:
        g = build_graph.__wrapped__(4, 48)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the node table and the adjacency are built on first read, not by
    # build_graph
    for view in ("nodes", "adj"):
        assert view not in vars(g)
    # the columns are arrays of 4-byte unsigned ints, equal to the reference
    _, _, edges, _, _, _ = _reference_graph(4, 48)
    assert g.tails == array("I", (u for u, _ in edges))
    assert g.heads == array("I", (v for _, v in edges))
    assert g.tails.itemsize == g.heads.itemsize == 4
    cached = build_graph(4, 48)
    assert (g.tails, g.heads) == (cached.tails, cached.heads)
    assert "adj" not in vars(g)
    # 8.3 measured on CPython 3.11 (8.0 for the columns' entries, the rest
    # the arrays' growth slack)
    assert held / len(g.tails) <= 8.8


@given(st.integers(2, 6), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_rank_is_the_node_index(k, n):
    g = build_graph.__wrapped__(k, n)
    assert all(g.rank(p) == i for i, p in enumerate(g.nodes))


@pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 7) for n in range(1, 13)] + [(4, 78)])
def test_reach_is_the_longest_edge(k, n):
    g = build_graph(k, n)
    assert reach(k, n) == max(map(sub, g.heads, g.tails))


FAMILY_RULES = {
    "non_opposite": non_opposite,
    "admissible": admissible,
    "face_relaxed": face_relaxed,
    "pinned": _pinned,
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("rule", FAMILY_RULES)
def test_family_size_counts_the_choice_lists(rule, k, n):
    factors = family_size(k, n, FAMILY_RULES[rule])
    assert all(e > 0 for _, e in factors) and factors == sorted(factors)
    choices = family_choices(build_graph(k, n), FAMILY_RULES[rule])
    assert prod(b**e for b, e in factors) == prod(map(len, choices))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", range(2, 6))
@pytest.mark.parametrize("rule", FAMILY_RULES)
def test_family_choices_calls_the_rule_on_each_support(rule, k, n):
    g = build_graph(k, n)
    expected = [FAMILY_RULES[rule](k, support(p)) for p in g.nodes]
    assert family_choices(g, FAMILY_RULES[rule]) == expected


def test_family_size_checks_the_lattice_size():
    with pytest.raises(ValueError, match="two coordinates"):
        family_size(1, 3, admissible)
    with pytest.raises(ValueError, match="resolution"):
        family_size(3, 0, admissible)


@pytest.mark.parametrize("point", [(3, 0, 0), (2, 1, 2), (5, -1, 0), (2, 2), (2, 1, 1, 0)])
def test_rank_rejects_points_off_the_lattice(point):
    with pytest.raises(ValueError, match="not a point"):
        build_graph(3, 4).rank(point)


def test_combine_and_limitation_min_build_no_index():
    params = GapParams.tuned(c=Fraction(1, 13))
    g = build_graph(4, 39)
    combine(params, g)
    limitation_min(params, n=39)
    # no point -> index dict on the graph: points are ranked in closed form
    assert not any(isinstance(view, dict) for view in vars(g).values())


def test_limits_and_dimacs_round_trip_build_no_node_table():
    # a fresh interpreter, so that no other test has read the graph's views
    code = """
from fractions import Fraction
from simplexcut import GapParams, build_graph, combine, limitation_min
from simplexcut.io import emit_instance_dimacs, parse_instance
params = GapParams.tuned(c=Fraction(1, 13))
limitation_min(params, n=39)
g = build_graph(4, 39)
w = combine(params, g)
assert parse_instance(emit_instance_dimacs(w)).weights == w
print(" ".join(sorted(vars(g))))
"""
    path = filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == ["heads", "k", "n", "tails", "terminals"]


def test_red_region_rejects_bad_depth():
    g = build_graph(4, 8)
    with pytest.raises(ValueError):
        red_regions(g, Fraction(1, 3))
    with pytest.raises(ValueError):
        red_regions(g, Fraction(5, 8))
    with pytest.raises(ValueError):
        red_regions(build_graph(3, 8), Fraction(1, 4))
