"""Cut labelings: validation, costs, named cuts, canonicalization."""

import copy
import random
from collections import deque
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcut import (
    CutLabeling,
    NAMED_CUTS,
    WeightMap,
    build_base_triangle,
    build_component,
    build_graph,
    canonicalize,
    corner_caps,
    cost,
    delta,
    is_fragmenting,
    is_non_opposite,
    isolate_terminals,
    midlines,
    midlines_extended,
    named_cut,
    terminal_ball,
)
from simplexcut.cuts import _windows, reachable_labels
from simplexcut.lattice import cap_depth, node_count

from helpers import support


def test_labeling_validation():
    g = build_graph(3, 2)
    with pytest.raises(ValueError, match="labels"):
        CutLabeling(g, (1, 2, 2, 3, 3))
    with pytest.raises(ValueError, match="1..4"):
        CutLabeling(g, (1, 5, 2, 3, 3, 3))
    with pytest.raises(ValueError, match="terminal"):
        CutLabeling(g, (2, 1, 2, 3, 3, 3))
    # label 0, label k+2, a terminal carrying another label, wrong lengths
    g = build_graph(4, 3)
    labels = list(isolate_terminals(g).labels)
    free = next(v for v in range(len(g.nodes)) if v not in g.terminals)
    for bad in (0, g.k + 2):
        wrong = list(labels)
        wrong[free] = bad
        with pytest.raises(ValueError, match=r"labels must lie in 1\.\.5"):
            CutLabeling(g, wrong)
    wrong = list(labels)
    wrong[g.terminals[2]] = 1
    with pytest.raises(ValueError, match="terminal 3 carries label 1"):
        CutLabeling(g, wrong)
    for length in (len(labels) - 1, len(labels) + 1):
        with pytest.raises(ValueError, match=f"{length} labels for {len(labels)} nodes"):
            CutLabeling(g, (labels + [5])[:length])
    # a label must equal its int(): no truncated floats, no digit strings
    for bad in (1.9, 2.5, "1"):
        wrong = list(labels)
        wrong[free] = bad
        with pytest.raises(ValueError, match="labels must be integers"):
            CutLabeling(g, wrong)
    with pytest.raises(ValueError, match="labels must be integers"):
        CutLabeling(build_graph(3, 1), (1.9, 2, 3))
    assert CutLabeling(build_graph(3, 1), (1.0, 2, 3)).labels == (1, 2, 3)


def test_labeling_equality_and_aux_count():
    g = build_graph(3, 2)
    p = CutLabeling(g, (1, 4, 2, 4, 4, 3))
    q = CutLabeling(g, (1, 4, 2, 4, 4, 3))
    assert p == q and hash(p) == hash(q)
    assert p.labels.count(4) == 3


def test_delta_and_cost_by_hand():
    g = build_graph(3, 2)
    # weights 1 everywhere; cut peels the first terminal off
    from simplexcut import WeightMap

    w = WeightMap(g, {e: Fraction(1) for e in range(len(g.edges))})
    p = CutLabeling(g, (1, 2, 2, 3, 3, 3))
    cut = delta(p)
    for e in cut:
        u, v = g.edges[e]
        assert p.labels[u] != p.labels[v]
    assert cost(p, w) == len(cut)


@st.composite
def _priced_labelings(draw):
    """A labeling with dense changes, a few changes, or one label apart
    from the terminals, and an integer weighting of its graph."""
    g = build_graph(draw(st.integers(2, 5)), draw(st.integers(1, 8)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    size, top = node_count(g.k, g.n), g.k + 1
    kind = draw(st.sampled_from(("dense", "few", "constant")))
    if kind == "dense":
        labels = [rng.randint(1, top) for _ in range(size)]
    else:
        labels = [rng.randint(1, top)] * size
        if kind == "few":
            for v in rng.sample(range(size), min(size, rng.randint(1, 4))):
                labels[v] = rng.randint(1, top)
    for i, t in enumerate(g.terminals, start=1):
        labels[t] = i
    nums = [rng.choice((0, 0, 1, 2, 5)) for _ in g.edges]
    den = rng.randint(1, 7)
    return CutLabeling(g, labels), WeightMap(g, {e: Fraction(x, den) for e, x in enumerate(nums)})


@settings(max_examples=300, deadline=None)
@given(_priced_labelings())
def test_cost_and_delta_match_the_all_edge_scan(case):
    p, w = case
    labels = p.labels
    cut = tuple(e for e, (u, v) in enumerate(p.graph.edges) if labels[u] != labels[v])
    assert delta(p) == cut
    assert cost(p, w) == Fraction(sum(w.palette[w.codes[e]] for e in cut), w.den)


@pytest.mark.parametrize("make", [midlines_extended, isolate_terminals, lambda g: corner_caps(g, Fraction(1, 6))])
def test_certificate_cuts_read_a_fraction_of_the_edges(make):
    # each certificate cut changes label near the x4 = 0 face and the
    # terminals only, so its windows hold under a quarter of the edges
    g = build_graph(4, 30)
    read = sum(hi - lo for lo, hi in _windows(g, make(g).labels))
    assert read < len(g.edges) / 4


def test_cost_requires_same_graph():
    w = build_base_triangle(9)
    # one cut differs from the weights' lattice in n, the other in k
    for p in (midlines(build_graph(3, 6)), isolate_terminals(build_graph(4, 9))):
        with pytest.raises(ValueError, match="^cut and weights live on different graphs$"):
            cost(p, w)


def test_cut_on_a_copied_graph_fits_the_cached_graph():
    g = build_graph(3, 6)
    p = midlines(g)
    q = CutLabeling(copy.deepcopy(g), p.labels)
    assert q.graph is not g
    assert cost(q, build_base_triangle(6)) == cost(p, build_base_triangle(6))
    assert q == p and hash(q) == hash(p)
    assert len({p, q}) == 1


def test_non_opposite_detection():
    g = build_graph(3, 2)
    # label 3 on a node with support {1,2} is an opposite label
    p = CutLabeling(g, (1, 3, 2, 3, 3, 3))
    assert not is_non_opposite(p)
    assert is_non_opposite(CutLabeling(g, (1, 4, 2, 3, 3, 3)))
    assert is_non_opposite(midlines(build_graph(3, 6)))


def _is_non_opposite_reference(p):
    """The per-coordinate test the support rule replaced: a label other
    than the auxiliary one names a positive coordinate of its node."""
    aux = p.graph.k + 1
    return all(l == aux or point[l - 1] > 0 for point, l in zip(p.graph.nodes, p.labels))


@st.composite
def _near_non_opposite_labelings(draw):
    """A non-opposite cut with up to two nodes relabeled at random."""
    g = build_graph(draw(st.integers(2, 5)), draw(st.integers(1, 6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    labels = [rng.choice(support(point) + (g.k + 1,)) for point in g.nodes]
    for v in rng.sample(range(len(labels)), min(len(labels), draw(st.integers(0, 2)))):
        labels[v] = rng.randint(1, g.k + 1)
    for i, t in enumerate(g.terminals, start=1):
        labels[t] = i
    return CutLabeling(g, labels)


@settings(max_examples=300, deadline=None)
@given(_near_non_opposite_labelings())
def test_is_non_opposite_matches_the_per_coordinate_rule(p):
    assert is_non_opposite(p) == _is_non_opposite_reference(p)


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_midlines_golden(n):
    g = build_graph(3, n)
    w = build_base_triangle(n)
    p = midlines(g)
    rho = Fraction(3, 5 * n)
    cut = delta(p)
    assert len(cut) == 2 * n + 1
    assert all(w.weight(e) == rho for e in cut)
    assert cost(p, w) == Fraction(6, 5) + Fraction(3, 5 * n)
    assert not is_fragmenting(p)


def test_fragmenting_detection():
    g = build_graph(3, 6)
    # a small cap around the first terminal with auxiliary filler crosses
    # every boundary line twice
    labels = []
    for u, p in enumerate(g.nodes):
        if p[0] >= g.n - 1:
            labels.append(1)
        elif u in g.terminals:
            labels.append(1 + g.terminals.index(u))
        else:
            labels.append(4)
    p = CutLabeling(g, tuple(labels))
    assert is_fragmenting(p)
    assert is_non_opposite(p)


def test_midlines_extended_structure():
    n = 8
    g = build_graph(4, n)
    p = midlines_extended(g)
    assert is_non_opposite(p)
    # everything off the bottom face joins the fourth terminal's region
    for u, q in enumerate(g.nodes):
        if q[3] > 0:
            assert p.labels[u] == 4
    assert len(delta(p)) == (3 * n * n + 7 * n + 2) // 2


def test_isolate_terminals_component_costs():
    n, c = 12, Fraction(1, 4)
    g = build_graph(4, n)
    p = isolate_terminals(g)
    assert is_non_opposite(p)
    assert cost(p, build_component(1, g)) == Fraction(6, 5)
    assert cost(p, build_component(2, g)) == 2
    assert cost(p, build_component(3, g, c=c)) == Fraction(2, 3) / c
    assert cost(p, build_component(4, g)) == Fraction(12, n * n)


@pytest.mark.parametrize(
    "n,c",
    [(39, Fraction(1, 13)), (36, Fraction(1, 12)), (12, Fraction(1, 12)), (27, Fraction(2, 27))],
)
def test_corner_caps_face_cost(n, c):
    g = build_graph(4, n)
    p = corner_caps(g, c)
    assert cost(p, build_component(1, g)) == Fraction(6, 5)


def test_corner_caps_other_components():
    n, c = 40, Fraction(3, 40)
    g = build_graph(4, n)
    p = corner_caps(g, c)
    assert is_non_opposite(p)
    assert cost(p, build_component(2, g)) == 2
    assert cost(p, build_component(3, g, c=c)) == 0
    assert cost(p, build_component(4, g)) == (
        Fraction(9, 2) * c * c + Fraction(27, 2) * c / n + Fraction(12, n * n)
    )
    assert len(delta(p)) == 93


@pytest.mark.parametrize("n", range(3, 25))
def test_corner_caps_never_cut_their_own_cycles(n):
    # corner m's cycle runs inside its cap, which labels every node m
    g = build_graph(4, n)
    for depth in range(1, (n + 1) // 2):
        c = Fraction(depth, n)
        assert cost(corner_caps(g, c), build_component(3, g, c=c)) == 0


def _midlines_extended_scan(g):
    """Reference: label every node of the tetrahedron from its point."""
    n = g.n
    labels = tuple(
        4 if p[3] > 0 else 1 if 2 * p[0] >= n else 2 if 2 * p[1] >= n else 3
        for p in g.nodes
    )
    return CutLabeling(g, labels)


def _corner_caps_scan(g, c):
    """Reference: label every node of the tetrahedron from its point."""
    level = g.n - cap_depth(c, g.n)
    labels = []
    for node, p in enumerate(g.nodes):
        if node == g.terminals[3]:
            labels.append(4)
        elif p[3] == 0 and max(p[:3]) >= level:
            labels.append(1 + max(range(3), key=lambda i: p[i]))
        else:
            labels.append(5)
    return CutLabeling(g, tuple(labels))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 21])
def test_midlines_extended_matches_node_scan(n):
    g = build_graph(4, n)
    assert midlines_extended(g) == _midlines_extended_scan(g)


@pytest.mark.parametrize(
    "n,c",
    [
        (3, Fraction(1, 3)),
        (5, Fraction(2, 5)),
        (8, Fraction(1, 4)),
        (12, Fraction(1, 12)),
        (27, Fraction(2, 27)),
        (39, Fraction(1, 13)),
        (40, Fraction(3, 40)),
    ],
)
def test_corner_caps_match_node_scan(n, c):
    g = build_graph(4, n)
    assert corner_caps(g, c) == _corner_caps_scan(g, c)


def test_terminal_ball_census():
    n = 12
    g = build_graph(4, n)
    for alpha in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        p = terminal_ball(g, alpha)
        assert is_non_opposite(p)
        m = int(alpha * n)
        # the ball is a size-m sub-simplex in the remaining three coords
        from math import comb

        assert sum(1 for l in p.labels if l == 1) == comb(m + 3, 3)
        # face nodes labeled from {1,2,3}: the ball's face slice plus the
        # two pinned face terminals
        face_census = sum(
            1
            for u, q in enumerate(g.nodes)
            if q[3] == 0 and p.labels[u] in (1, 2, 3)
        )
        assert face_census == (m + 1) * (m + 2) // 2 + 2


def test_terminal_ball_rejects_bad_radius():
    g = build_graph(4, 12)
    with pytest.raises(ValueError):
        terminal_ball(g, Fraction(2, 3))
    with pytest.raises(ValueError):
        terminal_ball(g, Fraction(1, 5))
    with pytest.raises(ValueError):
        terminal_ball(build_graph(3, 12), Fraction(1, 4))


def test_named_cut_dispatch():
    g3 = build_graph(3, 6)
    g4 = build_graph(4, 8)
    assert named_cut("midlines", g3) == midlines(g3)
    assert named_cut("midlines-ext", g4) == midlines_extended(g4)
    assert named_cut("isolate-terminals", g4) == isolate_terminals(g4)
    assert named_cut("corner-caps", g4, c=Fraction(1, 4)) == corner_caps(
        g4, Fraction(1, 4)
    )
    assert named_cut("terminal-ball", g4, alpha=Fraction(1, 4)) == terminal_ball(
        g4, Fraction(1, 4)
    )
    with pytest.raises(ValueError, match="unknown cut"):
        named_cut("nope", g3)
    assert set(NAMED_CUTS) == {
        "midlines",
        "midlines-ext",
        "isolate-terminals",
        "corner-caps",
        "terminal-ball",
    }


def _relaxed_labelings(g):
    free = [u for u in range(len(g.nodes)) if u not in g.terminals]
    base = [0] * len(g.nodes)
    for i, t in enumerate(g.terminals, start=1):
        base[t] = i
    for assignment in product(range(1, g.k + 2), repeat=len(free)):
        labels = list(base)
        for u, l in zip(free, assignment):
            labels[u] = l
        yield CutLabeling(g, tuple(labels))


def test_canonicalize_properties_exhaustive():
    from simplexcut import WeightMap

    g = build_graph(3, 2)
    w = WeightMap(g, {e: Fraction(1, len(g.edges)) for e in range(len(g.edges))})
    seen = 0
    for p in _relaxed_labelings(g):
        q = canonicalize(p)
        assert set(delta(q)) <= set(delta(p))
        assert cost(q, w) <= cost(p, w)
        assert q.labels.count(4) >= p.labels.count(4)
        assert canonicalize(q) == q
        seen += 1
    assert seen == 4 ** 3


def test_canonicalize_cost_non_increase_on_triangle():
    w = build_base_triangle(3)
    g = w.graph
    for p in _relaxed_labelings(g):
        q = canonicalize(p)
        assert cost(q, w) <= cost(p, w)


def test_canonicalize_keeps_named_cuts():
    # reachability relabeling fixes cuts whose regions are already connected
    g = build_graph(3, 9)
    p = midlines(g)
    assert canonicalize(p) == p
    g4 = build_graph(4, 8)
    assert canonicalize(isolate_terminals(g4)).labels == isolate_terminals(g4).labels


def _canonicalize_reference(p):
    # breadth-first reachability from each terminal through uncut edges
    g = p.graph
    labels = p.labels
    relabel = [g.k + 1] * len(g.nodes)
    for i, t in enumerate(g.terminals, start=1):
        if relabel[t] != g.k + 1:
            continue
        relabel[t] = i
        queue = deque([t])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if labels[v] == labels[u] and relabel[v] == g.k + 1:
                    relabel[v] = i
                    queue.append(v)
    return CutLabeling(g, tuple(relabel))


@st.composite
def _random_labelings(draw, ks=(3, 4)):
    k = draw(st.sampled_from(ks))
    g = build_graph(k, draw(st.integers(1, 4)))
    labels = draw(st.lists(st.integers(1, k + 1), min_size=len(g.nodes), max_size=len(g.nodes)))
    for i, t in enumerate(g.terminals, start=1):
        labels[t] = i
    return CutLabeling(g, labels)


@settings(max_examples=200, deadline=None)
@given(_random_labelings())
def test_canonicalize_matches_breadth_first_reference(p):
    assert canonicalize(p) == _canonicalize_reference(p)


@pytest.mark.parametrize("k", (3, 4))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reachable_labels_matches_breadth_first_reference(k, data):
    p = data.draw(_random_labelings(ks=(k,)))
    q = reachable_labels(p.graph, p.labels)
    assert type(q) is tuple
    assert q == _canonicalize_reference(p).labels
