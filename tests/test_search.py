"""Exact minimum non-opposite cuts: enumeration, pruning, flows."""

import hashlib
import sys
from collections import deque
from fractions import Fraction
from math import comb, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcut import (
    BudgetExceededError,
    GapParams,
    SearchBudget,
    WeightMap,
    build_base_triangle,
    build_component,
    build_graph,
    combine,
    cost,
    enumerate_non_opposite,
    is_non_opposite,
    min_non_opposite_cost,
    min_terminal_face_cut,
    nonopposite_cost_floor,
    support,
)
from simplexcut import search
from simplexcut.cuts import non_opposite
from simplexcut.lattice import family_choices, family_size
from simplexcut.search import (
    _count_text,
    _price,
    _seed_cuts,
    _weighted_edges,
    _within_budget,
)

# exact values proven by full enumeration or certified branch-and-bound
MIN_J_DELTA_3_3 = Fraction(1)
MIN_COMBINED_N3 = Fraction(3534787, 3000000)


def test_labeling_space_sizes():
    assert enumerate_non_opposite(3, 3) == 2916
    assert enumerate_non_opposite(4, 2) == 729
    with pytest.raises(BudgetExceededError) as refused:
        enumerate_non_opposite(4, 3, max_labelings=1)
    assert str(refused.value) == "136048896 labelings exceed the budget of 1"


@pytest.mark.parametrize("k,n", [(2, 1), (2, 6), (3, 1), (3, 4), (4, 1), (4, 3), (5, 2), (6, 4)])
def test_non_opposite_space_counts_the_choice_lists(k, n):
    # a corner has its own label, any other node its s positive
    # coordinates and the auxiliary label
    sizes = [len(s) + (len(s) > 1) for s in map(support, build_graph(k, n).nodes)]
    assert prod(b**e for b, e in family_size(k, n, non_opposite)) == prod(sizes)


def test_count_text_names_a_long_count_by_its_power_of_ten():
    assert _count_text(16384) == "16384"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert _count_text(10**4299) == "1" + "0" * 4299
        assert _count_text(10**5000) == "more than 10^4999"
        assert _count_text(10**5000 + 1) == "more than 10^5000"
        assert _count_text(10**5001 - 1) == "more than 10^5000"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "factors",
    [
        [(10, 5000)],
        [(2, 5000), (5, 5000)],
        [(2, 1), (10, 5000)],
        [(3, 10**4), (1, 7)],
        [(10, 4299)],
        [(3, 6 * 99), (4, 4 * comb(99, 2)), (5, comb(99, 3))],
    ],
)
def test_budget_refusal_names_the_exact_count(factors):
    # the text from the count's logarithm is the text of the exact count
    space = prod(b**e for b, e in factors)
    with pytest.raises(BudgetExceededError) as refused:
        _within_budget(factors, 10)
    assert str(refused.value) == f"{_count_text(space)} labelings exceed the budget of 10"
    # a budget as long as the count is compared exactly
    _within_budget(factors, space)


def test_budget_refusal_of_a_long_count_does_not_multiply_it_out(monkeypatch):
    monkeypatch.setattr(search, "prod", lambda *a: pytest.fail("multiplied the count out"))
    with pytest.raises(BudgetExceededError, match=r"^more than 10\^7536715 labelings exceed"):
        _within_budget(family_size(4, 400, non_opposite), 10)


def test_budget_refusal_names_a_budget_too_long_to_print():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(BudgetExceededError) as refused:
            _within_budget([(10, 5000)], 10**5000 - 1)
    finally:
        sys.set_int_max_str_digits(limit)
    # both are named by _count_text, 10^4999 < 10^5000 - 1 < 10^5000, so
    # the message also names the difference
    assert str(refused.value) == (
        "more than 10^4999 labelings exceed the budget of more than 10^4999 by 1"
    )


def test_budget_refusal_names_the_difference_to_an_equally_long_budget():
    # 2^16610 is about 10^5000.17, too long to print and not near a power
    # of ten, yet the budget is as long as it: the count is multiplied out
    # so that the message can say by how much it exceeds the budget
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(BudgetExceededError) as refused:
            _within_budget([(2, 16610)], 10**5000 + 7)
        _within_budget([(2, 16610)], 2**16610)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(refused.value) == (
        "more than 10^5000 labelings exceed the budget of more than 10^5000"
        " by more than 10^4999"
    )


def test_enumerate_visits_every_cut_once():
    seen = set()

    def visit(p):
        assert is_non_opposite(p)
        seen.add(p.labels)

    count = enumerate_non_opposite(4, 2, visitor=visit)
    assert count == 729
    assert len(seen) == 729


def test_enumerate_budget_refusal_is_eager():
    visited = []
    with pytest.raises(BudgetExceededError):
        enumerate_non_opposite(3, 3, visitor=visited.append, max_labelings=100)
    assert visited == []


def test_exhaustive_min_of_triangle():
    w = build_base_triangle(3)
    res = min_non_opposite_cost(w, SearchBudget(max_labelings=5000, mode="exhaustive"))
    assert res.min_cost == MIN_J_DELTA_3_3
    assert res.proven_optimal
    assert res.explored == 2916
    assert is_non_opposite(res.argmin)
    assert cost(res.argmin, w) == res.min_cost


def test_branch_and_bound_agrees_with_exhaustive():
    cases = [build_base_triangle(3)]
    g2 = build_graph(4, 2)
    cases.extend(build_component(i, g2) for i in (2, 4))
    for w in cases:
        a = min_non_opposite_cost(
            w, SearchBudget(max_labelings=5000, mode="exhaustive")
        )
        b = min_non_opposite_cost(
            w, SearchBudget(max_labelings=10**7, mode="branch_and_bound")
        )
        assert a.min_cost == b.min_cost
        assert a.proven_optimal and b.proven_optimal


def test_branch_and_bound_certifies_combined_n3():
    params = GapParams.tuned(c=Fraction(1, 3))
    w = combine(params, build_graph(4, 3))
    res = min_non_opposite_cost(
        w, SearchBudget(max_labelings=200_000_000, mode="branch_and_bound")
    )
    assert res.proven_optimal
    assert res.min_cost == MIN_COMBINED_N3
    assert res.explored == 37_167
    assert cost(res.argmin, w) == res.min_cost
    floor = nonopposite_cost_floor(params, n=3)
    assert floor.regime == "out-of-regime"
    assert res.min_cost >= floor.bound


def test_branch_and_bound_certifies_triangle_n6():
    w = build_base_triangle(6)
    res = min_non_opposite_cost(w)
    assert res.proven_optimal
    assert res.min_cost == 1
    assert res.explored == 648_906
    assert is_non_opposite(res.argmin)
    assert cost(res.argmin, w) == res.min_cost


def test_branch_and_bound_stops_on_combined_n6():
    # the default budget runs out before a certificate; the incumbent is pinned
    w = combine(GapParams.tuned(c=Fraction(1, 3)), build_graph(4, 6))
    res = min_non_opposite_cost(w)
    assert not res.proven_optimal
    assert res.explored == 2_000_000
    assert res.min_cost == Fraction(6158217, 5000000)
    assert hashlib.sha256(bytes(res.argmin.labels)).hexdigest() == (
        "3fbe6b584b812c7f97f12369febdf5d777ac7802db56cba2372818b555398ee4"
    )
    assert is_non_opposite(res.argmin)
    assert cost(res.argmin, w) == res.min_cost
    # no leaf beats the seeded incumbent within the budget
    assert res.incumbents == ()
    assert res.rank_skips == 286_840


def test_branch_and_bound_counters_on_combined_n3():
    w = combine(GapParams.tuned(c=Fraction(1, 3)), build_graph(4, 3))
    res = min_non_opposite_cost(w)
    # each strict improvement on the seed, with the tree nodes it took
    assert res.incumbents == (
        (Fraction(589177, 500000), 20),
        (Fraction(3534787, 3000000), 3407),
    )
    assert res.rank_skips == 6757
    exhaustive = min_non_opposite_cost(
        build_base_triangle(3), SearchBudget(max_labelings=5000, mode="exhaustive")
    )
    # exhaustive search skips no rank; its first labeling is already a minimum
    assert exhaustive.rank_skips == 0
    assert exhaustive.incumbents == ((MIN_J_DELTA_3_3, 1),)


def _branch_and_bound_reference(w, max_labelings):
    """The node-by-node kernel that the rank memo replaced, kept as an
    oracle: (cost numerator, node-order labels, explored, complete)."""
    g = w.graph
    nnodes = len(g.nodes)
    weighted = _weighted_edges(w)

    incident = [0] * nnodes
    for u, v, x in weighted:
        incident[u] += x
        incident[v] += x
    order = sorted(range(nnodes), key=lambda v: (-incident[v], v))
    rank = {node: r for r, node in enumerate(order)}

    choices = family_choices(g, non_opposite)
    rank_choices = [choices[node] for node in order]
    # for each rank, weighted edges back to already-assigned nodes
    back: list[list[tuple[int, int]]] = [[] for _ in range(nnodes)]
    for u, v, x in weighted:
        if rank[u] > rank[v]:
            u, v = v, u
        back[rank[v]].append((u, x))

    # the first cheapest seed cut is the starting incumbent
    seeds = [(_price(weighted, p.labels), p.labels) for p in _seed_cuts(g)]
    incumbent, best_labels = min(seeds, key=lambda seed: seed[0])

    label_of = [0] * nnodes  # indexed by node id
    choice_count = [len(c) for c in rank_choices]
    last = nnodes - 1
    choice_idx = [0] * nnodes
    partial = [0] * (nnodes + 1)
    explored = 0
    r = 0
    while r >= 0:
        ci = choice_idx[r]
        if ci >= choice_count[r]:
            choice_idx[r] = 0
            r -= 1
            continue
        choice_idx[r] = ci + 1
        if explored >= max_labelings:
            return incumbent, best_labels, explored, False
        explored += 1
        label = rank_choices[r][ci]
        node = order[r]
        c = partial[r]
        for u, wt in back[r]:
            if label_of[u] != label:
                c += wt
        if c >= incumbent:
            continue
        label_of[node] = label
        if r == last:
            incumbent = c
            best_labels = tuple(label_of)
            continue
        partial[r + 1] = c
        r += 1
    return incumbent, best_labels, explored, True


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_branch_and_bound_matches_node_by_node_reference(data):
    sizes = [(3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3)]
    g = build_graph(*data.draw(st.sampled_from(sizes)))
    nums = data.draw(
        st.lists(st.integers(0, 6), min_size=len(g.edges), max_size=len(g.edges))
    )
    w = WeightMap(g, {e: Fraction(x) for e, x in enumerate(nums)})
    whole = _branch_and_bound_reference(w, 10**7)
    assert whole[3]
    size = whole[2]
    # budgets anywhere in the tree, and just below, at and just above its size
    budget = data.draw(
        st.one_of(
            st.integers(1, size + 2),
            st.sampled_from([max(size - 1, 1), size, size + 1, size + 2]),
        )
    )
    numerator, labels, explored, complete = _branch_and_bound_reference(w, budget)
    res = min_non_opposite_cost(w, SearchBudget(max_labelings=budget))
    assert res.min_cost == Fraction(numerator, w.den)
    assert res.argmin.labels == labels
    assert res.explored == explored
    assert res.proven_optimal == complete
    # the improvements strictly lower the incumbent, in tree order, down to
    # the reported minimum
    costs = [c for c, _ in res.incumbents]
    nodes = [at for _, at in res.incumbents]
    assert costs == sorted(set(costs), reverse=True)
    assert nodes == sorted(set(nodes))
    if res.incumbents:
        assert costs[-1] == res.min_cost
        assert nodes[-1] <= res.explored


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_branch_and_bound_matches_exhaustive_on_random_weights(data):
    g = build_graph(*data.draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 2)])))
    nums = data.draw(
        st.lists(st.integers(0, 6), min_size=len(g.edges), max_size=len(g.edges))
    )
    w = WeightMap(g, {e: Fraction(x) for e, x in enumerate(nums)})
    a = min_non_opposite_cost(w, SearchBudget(max_labelings=5000, mode="exhaustive"))
    b = min_non_opposite_cost(w, SearchBudget(max_labelings=10**7, mode="branch_and_bound"))
    assert a.proven_optimal and b.proven_optimal
    assert a.min_cost == b.min_cost
    for res in (a, b):
        assert is_non_opposite(res.argmin)
        assert cost(res.argmin, w) == res.min_cost


def test_exhaustive_budget_stop_reports_incomplete():
    w = build_base_triangle(3)
    res = min_non_opposite_cost(w, SearchBudget(max_labelings=100, mode="exhaustive"))
    assert not res.proven_optimal
    assert res.explored == 100
    assert res.min_cost >= MIN_J_DELTA_3_3


def test_search_budget_validation():
    # the one below-one rule: the same refusal as an exhausted budget
    for n in (0, -1):
        with pytest.raises(BudgetExceededError) as refused:
            SearchBudget(max_labelings=n)
        assert str(refused.value) == f"a budget of {n} allows no labeling"
    with pytest.raises(ValueError):
        SearchBudget(max_labelings=100, mode="simulated_annealing")


@pytest.mark.parametrize("n", range(3, 31, 3))
def test_terminal_flow_floor(n):
    w = build_base_triangle(n)
    floor = Fraction(2, 5) - Fraction(1, 3 * n)
    for i in (1, 2, 3):
        assert min_terminal_face_cut(w, i) >= floor


def test_terminal_flow_exact_value_small():
    w = build_base_triangle(3)
    # the two rho-weighted edges at the corner give the min cut 2/5
    values = [min_terminal_face_cut(w, i) for i in (1, 2, 3)]
    assert values == [Fraction(2, 5)] * 3


@pytest.mark.parametrize(
    "w, value",
    [(build_base_triangle(60), Fraction(2, 5)), (WeightMap(build_graph(3, 4), {}), 0)],
    ids=["triangle-n60", "zero-weights-n4"],
)
def test_terminal_flow_pinned_values(w, value):
    assert [min_terminal_face_cut(w, i) for i in (1, 2, 3)] == [value] * 3


def test_terminal_flow_rejects_bad_terminal():
    w = build_base_triangle(6)
    with pytest.raises(ValueError):
        min_terminal_face_cut(w, 4)
    with pytest.raises(ValueError):
        min_terminal_face_cut(w, 0)


def _brute_force_terminal_cut(g, weights: dict[int, Fraction], terminal: int) -> Fraction:
    """Least weight of delta(S) over every node set S that holds the
    terminal and no node of the opposite boundary line."""
    others = {1, 2, 3} - {terminal}
    source = g.terminals[terminal - 1]
    sink_side = [node for node, p in enumerate(g.nodes) if set(support(p)) <= others]
    free = [node for node in range(len(g.nodes)) if node != source and node not in sink_side]
    # bit i of a side mask is free[i]; then the source (always in), then the sink side
    bit = {node: i for i, node in enumerate(free + [source] + sink_side)}
    scale = lcm(1, *(x.denominator for x in weights.values()))
    edges = [(bit[g.edges[e][0]], bit[g.edges[e][1]], int(x * scale)) for e, x in weights.items()]
    best = min(
        sum(x for a, b, x in edges if (mask >> a ^ mask >> b) & 1)
        for mask in (free_bits | 1 << len(free) for free_bits in range(1 << len(free)))
    )
    return Fraction(best, scale)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_terminal_flow_matches_brute_force(data):
    g = build_graph(3, data.draw(st.integers(1, 5)))
    values = data.draw(
        st.lists(
            st.fractions(min_value=0, max_value=3, max_denominator=10),
            min_size=len(g.edges),
            max_size=len(g.edges),
        )
    )
    weights = dict(enumerate(values))
    terminal = data.draw(st.sampled_from((1, 2, 3)))
    w = WeightMap(g, weights)
    assert min_terminal_face_cut(w, terminal) == _brute_force_terminal_cut(g, weights, terminal)


def _edmonds_karp_reference(w, terminal: int) -> Fraction:
    """Shortest-augmenting-path max-flow on dict capacities (the terminal
    cut's former implementation)."""
    g = w.graph
    others = {1, 2, 3} - {terminal}
    source = g.terminals[terminal - 1]
    sink_side = [node for node, p in enumerate(g.nodes) if set(support(p)) <= others]
    inf = sum(w.palette[code] for code in w.codes) + 1
    sink = len(g.nodes)
    capacity: list[dict[int, int]] = [dict() for _ in range(sink + 1)]
    for u, v, x in _weighted_edges(w):
        capacity[u][v] = capacity[u].get(v, 0) + x
        capacity[v][u] = capacity[v].get(u, 0) + x
    for node in sink_side:
        capacity[node][sink] = inf
    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, cap in capacity[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        bottleneck = inf
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, capacity[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            capacity[u][v] -= bottleneck
            capacity[v][u] = capacity[v].get(u, 0) + bottleneck
            v = u
        flow += bottleneck
    return Fraction(flow, w.den)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_terminal_flow_matches_edmonds_karp(data):
    g = build_graph(3, data.draw(st.integers(1, 9)))
    weight = st.one_of(st.just(0), st.integers(0, 9))
    nums = data.draw(st.lists(weight, min_size=len(g.edges), max_size=len(g.edges)))
    w = WeightMap(g, dict(enumerate(nums)))
    for terminal in (1, 2, 3):
        assert min_terminal_face_cut(w, terminal) == _edmonds_karp_reference(w, terminal)
