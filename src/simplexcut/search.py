"""Exact search over non-opposite cuts, and exact terminal-to-face min cut.

Both search modes certify global minima over the non-opposite cut class:
exhaustive scans the full mixed-radix labeling space, branch and bound
assigns nodes in decreasing incident-weight order and prunes with the
weight of the already-bichromatic edges.  Branch and bound reads each
rank's label costs from a memo keyed by the labels of its back
neighbours, and counts a rank whose every child would be pruned as
explored without entering it; the tree, its node count, the budget stop
and the argmin are those of the node-by-node walk.  The min cut is Dinic's
max-flow, checked against the cut its last residual graph leaves.  Both
modes and the max-flow work on the integer numerators of the weight map
over its common denominator, so reported costs are exact rationals.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor, inf, log10, prod
from operator import itemgetter

from .cuts import CutLabeling, isolate_terminals, midlines, midlines_extended, non_opposite
from .errors import BudgetExceededError
from .instances import WeightMap
from .lattice import (
    SimplexGraph,
    boundary_nodes,
    build_graph,
    family_choices,
    family_size,
    node_count,
)

DEFAULT_LABELING_BUDGET = 2_000_000

SEARCH_MODES = ("exhaustive", "branch_and_bound")


@dataclass(frozen=True)
class SearchBudget:
    """A minimum search's mode and its limit on labelings or tree nodes.

    A limit below 1 allows no labeling; it is refused here, as exhausted.
    """

    max_labelings: int = DEFAULT_LABELING_BUDGET
    mode: str = "branch_and_bound"

    def __post_init__(self):
        if self.max_labelings < 1:
            raise BudgetExceededError(f"a budget of {self.max_labelings} allows no labeling")
        if self.mode not in SEARCH_MODES:
            raise ValueError(f"unknown search mode: {self.mode!r}")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a cut-minimization run.

    explored counts complete labelings evaluated in exhaustive mode and
    label assignments (search-tree nodes) in branch-and-bound mode.  When
    proven_optimal is False the budget ran out and min_cost/argmin only
    describe the best cut seen so far.  incumbents holds (cost, explored)
    for each strict improvement the search made, in order (branch and
    bound starts from a seed cut, which is not listed); rank_skips counts
    the ranks branch and bound pruned whole, without entering them.
    """

    min_cost: Fraction
    argmin: CutLabeling
    explored: int
    proven_optimal: bool
    incumbents: tuple[tuple[Fraction, int], ...] = ()
    rank_skips: int = 0


# log10 of a count, summed in floats from its factors, is off by about
# 5e-16 of itself: below this slack while the count has under 10^9 digits
_LOG_SLACK = 1e-6


def _within_budget(factors: list[tuple[int, int]], max_labelings: int) -> None:
    """Refuse a family of prod(b ** e) labelings, over its factors (b, e),
    when it has more than max_labelings, and a budget below 1 by
    SearchBudget's rule.

    Callers count their family with lattice.family_size and refuse
    before they build it or walk its first labeling.  A count with more
    digits than str converts is compared by its logarithm and named by
    its floor, unless the budget is as long as the count or the logarithm
    is within _LOG_SLACK of an integer; only then is it multiplied out.
    """
    SearchBudget(max_labelings)
    # the most digits str converts: no limit before Python 3.10.7 or at 0
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or inf
    log = sum(e * log10(b) for b, e in factors)
    if (
        log > digits + _LOG_SLACK
        and log > log10(max_labelings) + _LOG_SLACK
        # near an integer the count may be a power of ten: settle it exactly
        and abs(log - round(log)) > _LOG_SLACK
    ):
        text = f"more than 10^{floor(log)}"
    else:
        space = prod(b**e for b, e in factors)
        if space <= max_labelings:
            return
        text = _count_text(space)
    raise BudgetExceededError(f"{text} labelings exceed the budget of {_count_text(max_labelings)}")


def _count_text(count: int) -> str:
    """A positive count in decimal or, when it has more digits than the
    interpreter converts to str, as "more than 10^N" with the largest
    such N."""
    try:
        return str(count)
    except ValueError:
        pass
    # log10 of a large int is close but not exact; settle N on integers
    power = floor(log10(count))
    while 10**power >= count:
        power -= 1
    while 10 ** (power + 1) < count:
        power += 1
    return f"more than 10^{power}"


def _weighted_edges(w: WeightMap) -> list[tuple[int, int, int]]:
    """(u, v, numerator) for each edge of nonzero weight, in edge order."""
    return [(u, v, x) for u, v, x in zip(w.graph.tails, w.graph.heads, w.nums) if x]


def _price(weighted: list[tuple[int, int, int]], labels: tuple[int, ...]) -> int:
    """Numerator of a labeling's cut weight over the map's denominator."""
    c = 0
    for u, v, x in weighted:
        if labels[u] != labels[v]:
            c += x
    return c


def enumerate_non_opposite(
    k: int,
    n: int,
    visitor=None,
    max_labelings: int = DEFAULT_LABELING_BUDGET,
) -> int:
    """Visit every non-opposite cut of the (k, n) lattice once, in
    mixed-radix node order.

    Refuses to start when the space exceeds max_labelings, counting it
    before the lattice is built.  Returns the visit count.
    """
    _within_budget(family_size(k, n, non_opposite), max_labelings)
    g = build_graph(k, n)
    count = 0
    for labels in product(*family_choices(g, non_opposite)):
        count += 1
        if visitor is not None:
            visitor(CutLabeling(g, labels))
    return count


def _seed_cuts(g: SimplexGraph) -> list[CutLabeling]:
    seeds = [isolate_terminals(g)]
    if g.k == 3:
        seeds.append(midlines(g))
    elif g.k == 4:
        seeds.append(midlines_extended(g))
    return seeds


def _exhaustive_min(w: WeightMap, max_labelings: int):
    weighted = _weighted_edges(w)
    best_cost = best_labels = None
    improvements: list[tuple[int, int]] = []
    explored = 0
    for labels in product(*family_choices(w.graph, non_opposite)):
        if explored >= max_labelings:
            return best_cost, best_labels, explored, False, improvements, 0
        explored += 1
        c = _price(weighted, labels)
        if best_cost is None or c < best_cost:
            best_cost, best_labels = c, labels
            improvements.append((c, explored))
    return best_cost, best_labels, explored, True, improvements, 0


def _branch_and_bound_min(w: WeightMap, max_labelings: int):
    g = w.graph
    nnodes = node_count(g.k, g.n)
    weighted = _weighted_edges(w)

    incident = [0] * nnodes
    for u, v, x in weighted:
        incident[u] += x
        incident[v] += x
    order = sorted(range(nnodes), key=lambda v: (-incident[v], v))
    rank = [0] * nnodes
    for r, node in enumerate(order):
        rank[node] = r

    choices = family_choices(g, non_opposite)
    rank_choices = [choices[node] for node in order]
    # for each rank, (lower rank, numerator) of its weighted edges back to
    # the ranks assigned before it
    back: list[list[tuple[int, int]]] = [[] for _ in range(nnodes)]
    for u, v, x in weighted:
        ru, rv = sorted((rank[u], rank[v]))
        back[rv].append((ru, x))
    # A rank's label costs depend only on its back neighbours' labels.
    # back_labels[r] reads them from the rank-indexed labels as a key, and
    # memo[r] maps the key to (cost increment of each choice in choice
    # order, least increment).  The memo grows with the distinct back-label
    # patterns met, not with the tree.  A rank with no back edges has one
    # key, ().
    back_labels = [
        itemgetter(*(q for q, _ in b)) if b else (lambda labels: ()) for b in back
    ]
    memo: list[dict] = [{} for _ in range(nnodes)]

    def increments(r: int, labels: list[int]):
        inc = tuple(
            sum(x for q, x in back[r] if labels[q] != label) for label in rank_choices[r]
        )
        return inc, min(inc)

    # the first cheapest seed cut is the starting incumbent
    seeds = [(_price(weighted, p.labels), p.labels) for p in _seed_cuts(g)]
    incumbent, best_labels = min(seeds, key=lambda seed: seed[0])
    best_ranked = None  # rank-indexed labels of the last strict improvement
    improvements: list[tuple[int, int]] = []
    rank_skips = 0

    labels = [0] * nnodes  # indexed by rank
    last = nnodes - 1
    # per rank on the current path: increments, next choice, partial cost
    rank_inc: list[tuple[int, ...]] = [()] * nnodes
    choice_idx = [0] * nnodes
    partial = [0] * nnodes
    explored = 0
    complete = True
    # the current rank's place is kept in locals (inc, n, ci, p) and saved
    # to the per-rank lists only on descent; rank 0 has no back edges
    r = 0
    inc = rank_inc[0] = (0,) * len(rank_choices[0])
    n = len(inc)
    ci = p = 0
    while True:
        if ci >= n:
            if r == 0:
                break
            r -= 1
            inc = rank_inc[r]
            n = len(inc)
            ci = choice_idx[r]
            p = partial[r]
            continue
        if explored >= max_labelings:
            complete = False
            break
        explored += 1
        c = p + inc[ci]
        ci += 1
        if c >= incumbent:
            continue
        labels[r] = rank_choices[r][ci - 1]
        if r == last:
            incumbent = c
            best_ranked = tuple(labels)
            improvements.append((c, explored))
            continue
        key = back_labels[r + 1](labels)
        entry = memo[r + 1].get(key)
        if entry is None:
            entry = memo[r + 1][key] = increments(r + 1, labels)
        child, low = entry
        if c + low >= incumbent:
            # Whole-rank pruning: every child would be pruned, and a pruned
            # child never moves the incumbent, so count them all as explored
            # without entering the rank.  The budget stop stays exact: if the
            # budget ends inside this rank, a node-by-node walk stops there.
            explored += len(child)
            if explored > max_labelings:
                explored = max_labelings
                complete = False
                break
            rank_skips += 1
            continue
        choice_idx[r] = ci
        r += 1
        inc = rank_inc[r] = child
        n = len(child)
        ci = 0
        p = partial[r] = c
    if best_ranked is not None:
        best_labels = tuple(best_ranked[rank[node]] for node in range(nnodes))
    return incumbent, best_labels, explored, complete, improvements, rank_skips


def min_non_opposite_cost(w: WeightMap, budget: SearchBudget | None = None) -> SearchResult:
    """Exact minimum cost over all non-opposite cuts of the weighted graph.

    The result is the global minimum whenever proven_optimal is set; the
    two modes agree on it exactly.  Ties for the argmin resolve to the
    first optimum in enumeration order (exhaustive mode) or to the first
    strict improvement over the seeded incumbent (branch and bound).
    """
    if budget is None:
        budget = SearchBudget()
    # each search returns (cost numerator, labels, explored, complete,
    # (numerator, explored) per improvement, whole-rank skips)
    search = _exhaustive_min if budget.mode == "exhaustive" else _branch_and_bound_min
    numerator, labels, explored, complete, improvements, rank_skips = search(
        w, budget.max_labelings
    )
    return SearchResult(
        min_cost=Fraction(numerator, w.den),
        argmin=CutLabeling(w.graph, labels),
        explored=explored,
        proven_optimal=complete,
        incumbents=tuple((Fraction(c, w.den), at) for c, at in improvements),
        rank_skips=rank_skips,
    )


def min_terminal_face_cut(w: WeightMap, terminal: int) -> Fraction:
    """Exact min-cut weight separating one terminal from its opposite side.

    Runs Dinic's max-flow on the integer numerators; the opposite boundary
    line drains into a super-sink through capacity larger than the total
    weight.  The arcs leaving the source side of the final residual graph
    must weigh exactly the flow, which certifies both as optimal.
    """
    g = w.graph
    if g.k != 3:
        raise ValueError("terminal-to-face cuts are defined on three-terminal graphs")
    if terminal not in (1, 2, 3):
        raise ValueError(f"no terminal {terminal}")
    source = g.terminals[terminal - 1]
    sink = node_count(g.k, g.n)
    inf = sum(w.nums) + 1
    # arc a ^ 1 is the reverse of arc a: an edge's two arcs are each other's
    # residual, and a sink arc's reverse starts with no capacity
    arcs = [(u, v, x, x) for u, v, x in _weighted_edges(w)]
    arcs += [(node, sink, inf, 0) for node in boundary_nodes(g, tuple({1, 2, 3} - {terminal}))]
    head, cap, out = [], [], [[] for _ in range(sink + 1)]
    for u, v, x, back in arcs:
        out[u].append(len(head))
        out[v].append(len(head) + 1)
        head += (v, u)
        cap += (x, back)
    flow = 0
    while True:
        level = [-1] * (sink + 1)
        level[source] = 0
        queue = [source]
        for u in queue:
            for a in out[u]:
                if cap[a] and level[head[a]] < 0:
                    level[head[a]] = level[u] + 1
                    queue.append(head[a])
        if level[sink] < 0:
            break
        # blocking flow: extend a path along level-raising arcs; augment at
        # the sink and back up to the tail of the first saturated arc
        current = [0] * (sink + 1)
        path: list[int] = []
        while True:
            u = head[path[-1]] if path else source
            if u == sink:
                bottleneck = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= bottleneck
                    cap[a ^ 1] += bottleneck
                flow += bottleneck
                del path[next(j for j, a in enumerate(path) if not cap[a]) :]
                continue
            arcs_u, i, up = out[u], current[u], level[u] + 1
            while i < len(arcs_u) and not (cap[arcs_u[i]] and level[head[arcs_u[i]]] == up):
                i += 1
            current[u] = i
            if i < len(arcs_u):
                path.append(arcs_u[i])
            elif path:  # u is dead for this phase: back up past its arc
                current[head[path.pop() ^ 1]] += 1
            else:
                break
    cut = sum(x if level[u] >= 0 else back for u, v, x, back in arcs if (level[u] < 0) != (level[v] < 0))
    assert cut == flow, (cut, flow)
    return Fraction(flow, w.den)
