"""Cut labelings on simplex lattice graphs.

A cut assigns every node a label in 1..k+1 with each terminal keeping its
own index.  Label k+1 is the auxiliary label: it never matches a terminal,
so a node carrying it is separated from all of them.  The cut-set is the
set of edges whose endpoints disagree.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, count, islice
from operator import contains, ne

from .instances import WeightMap
from .lattice import (
    SimplexGraph,
    boundary_edges,
    build_graph,
    cap_depth,
    family_choices,
    node_count,
    reach,
)


@dataclass(frozen=True)
class CutLabeling:
    graph: SimplexGraph
    labels: tuple[int, ...]

    def __post_init__(self):
        g = self.graph
        raw = tuple(self.labels)
        labels = tuple(map(int, raw))
        if labels != raw:
            raise ValueError("labels must be integers")
        if len(labels) != node_count(g.k, g.n):
            raise ValueError(
                f"{len(labels)} labels for {node_count(g.k, g.n)} nodes"
            )
        if min(labels) < 1 or max(labels) > g.k + 1:
            raise ValueError(f"labels must lie in 1..{g.k + 1}")
        for i, t in enumerate(g.terminals, start=1):
            if labels[t] != i:
                raise ValueError(f"terminal {i} carries label {labels[t]}")
        object.__setattr__(self, "labels", labels)


def _windows(g: SimplexGraph, labels: tuple[int, ...]) -> list[tuple[int, int]]:
    """Disjoint, ascending edge ranges [lo, hi) that hold every edge whose
    endpoints carry different labels.

    An edge (u, v) has u < v <= u + reach(k, n), so it is cut only when a
    change point b (labels[b] != labels[b - 1]) has b - reach <= u < b.
    The tails near the change points merge into windows, and the sorted
    tails map each window to a range of edges.
    """
    span = reach(g.k, g.n)
    windows: list[list[int]] = []
    for b in compress(count(1), map(ne, islice(labels, 1, None), labels)):
        if windows and b - span <= windows[-1][1]:
            windows[-1][1] = b
        else:
            windows.append([max(b - span, 0), b])
    tails = g.tails
    return [(bisect_left(tails, start), bisect_left(tails, stop)) for start, stop in windows]


def delta(p: CutLabeling) -> tuple[int, ...]:
    """Indices of the edges whose endpoints carry different labels, ascending."""
    g, labels = p.graph, p.labels
    cut: list[int] = []
    for lo, hi in _windows(g, labels):
        ends = zip(range(lo, hi), g.tails[lo:hi], g.heads[lo:hi])
        cut.extend(e for e, u, v in ends if labels[u] != labels[v])
    return tuple(cut)


def cost(p: CutLabeling, w: WeightMap) -> Fraction:
    """Total weight of the cut-set delta(p), exact.

    delta reads only the edges within reach of a label change (see
    _windows): at k = 4, n = 78 the certificate cuts of limitation_min
    read a few tens of thousands of the 492,960 edges.
    """
    if p.graph != w.graph:
        raise ValueError("cut and weights live on different graphs")
    return Fraction(sum(map(w.palette.__getitem__, map(w.codes.__getitem__, delta(p)))), w.den)


def non_opposite(k: int, s: tuple[int, ...]) -> tuple[int, ...]:
    """Non-opposite cuts: a node's support s and label k + 1; a corner's own."""
    return s if len(s) == 1 else s + (k + 1,)


def is_non_opposite(p: CutLabeling) -> bool:
    """Every node carries a label that non_opposite allows it."""
    return all(map(contains, family_choices(p.graph, non_opposite), p.labels))


def is_fragmenting(p: CutLabeling) -> bool:
    """True when every boundary line carries at least two cut edges.

    Defined on three-terminal graphs (the face a four-terminal cut is
    restricted to).
    """
    if p.graph.k != 3:
        raise ValueError("fragmenting is a predicate on three-terminal graphs")
    g, labels = p.graph, p.labels
    for pair in combinations((1, 2, 3), 2):
        crossings = 0
        for e in boundary_edges(g, pair):
            if labels[g.tails[e]] != labels[g.heads[e]]:
                crossings += 1
                if crossings == 2:
                    break
        if crossings < 2:
            return False
    return True


def canonicalize(p: CutLabeling) -> CutLabeling:
    """Relabel by terminal reachability in the graph minus the cut-set.

    Every node reachable from terminal i through uncut edges gets label i;
    nodes reachable from no terminal get the auxiliary label.  The new
    cut-set is a subset of the old one, so the cost never increases under
    any weighting, the auxiliary count never decreases, and applying the
    operation twice equals applying it once.
    """
    return CutLabeling(p.graph, reachable_labels(p.graph, p.labels))


def reachable_labels(g: SimplexGraph, labels: tuple[int, ...]) -> tuple[int, ...]:
    """canonicalize on a raw label tuple of g, which it does not validate."""
    adj = g.adj
    aux = g.k + 1
    relabel = [aux] * len(labels)
    for i, t in enumerate(g.terminals, start=1):
        if relabel[t] != aux:
            continue
        relabel[t] = i
        # the component carries t's label throughout; reachability does not
        # depend on visit order, so a stack serves
        own, stack = labels[t], [t]
        while stack:
            for v in adj[stack.pop()]:
                if labels[v] == own and relabel[v] == aux:
                    relabel[v] = i
                    stack.append(v)
    return tuple(relabel)


def midlines(g: SimplexGraph) -> CutLabeling:
    """Three-terminal cut along the half-coordinate lines.

    A node goes to 1 when its first coordinate reaches 1/2, else to 2 when
    its second does, else to 3.  Non-opposite and non-fragmenting: each
    boundary line is crossed exactly once.
    """
    if g.k != 3:
        raise ValueError("midlines is a three-terminal cut")
    n = g.n
    labels = tuple(
        1 if 2 * p[0] >= n else 2 if 2 * p[1] >= n else 3 for p in g.nodes
    )
    return CutLabeling(g, labels)


def midlines_extended(g: SimplexGraph) -> CutLabeling:
    """The midlines cut on the bottom face, label 4 everywhere above it.

    In colex order the bottom face x4 = 0 is the first C(n+2, 2) nodes, in
    the face graph's own order, so its labels are the face's midlines.
    """
    if g.k != 4:
        raise ValueError("the extension lives on a four-terminal graph")
    face = midlines(build_graph(3, g.n)).labels
    return CutLabeling(g, face + (4,) * (node_count(4, g.n) - len(face)))


def isolate_terminals(g: SimplexGraph) -> CutLabeling:
    """Terminals keep their labels; every other node gets the auxiliary label."""
    labels = [g.k + 1] * node_count(g.k, g.n)
    for i, t in enumerate(g.terminals, start=1):
        labels[t] = i
    return CutLabeling(g, tuple(labels))


def corner_caps(g: SimplexGraph, c: Fraction) -> CutLabeling:
    """Label the three corner caps of the bottom face, isolate the rest.

    The fourth terminal keeps label 4, bottom-face nodes with x_i >= 1-c go
    to i, and everything else gets the auxiliary label 5.  Caps are disjoint
    because c < 1/2.
    """
    if g.k != 4:
        raise ValueError("corner caps live on a four-terminal graph")
    level = g.n - cap_depth(c, g.n)
    # the bottom face leads the colex order, as in midlines_extended; one
    # coordinate at most reaches level > n/2
    labels = [
        1 + p.index(max(p)) if max(p) >= level else 5 for p in build_graph(3, g.n).nodes
    ]
    labels += [5] * (node_count(4, g.n) - len(labels))
    labels[g.terminals[3]] = 4
    return CutLabeling(g, tuple(labels))


def terminal_ball(g: SimplexGraph, alpha: Fraction) -> CutLabeling:
    """Label the radius-alpha ball around the first terminal with 1.

    Distance is graph distance, which equals n minus the first coordinate.
    The other terminals keep their labels and the rest of the graph gets
    the auxiliary label.  alpha*n must be integral.
    """
    if g.k != 4:
        raise ValueError("the ball cut lives on a four-terminal graph")
    alpha = Fraction(alpha)
    if not 0 <= alpha <= Fraction(1, 2):
        raise ValueError(f"ball radius fraction out of range: {alpha}")
    radius = alpha * g.n
    if radius.denominator != 1:
        raise ValueError(f"radius {alpha} is not integral at resolution {g.n}")
    floor = g.n - int(radius)
    labels = []
    for node, p in enumerate(g.nodes):
        if p[0] >= floor:
            labels.append(1)
        elif node in g.terminals:
            labels.append(1 + g.terminals.index(node))
        else:
            labels.append(5)
    return CutLabeling(g, tuple(labels))


# name -> (constructor, the keyword of named_cut it takes or None, what
# that parameter is)
NAMED_CUTS = {
    "midlines": (midlines, None, None),
    "midlines-ext": (midlines_extended, None, None),
    "isolate-terminals": (isolate_terminals, None, None),
    "corner-caps": (corner_caps, "c", "a cap depth"),
    "terminal-ball": (terminal_ball, "alpha", "a radius fraction"),
}


def named_cut(
    name: str,
    g: SimplexGraph,
    c: Fraction | None = None,
    alpha: Fraction | None = None,
) -> CutLabeling:
    """Construct one of the library cuts by name."""
    if name not in NAMED_CUTS:
        raise ValueError(f"unknown cut name: {name!r} (choose from {', '.join(NAMED_CUTS)})")
    build, keyword, what = NAMED_CUTS[name]
    if keyword is None:
        return build(g)
    value = {"c": c, "alpha": alpha}[keyword]
    if value is None:
        raise ValueError(f"{name} needs {what}")
    return build(g, value)
