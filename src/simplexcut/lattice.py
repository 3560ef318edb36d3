"""Discretized-simplex lattice graphs.

A point of the lattice is a k-tuple of nonnegative integers summing to n,
standing for the rational vector x/n on the probability simplex.  Two points
are adjacent when one is obtained from the other by moving a single unit of
mass between two coordinates; every weight construction in the package
lives on this unit-distance graph.

Node order is a public contract: points are sorted colexicographically by
their integer coordinate tuple, and every index that appears in serialized
instances or labelings refers to that order.

A node's index is its colex rank, which the combinatorial number system
gives in closed form (Knuth, TAOCP Vol. 4A, section 7.2.1.3).  The edges
come from rank differences: with prefix sums S_m = p_1 + ... + p_m, moving
one unit of mass from coordinate i to a later coordinate j raises the rank
by pot_j - pot_i, where pot_j = sum over m < j of C(S_m + m - 2, m - 1)
(the m = 1 term is 1).  No neighbour is looked up by its coordinates, and
the ranks are computed a whole column of nodes at a time, from coordinate
columns that are built in colex order without making a point tuple.

Memory: an edge is one entry in each of two arrays of 4-byte unsigned
ints, with no int object per node, so a graph holds about 8.0 bytes per
edge on CPython 3.11 (3.8 MiB for the 492,960 edges of k = 4, n = 78).
The node count is node_count(k, n) and a point's index comes from rank,
both in closed form; the node table and the adjacency tuples are built
only when nodes or adj is first read.  The x4 = 0 face of a k = 4 graph
is its first node_count(3, n) nodes, in the order of build_graph(3, n).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from itertools import accumulate, chain, compress, repeat
from operator import add, sub

Point = tuple[int, ...]


def _check_size(k: int, n: int) -> None:
    if k < 2:
        raise ValueError("need at least two coordinates")
    if n < 1:
        raise ValueError("resolution must be positive")


def _colex_columns(k: int, n: int) -> list[list[int]]:
    """The k coordinate columns of the colex-sorted lattice points.

    Built down from the last coordinate, which colex order sorts first: a
    block of nodes that shares its coordinates above j, with r units of
    mass left, splits into the values v = 0..r of coordinate j, and value v
    covers the C(r - v + j - 1, j - 1) ways to share the rest among the
    j coordinates below.  No point tuple is made.
    """
    _check_size(k, n)
    columns = []  # the last coordinate's first
    blocks = [n]  # mass left in each block, in node order
    for j in range(k - 1, 0, -1):
        sizes = [math.comb(s + j - 1, j - 1) for s in range(n + 1)]
        values = chain.from_iterable(map(range, map((1).__add__, blocks)))
        blocks = list(chain.from_iterable(range(r, -1, -1) for r in blocks))
        runs = map(repeat, values, map(sizes.__getitem__, blocks))
        columns.append(list(chain.from_iterable(runs)))
    columns.append(blocks)
    return columns[::-1]


def simplex_points(k: int, n: int) -> list[Point]:
    """All lattice points of the k-coordinate simplex at resolution n.

    Returned colexicographically sorted, so the terminal n*e1 comes first
    and n*ek last.  len(result) == C(n+k-1, k-1).
    """
    return list(zip(*_colex_columns(k, n)))


def node_count(k: int, n: int) -> int:
    return math.comb(n + k - 1, k - 1)


def edge_count(k: int, n: int) -> int:
    return math.comb(k, 2) * math.comb(n + k - 2, k - 1)


def reach(k: int, n: int) -> int:
    """The largest head - tail over the edges of the (k, n) lattice,
    C(n + k - 2, k - 2) = node_count(k - 1, n): every edge (u, v) has
    u < v <= u + reach(k, n).

    Moving a unit from coordinate i to a later j (1-based) raises the rank
    by pot_j - pot_i, the sum over i <= m < j of C(S_m + m - 2, m - 1).
    Each term is at most C(n + m - 2, m - 1), and those bounds summed over
    m = 1..k - 1 give C(n + k - 2, k - 2) (the hockey-stick identity).
    The move from n*e1 to (n - 1)*e1 + ek, where every S_m is n, attains it.
    """
    return node_count(k - 1, n)


def terminal_nodes(k: int, n: int) -> tuple[int, ...]:
    """Node indices of the corners n*e1, ..., n*ek: C(n+t-1, t-1) - 1 for
    the t-th corner, computed without building the graph."""
    return tuple(math.comb(n + t, t) - 1 for t in range(k))


@dataclass(frozen=True)
class SimplexGraph:
    """Unit-edge graph on the discretized simplex.

    (k, n) fixes every node and edge index, so two graphs are equal, and
    hash equal, when their k and n are: a cut or a weight map built on one
    fits any graph equal to it, a copy or an unpickled graph included.
    node_count(k, n) gives the number of nodes without reading nodes.

    The graph keeps only its edge columns and terminals; the other fields
    are views built on first read and kept.

    tails      the e-th edge is (tails[e], heads[e]), tails[e] < heads[e];
    heads      edges are sorted by (tail, head); both are array("I")
    terminals  terminals[i] = node index of the point n*e(i+1)
    edges      read-only (u, v) view of tails and heads, holding no pairs
    nodes      colex-sorted coordinate tuples; on first read.  rank
               gives one point's index without it
    adj        adj[u] = tuple of u's neighbours, ascending; on first read
    """

    k: int
    n: int
    tails: array = field(compare=False)
    heads: array = field(compare=False)
    terminals: tuple[int, ...] = field(compare=False)

    def __repr__(self) -> str:
        return f"SimplexGraph(k={self.k}, n={self.n})"

    @property
    def edges(self) -> "_EdgeView":
        return _EdgeView(self.tails, self.heads)

    @cached_property
    def nodes(self) -> tuple[Point, ...]:
        return tuple(simplex_points(self.k, self.n))

    def rank(self, point: Sequence[int]) -> int:
        """The node index of a lattice point: its colex rank.

        For each coordinate m, the points that agree with point after m
        and hold less mass at m come before it; they are counted by the
        mass their first m coordinates hold.
        """
        if len(point) != self.k or sum(point) != self.n or min(point) < 0:
            raise ValueError(f"not a point of the k={self.k}, n={self.n} lattice: {tuple(point)}")
        rank = 0
        prefix = point[0]
        for m, p in enumerate(point[1:], start=1):
            # C(T + m, m) tuples of m coordinates sum to at most T
            rank += math.comb(prefix + p + m, m) - math.comb(prefix + m, m)
            prefix += p
        return rank

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        # edges are sorted by (tail, head): a node meets its lower
        # neighbours, ascending, before the edges it is the tail of
        adj: list[list[int]] = [[] for _ in range(node_count(self.k, self.n))]
        for u, v in zip(self.tails, self.heads):
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    def edge_between(self, u: int, v: int) -> int | None:
        """Index of the edge joining u and v, or None if they are not neighbours."""
        if u > v:
            u, v = v, u
        if not 0 <= u < v < node_count(self.k, self.n):
            return None
        # u's edges are the run of u in the sorted tails, ascending by head
        tails, heads = self.tails, self.heads
        lo = bisect_left(tails, u)
        hi = bisect_left(tails, u + 1, lo)
        e = bisect_left(heads, v, lo, hi)
        return e if e < hi and heads[e] == v else None


class _EdgeView(Sequence):
    """The edges as (u, v) pairs, made on demand from the two columns."""

    def __init__(self, tails: array, heads: array):
        self.tails, self.heads = tails, heads

    def __len__(self) -> int:
        return len(self.tails)

    def __getitem__(self, e: int) -> tuple[int, int]:
        return self.tails[e], self.heads[e]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.tails, self.heads)


@lru_cache(maxsize=None)
def build_graph(k: int, n: int) -> SimplexGraph:
    """Build (and cache) the simplex lattice graph for k terminals at resolution n."""
    # columns over all nodes: coordinates p_m, prefix sums S_m and pot_j
    cols = _colex_columns(k, n)
    ids = range(len(cols[0]))
    # steps[m][s] = C(s + m - 1, m): the rank gained per unit of mass moved
    # past coordinate m + 1 (0-based m) when the prefix sum there is s
    steps = [[1] * (n + 1)]
    steps += [[math.comb(s + m - 1, m) for s in range(n + 1)] for m in range(1, k - 1)]
    sums = accumulate(cols[:-1], lambda s, col: list(map(add, s, col)))
    pots = [repeat(0)]
    pots += accumulate(
        (list(map(step.__getitem__, s)) for step, s in zip(steps, sums)),
        lambda a, b: list(map(add, a, b)),
    )
    # moves i -> j (0-based, i < j) with j ascending and, within one j, i
    # descending reach the higher neighbours in ascending order; move
    # (i, j) exists where p_i > 0 and raises the rank by pot_j - pot_i
    moves = [(i, j) for j in range(1, k) for i in range(j - 1, -1, -1)]
    movable = [list(map(bool, col)) for col in cols[:-1]]
    masks = [movable[i] for i, _ in moves]
    ranks = zip(*(map(add, ids, map(sub, pots[j], pots[i])) for i, j in moves))
    found = compress(chain.from_iterable(ranks), chain.from_iterable(zip(*masks)))
    heads = array("I", found)
    counts = map(sum, zip(*masks))
    tails = array("I", chain.from_iterable(map(repeat, ids, counts)))
    graph = SimplexGraph(k, n, tails, heads, terminal_nodes(k, n))
    assert len(ids) == node_count(k, n) and len(heads) == edge_count(k, n)
    return graph


# A labeling family is every choice of one allowed label per node, and its
# rule(k, s) is the tuple of labels it allows a node whose support is s
Rule = Callable[[int, tuple[int, ...]], tuple[int, ...]]


def family_choices(g: SimplexGraph, rule: Rule) -> list[tuple[int, ...]]:
    """The labels rule allows each node of g, in node order.

    The rule is called once per distinct support, and nodes with one
    support share its tuple; a point's coordinates are nonnegative, so
    compress takes its support.
    """
    allowed = cache(partial(rule, g.k))
    return list(map(allowed, map(tuple, map(compress, repeat(range(1, g.k + 1)), g.nodes))))


def family_size(k: int, n: int, rule: Rule) -> list[tuple[int, int]]:
    """The number of labelings in rule's family on the (k, n) lattice, as
    factors (base, exponent) ascending by base, without building the
    lattice.

    The rule may tell supports apart only by their size s and by whether
    they hold k: C(k - 1, s - 1) supports of size s hold k, C(k - 1, s) do
    not, and each is the support of C(n - 1, s - 1) nodes.
    """
    _check_size(k, n)
    exponents: Counter[int] = Counter()
    for s in range(1, k + 1):
        # a support of each class: k - s + 1..k holds k, 1..s (s < k) does not
        nodes = math.comb(n - 1, s - 1)
        exponents[len(rule(k, tuple(range(k - s + 1, k + 1))))] += math.comb(k - 1, s - 1) * nodes
        exponents[len(rule(k, tuple(range(1, s + 1))))] += math.comb(k - 1, s) * nodes
    return [(b, e) for b, e in sorted(exponents.items()) if e]


def boundary_nodes(g: SimplexGraph, pair: tuple[int, int]) -> tuple[int, ...]:
    """Nodes whose support lies inside the given 1-based terminal pair,
    ascending, which is also the order from terminal min(pair) toward
    max(pair)."""
    i, j = sorted(pair)
    if not (1 <= i < j <= g.k):
        raise ValueError(f"not a terminal pair: {pair}")
    line = []
    for b in range(g.n + 1):
        point = [0] * g.k
        point[i - 1], point[j - 1] = g.n - b, b
        line.append(g.rank(point))
    return tuple(line)


def boundary_edges(g: SimplexGraph, pair: tuple[int, int]) -> tuple[int, ...]:
    """Edge indices of the boundary line between two terminals, ordered from
    terminal min(pair) toward max(pair)."""
    line = boundary_nodes(g, pair)
    out = []
    for a, b in zip(line, line[1:]):
        e = g.edge_between(a, b)
        assert e is not None
        out.append(e)
    return tuple(out)


def cap_depth(c: Fraction, n: int) -> int:
    """The number of lattice levels c*n that a corner cap of depth c spans
    at resolution n >= 1; c must lie strictly between 0 and 1/2 and make
    c*n integral, so the result is at least 1."""
    c = Fraction(c)
    if not 0 < c < Fraction(1, 2):
        raise ValueError(f"cap depth out of range: {c}")
    depth = c * n
    if depth.denominator != 1:
        raise ValueError(f"cap depth {c} is not integral at resolution {n}")
    return int(depth)


def red_regions(g: SimplexGraph, c: Fraction) -> tuple[tuple[int, ...], ...]:
    """The three corner cycles at cap depth c (c*n must be integral), one
    ascending edge tuple per corner m in {1,2,3}.

    Corner m's cycle is the c*n edges nearest m of each of its two boundary
    lines on the x4 = 0 face, closed by the c*n edges of the segment at
    x_m = (1-c)n between them: a triangle of side cn and length 3cn.
    """
    if g.k != 4:
        raise ValueError("red regions live on four-terminal graphs")
    depth = cap_depth(c, g.n)
    cycles = []
    for m in (1, 2, 3):
        a, b = sorted({1, 2, 3} - {m})
        cycle = []
        for other in (a, b):
            line = boundary_edges(g, (m, other))
            cycle += line[:depth] if m < other else line[-depth:]
        segment = []
        for t in range(depth + 1):
            point = [0] * 4
            point[m - 1], point[a - 1], point[b - 1] = g.n - depth, depth - t, t
            segment.append(g.rank(point))
        cycle += map(g.edge_between, segment, segment[1:])
        assert None not in cycle
        cycles.append(tuple(sorted(cycle)))
    return tuple(cycles)
