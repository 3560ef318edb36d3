"""Weighted gap instances on simplex lattice graphs.

All weights are exact rationals, stored as integers over one common
denominator: a WeightMap holds a denominator den and a tuple nums with one
integer numerator per edge, so edge e weighs nums[e]/den.  den is the
least common denominator of the weights (1 when every weight is 0), which
makes the pair canonical and equality and hashing structural.  Arithmetic
on weights (combining, pricing cuts, searching) runs on the integers;
Fractions appear only where weights enter or leave a map.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import gcd, lcm
from operator import mul

from .lattice import SimplexGraph, boundary_edges, build_graph, cap_depth, node_count, red_regions

COMPONENT_NAMES = {1: "face", 2: "lines", 3: "cycles", 4: "uniform"}


class _Sized:
    """items told their count n, so that tuple() allocates its result once,
    at that size.  From an iterator of unknown length (a map) tuple() grows
    its result a quarter at a time, and its last step, to up to 1.25 times
    the final size, can land in fresh memory: parsing the n = 78 DIMACS
    document then peaked 4.3 MB higher in some heap layouts.  A wrong n
    costs only a resize."""

    def __init__(self, items: Iterable[int], n: int):
        self.items, self.n = items, n

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True, init=False)
class WeightMap:
    """Nonnegative rational edge weights over a fixed graph.

    Edge e weighs nums[e]/den, with den > 0 the least common denominator
    of the weights and len(nums) == len(graph.edges).  Build one from an
    {edge index: weight} mapping, where absent edges weigh zero, or from
    integers with from_numerators.
    """

    graph: SimplexGraph
    den: int
    nums: tuple[int, ...]

    def __init__(self, graph: SimplexGraph, weights: dict[int, Fraction]):
        nums = [0] * len(graph.edges)
        fractions = []
        for e, w in weights.items():
            if not isinstance(e, int):
                raise ValueError("edge indices must be integers")
            w = Fraction(w)
            if w < 0:
                raise ValueError(f"negative weight on edge {e}")
            if not 0 <= e < len(nums):
                raise ValueError(f"unknown edge index {e}")
            fractions.append((int(e), w))
        den = lcm(1, *(w.denominator for _, w in fractions))
        for e, w in fractions:
            nums[e] = w.numerator * (den // w.denominator)
        self._assign(graph, den, tuple(nums))

    def _assign(self, graph: SimplexGraph, den: int, nums: tuple[int, ...]) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    @classmethod
    def from_numerators(cls, graph: SimplexGraph, den: int, nums) -> "WeightMap":
        """Edge e weighs nums[e]/den; the fraction is reduced to lowest terms."""
        nums = tuple(_Sized(nums, len(graph.edges)))
        if len(nums) != len(graph.edges):
            raise ValueError(f"{len(nums)} numerators for {len(graph.edges)} edges")
        # the sign and the common factor depend only on the distinct values
        values = set(nums)
        if den < 1 or (values and min(values) < 0):
            raise ValueError("weights must be nonnegative over a positive denominator")
        common = gcd(den, *values)
        if common > 1:
            den //= common
            # one division, and one int object, per distinct value
            reduced = {x: x // common for x in values}
            nums = tuple(_Sized(map(reduced.__getitem__, nums), len(nums)))
        wm = object.__new__(cls)
        wm._assign(graph, den, nums)
        return wm

    @property
    def weights(self) -> Mapping[int, Fraction]:
        """Read-only {edge index: weight} view of the nonzero weights."""
        return _NonzeroWeights(self)

    def weight(self, edge: int) -> Fraction:
        return Fraction(self.nums[edge], self.den)

    def total(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def items(self) -> list[tuple[int, Fraction]]:
        """(edge index, weight) pairs of the nonzero weights, in edge order."""
        den = self.den
        return [(e, Fraction(x, den)) for e, x in enumerate(self.nums) if x]

    def __repr__(self) -> str:
        return f"WeightMap(graph={self.graph!r}, den={self.den}, nonzero={len(self.weights)})"


class _NonzeroWeights(Mapping):
    # a view, so that len() counts nonzero numerators without building a
    # Fraction for each edge
    def __init__(self, wm: WeightMap):
        self._wm = wm

    def __len__(self) -> int:
        return len(self._wm.nums) - self._wm.nums.count(0)

    def __iter__(self) -> Iterator[int]:
        return (e for e, x in enumerate(self._wm.nums) if x)

    def __getitem__(self, edge: int) -> Fraction:
        nums = self._wm.nums
        if not (isinstance(edge, int) and 0 <= edge < len(nums) and nums[edge]):
            raise KeyError(edge)
        return Fraction(nums[edge], self._wm.den)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def combine_maps(parts: list[tuple[Fraction, WeightMap]]) -> WeightMap:
    """Nonnegative linear combination of weight maps on one graph.

    Each lam * nums/den is brought to the common denominator of all the
    terms, so the sum is taken over integers.  An edge's numerator depends
    only on its row of term numerators, and the terms take few values, so
    each distinct row is summed once and the map holds one int object per
    distinct numerator.
    """
    if not parts:
        raise ValueError("nothing to combine")
    graph = parts[0][1].graph
    terms = []
    for lam, wm in parts:
        if wm.graph != graph:
            raise ValueError("weight maps live on different graphs")
        terms.append((Fraction(lam), wm))
    den = lcm(*(lam.denominator * wm.den for lam, wm in terms))
    scales = [lam.numerator * (den // (lam.denominator * wm.den)) for lam, wm in terms]
    shared: dict[int, int] = {}
    summed = {}
    for row in set(zip(*(wm.nums for _lam, wm in terms))):
        x = sum(map(mul, row, scales))
        summed[row] = shared.setdefault(x, x)
    rows = zip(*(wm.nums for _lam, wm in terms))
    return WeightMap.from_numerators(graph, den, map(summed.__getitem__, rows))


@dataclass(frozen=True)
class GapParams:
    """Mixing weights for the four components plus the corner-cap depth c.

    The lambdas must be nonnegative and sum to one; c must lie strictly
    between 0 and 1/2.  All fields are exact rationals.
    """

    lam1: Fraction
    lam2: Fraction
    lam3: Fraction
    lam4: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("lam1", "lam2", "lam3", "lam4", "c"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, Fraction(value))
        # tested on integers over a common denominator: the limitation
        # grid builds ten thousand of these, and Fraction sums and
        # comparisons dominated its time
        lams = self.lams()
        if any(l.numerator < 0 for l in lams):
            raise ValueError("mixing weights must be nonnegative")
        den = lcm(*(l.denominator for l in lams))
        if sum(l.numerator * (den // l.denominator) for l in lams) != den:
            raise ValueError(f"mixing weights sum to {sum(lams)}, expected 1")
        if not 0 < 2 * self.c.numerator < self.c.denominator:
            raise ValueError(f"cap depth out of range: {self.c}")

    def lams(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.lam1, self.lam2, self.lam3, self.lam4)

    @staticmethod
    def tuned(c: Fraction | None = None) -> "GapParams":
        """The optimum of optimize_params frozen to six decimal places: c is
        its witness (the exact stationary point rounded half-even), and the
        weights sum to 1 and lie within 10^-6 of the optimizer's.  Pass c
        to reuse the mixture at another cap depth (e.g. to make c*n
        integral)."""
        return GapParams(
            Fraction(751652, 10**6),
            Fraction(147852, 10**6),
            Fraction(275, 10**6),
            Fraction(100221, 10**6),
            Fraction(74125, 10**6) if c is None else Fraction(c),
        )


def check_resolution(n: int, lams, c: Fraction | None = None) -> None:
    """Refuse a resolution n >= 1, before any lattice is built, at which a
    component that lams (face, lines, cycles, uniform) weighs nonzero
    cannot be built: the face needs n divisible by 3, the cycles a cap
    depth c with c*n integral.  build_graph refuses an n below 1 itself.
    """
    if n >= 1 and lams[0] and (n % 3 != 0 or n < 3):
        raise ValueError("base triangle needs a resolution divisible by 3")
    if n >= 1 and lams[2]:
        if c is None:
            raise ValueError("the cycles component needs a cap depth")
        cap_depth(c, n)


def build_base_triangle(n: int) -> WeightMap:
    """The three-terminal base instance of total weight exactly n.

    Requires n divisible by 3.  Writing rho = 3/(5n) and m = n/3:

    * boundary lines carry rho * max(m-d+1, d-2m, 1) on the d-th edge from
      either end, so the first third descends from m*rho to rho, the middle
      third is flat at rho, and the last third ascends back;
    * a non-boundary edge weighs 0 when its unchanged coordinate is at least
      2m on both endpoints (it then runs parallel to the far side inside a
      corner triangle), and rho otherwise.

    Certified non-opposite minima: at n=3 the exhaustive minimum meets
    6/5 - 1/n = 13/15 (reproduce check exhaustive-min-face); at n=6 branch
    and bound certifies exactly 1, below 6/5 - 1/n = 31/30, so that floor
    does not hold at every n.
    """
    check_resolution(n, (1, 0, 0, 0))
    g = build_graph(3, n)
    m = n // 3
    # numerators over 5n, so rho = 3/(5n) is 3
    nums = [0] * len(g.edges)
    boundary: dict[int, int] = {}  # edge index -> position d from the lower terminal
    for pair in combinations((1, 2, 3), 2):
        for d, e in enumerate(boundary_edges(g, pair), start=1):
            boundary[e] = d
    for e, (u, v) in enumerate(zip(g.tails, g.heads)):
        if e in boundary:
            d = boundary[e]
            nums[e] = 3 * max(m - d + 1, d - 2 * m, 1)
            continue
        p, q = g.nodes[u], g.nodes[v]
        fixed = next(i for i in range(3) if p[i] == q[i])
        if p[fixed] >= 2 * m:
            continue  # zero-weight: parallel run inside a corner triangle
        nums[e] = 3
    wm = WeightMap.from_numerators(g, 5 * n, nums)
    assert wm.total() == n
    return wm


def _component_terms(index: int, g: SimplexGraph, c: Fraction | None) -> tuple[int, int, dict]:
    """(den, fill, support): edge e weighs (fill + support.get(e, 0))/den."""
    if g.k != 4:
        raise ValueError("components are defined on four-terminal graphs")
    check_resolution(g.n, [i == index for i in range(1, 5)], c)
    if index == 1:
        # the x4 = 0 face is g's node prefix, numbered as the triangle's
        # nodes, so its edges are the edges among the prefix, in the
        # triangle's own (tail, head) order
        base = build_base_triangle(g.n)
        face = node_count(3, g.n)
        stop = bisect_left(g.tails, face)
        lifted = compress(range(stop), map(face.__gt__, g.heads[:stop]))
        return base.den, 0, dict(zip(lifted, base.nums, strict=True))
    if index == 2:
        lines = (e for pair in combinations((1, 2, 3), 2) for e in boundary_edges(g, pair))
        return 3, 0, dict.fromkeys(lines, 1)
    if index == 3:
        c = Fraction(c)
        # 1/(9c) = c.denominator / (9 c.numerator)
        return 9 * c.numerator, 0, dict.fromkeys(red_regions(g, c).all_edges(), c.denominator)
    if index == 4:
        return g.n * g.n, 1, {}
    raise ValueError(f"no component {index}")


def build_component(index: int, g: SimplexGraph, c: Fraction | None = None) -> WeightMap:
    """One of the four unscaled components on a four-terminal graph.

    1  the base triangle embedded on the x4 = 0 face
    2  weight 1/3 on each edge of the three face boundary lines
    3  weight 1/(9c) on each corner-cycle edge (requires c)
    4  weight 1/n^2 on every edge

    Components 1..3 total exactly n; component 4 totals n + 3 + 2/n.
    """
    den, fill, support = _component_terms(index, g, c)
    nums = [fill] * len(g.edges)
    for e, x in support.items():
        nums[e] += x
    return WeightMap.from_numerators(g, den, nums)


def combine(params: GapParams, g: SimplexGraph) -> WeightMap:
    """Convex combination of the four components at the given parameters.

    Components with zero mixing weight are skipped; in particular c is only
    instantiated (and its integrality at this resolution enforced) when
    lam3 > 0.  Only the edges of the sparse supports are summed one by one.
    """
    check_resolution(g.n, params.lams(), params.c)
    terms = [
        (lam, *_component_terms(i, g, params.c))
        for i, lam in enumerate(params.lams(), start=1)
        if lam
    ]
    den = lcm(*(lam.denominator * d for lam, d, _fill, _support in terms))
    fill, extra = 0, {}
    for lam, d, f, support in terms:
        scale = lam.numerator * (den // (lam.denominator * d))
        fill += scale * f
        # the supports overlap on the face boundary, so their terms add up
        for e, x in support.items():
            extra[e] = extra.get(e, 0) + scale * x
    nums = [fill] * len(g.edges)
    shared = {fill: fill}
    for e, x in extra.items():
        nums[e] = shared.setdefault(fill + x, fill + x)
    return WeightMap.from_numerators(g, den, nums)
