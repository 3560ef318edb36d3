"""Weighted gap instances on simplex lattice graphs.

All weights are exact rationals, stored as integers over one common
denominator.  A WeightMap holds the denominator den, a palette of the
distinct numerators, ascending from 0, and codes, an array with one
small code per edge, so edge e weighs palette[codes[e]]/den.  den is the
least common denominator of the weights (1 when every weight is 0), which
makes the form canonical and equality and hashing structural.  The gap
instances are sums of piecewise-constant components, so their palettes
are short (30 values at k = 4, n = 78) and a code takes one byte: 1, 2 or
4 bytes an edge as the palette needs 256 values or fewer, 65,536 or
fewer, or more.  Maps are built from {edge: weight} rationals or from
integer codes into a palette; arithmetic on weights (combining, pricing
cuts, searching) runs on the integers, and Fractions appear only where
weights enter or leave a map.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, compress, count
from math import gcd, lcm

from .errors import LambdaSimplexError
from .lattice import SimplexGraph, boundary_edges, build_graph, cap_depth, node_count, red_regions

COMPONENT_NAMES = {1: "face", 2: "lines", 3: "cycles", 4: "uniform"}


def _typecode(size: int) -> str:
    """The array typecode of the codes into a palette of size values."""
    return "B" if size <= 1 << 8 else "H" if size <= 1 << 16 else "I"


# codes are remapped in place this many at a time, so a remap holds two
# such slices beside the codes, not two copies of them
_REMAP_SLICE = 1 << 16

# total() counts 'B' codes value by value up to this many palette values:
# one byte count runs at under 1 ns a code, one step through the palette
# takes about 45 ns, and at 64 values on uniformly random codes the two
# ways are level (2 vCPU x86-64, CPython 3.11)
_COUNTED_PALETTE = 64


@dataclass(frozen=True, init=False)
class WeightMap:
    """Nonnegative rational edge weights over a fixed graph, as a palette.

    Edge e weighs palette[codes[e]]/den.  den > 0 is the least common
    denominator of the weights; palette holds the distinct numerators in
    ascending order, palette[0] == 0 always, so code 0 marks exactly the
    edges of weight 0; codes is an array with one code per edge, of
    typecode 'B', 'H' or 'I' as the palette's length needs.  The form is
    canonical, so maps with the same weights are equal and hash equal
    however they were built.  Build one from an {edge index: weight}
    mapping, where absent edges weigh zero, or from integers with
    from_codes, a palette of any order and one code per edge.  Read it
    through palette and codes, the weights view, weight(e) or total().
    """

    graph: SimplexGraph
    den: int
    palette: tuple[int, ...]
    codes: array = field(hash=False)

    def __init__(self, graph: SimplexGraph, weights: dict[int, Fraction]):
        fractions = []
        for e, w in weights.items():
            if not isinstance(e, int):
                raise ValueError("edge indices must be integers")
            w = Fraction(w)
            if w < 0:
                raise ValueError(f"negative weight on edge {e}")
            if not 0 <= e < len(graph.edges):
                raise ValueError(f"unknown edge index {e}")
            fractions.append((int(e), w))
        den = lcm(1, *(w.denominator for _, w in fractions))
        support = {e: w.numerator * (den // w.denominator) for e, w in fractions}
        self._assign(graph, den, *_support_codes(len(graph.edges), 0, support))

    def _assign(self, graph: SimplexGraph, den: int, values: list[int], codes: array) -> None:
        if len(codes) != len(graph.edges):
            raise ValueError(f"{len(codes)} codes for {len(graph.edges)} edges")
        if den < 1 or min(values, default=0) < 0:
            raise ValueError("weights must be nonnegative over a positive denominator")
        common = gcd(den, *values)
        palette = tuple(sorted({0, *(x // common for x in values)}))
        at = {x: i for i, x in enumerate(palette)}
        table = [at[x // common] for x in values]
        typecode = _typecode(len(palette))
        if table != list(range(len(table))) or codes.typecode != typecode:
            if codes.typecode == typecode == "B":
                # remapped in place, a slice at a time
                table = bytes(table).ljust(256, b"\0")
                with memoryview(codes) as view:
                    for start in range(0, len(view), _REMAP_SLICE):
                        rows = slice(start, start + _REMAP_SLICE)
                        view[rows] = view[rows].tobytes().translate(table)
            else:
                codes = array(typecode, map(table.__getitem__, codes))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "den", den // common)
        object.__setattr__(self, "palette", palette)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_codes(cls, graph: SimplexGraph, den: int, values: list[int], codes: array) -> "WeightMap":
        """Edge e weighs values[codes[e]]/den, reduced to the canonical form.

        values may come in any order and repeat; each but 0 must be the
        numerator of some edge, or it would stay in the palette.  The
        fraction is reduced by the gcd of den and the values, the values
        are sorted, and the codes are remapped to match; codes is taken
        over, and rewritten in place when its typecode stays 'B'.
        """
        wm = object.__new__(cls)
        wm._assign(graph, den, values, codes)
        return wm

    @property
    def weights(self) -> Mapping[int, Fraction]:
        """Read-only {edge index: weight} view of the nonzero weights."""
        return _NonzeroWeights(self)

    def weight(self, edge: int) -> Fraction:
        return Fraction(self.palette[self.codes[edge]], self.den)

    def total(self) -> Fraction:
        palette, codes = self.palette, self.codes
        if codes.typecode == "B" and len(palette) <= _COUNTED_PALETTE:
            data = codes.tobytes()
            return Fraction(sum(x * data.count(i) for i, x in enumerate(palette) if x), self.den)
        return Fraction(sum(map(palette.__getitem__, codes)), self.den)

    def __repr__(self) -> str:
        return f"WeightMap(graph={self.graph!r}, den={self.den}, nonzero={len(self.weights)})"


class _NonzeroWeights(Mapping):
    # a view, so that len() counts nonzero codes without building a
    # Fraction for each edge
    def __init__(self, wm: WeightMap):
        self._wm = wm

    def __len__(self) -> int:
        return len(self._wm.codes) - self._wm.codes.count(0)

    def __iter__(self) -> Iterator[int]:
        return compress(count(), self._wm.codes)

    def __getitem__(self, edge: int) -> Fraction:
        codes = self._wm.codes
        if not (isinstance(edge, int) and 0 <= edge < len(codes) and codes[edge]):
            raise KeyError(edge)
        return Fraction(self._wm.palette[codes[edge]], self._wm.den)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def combine_maps(parts: list[tuple[Fraction, WeightMap]]) -> WeightMap:
    """Nonnegative linear combination of weight maps on one graph, summed
    edge by edge: the tests' reference for combine.

    Each lam * palette[codes[e]]/den is brought to the common denominator
    of all the terms, so each edge's numerator is a sum of integers.
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
    sums: dict[int, int] = {}
    for lam, wm in terms:
        scale = lam.numerator * (den // (lam.denominator * wm.den))
        for e, code in enumerate(wm.codes):
            if code:
                sums[e] = sums.get(e, 0) + scale * wm.palette[code]
    return _from_support(graph, den, 0, sums)


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
        lams = self.lams()
        if any(l.numerator < 0 for l in lams):
            raise ValueError("mixing weights must be nonnegative")
        den = lcm(*(l.denominator for l in lams))
        if sum(l.numerator * (den // l.denominator) for l in lams) != den:
            raise LambdaSimplexError(f"mixing weights sum to {sum(lams)}, expected 1")
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
    support: dict[int, int] = {}
    boundary: dict[int, int] = {}  # edge index -> position d from the lower terminal
    for pair in combinations((1, 2, 3), 2):
        for d, e in enumerate(boundary_edges(g, pair), start=1):
            boundary[e] = d
    for e, (u, v) in enumerate(zip(g.tails, g.heads)):
        if e in boundary:
            d = boundary[e]
            support[e] = 3 * max(m - d + 1, d - 2 * m, 1)
            continue
        p, q = g.nodes[u], g.nodes[v]
        fixed = next(i for i in range(3) if p[i] == q[i])
        if p[fixed] >= 2 * m:
            continue  # zero-weight: parallel run inside a corner triangle
        support[e] = 3
    wm = _from_support(g, 5 * n, 0, support)
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
        nums = map(base.palette.__getitem__, base.codes)
        return base.den, 0, dict(zip(lifted, nums, strict=True))
    if index == 2:
        lines = (e for pair in combinations((1, 2, 3), 2) for e in boundary_edges(g, pair))
        return 3, 0, dict.fromkeys(lines, 1)
    if index == 3:
        c = Fraction(c)
        # 1/(9c) = c.denominator / (9 c.numerator)
        return 9 * c.numerator, 0, dict.fromkeys(chain(*red_regions(g, c)), c.denominator)
    if index == 4:
        return g.n * g.n, 1, {}
    raise ValueError(f"no component {index}")


def _support_codes(edges: int, fill: int, support: dict[int, int]) -> tuple[list[int], array]:
    """The palette and the codes of numerators fill + support.get(e, 0)
    on edges 0..edges-1.

    The palette is known before any code is written, so the codes are
    one array of fill's code, made at its final size, with the support's
    edges set one by one: no list per edge, and no remap.
    """
    extras = set(support.values())
    values = {0, *(fill + x for x in extras)}
    if len(support) < edges:
        values.add(fill)
    palette = sorted(values)
    at = {x: i for i, x in enumerate(palette)}
    # fill is in the palette unless the support covers every edge
    codes = array(_typecode(len(palette)), [at.get(fill, 0)]) * edges
    code = {x: at[fill + x] for x in extras}
    for e, x in support.items():
        codes[e] = code[x]
    return palette, codes


def _from_support(g: SimplexGraph, den: int, fill: int, support: dict[int, int]) -> WeightMap:
    """The map in which edge e weighs (fill + support.get(e, 0))/den."""
    return WeightMap.from_codes(g, den, *_support_codes(len(g.edges), fill, support))


def build_component(index: int, g: SimplexGraph, c: Fraction | None = None) -> WeightMap:
    """One of the four unscaled components on a four-terminal graph.

    1  the base triangle embedded on the x4 = 0 face
    2  weight 1/3 on each edge of the three face boundary lines
    3  weight 1/(9c) on each corner-cycle edge (requires c)
    4  weight 1/n^2 on every edge

    Components 1..3 total exactly n; component 4 totals n + 3 + 2/n.
    """
    return _from_support(g, *_component_terms(index, g, c))


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
    return _from_support(g, den, fill, extra)
