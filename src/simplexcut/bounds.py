"""Closed-form cost floors, parameter optimization, and gap accounting.

Everything here is exact rational arithmetic.  The two-term cost floor is
linear in its inner trade-off variable, so the inner minimizations are
solved at interval endpoints; the optimizer walks a one-dimensional grid
over the cap depth c after reducing the mixture weights along the
stationarity relations, then refines locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cuts import corner_caps, cost, isolate_terminals, midlines_extended
from .instances import GapParams, WeightMap, combine
from .lattice import build_graph

_SIX_FIFTHS = Fraction(6, 5)
_ONE_FIFTH = Fraction(1, 5)
_THREE_HALVES = Fraction(3, 2)

REGIMES = ("asymptotic", "finite", "out-of-regime")
FINITE_REGIME_MIN_N = 10


@dataclass(frozen=True)
class FloorTerms:
    """The two floor terms, their minimum, and the regime the numbers live in."""

    term_i: Fraction
    term_ii: Fraction
    bound: Fraction
    regime: str
    n: int | None = None


def nonopposite_cost_floor(params: GapParams, n: int | None = None) -> FloorTerms:
    """Two-term lower bound on the cost of any non-opposite cut of the
    combined instance.

    Term (i) covers cuts that leave every trade-off corner intact; term
    (ii) covers cuts entering a corner, where each of the three corners
    either pays its cycle weight or a scaled copy of the face floor.  The
    inner trade-offs are linear, hence evaluated at endpoints.  With
    n=None the 1/n corrections are dropped; finite n below 10 is computed
    anyway and flagged "out-of-regime".
    """
    lam1, lam2, lam3, lam4 = params.lams()
    c = params.c
    if n is None:
        regime = "asymptotic"
        corr_i = Fraction(0)
        corr_ii = Fraction(0)
    else:
        if n < 1:
            raise ValueError("n must be a positive integer")
        regime = "finite" if n >= FINITE_REGIME_MIN_N else "out-of-regime"
        corr_i = Fraction(1, n)
        corr_ii = Fraction(5, 2 * n)
    inner_i = min(_ONE_FIFTH * lam1, _THREE_HALVES * lam4)
    term_i = lam2 + (_SIX_FIFTHS - corr_i) * lam1 + inner_i
    inner_ii = min(
        2 * lam3 / (9 * c),
        _ONE_FIFTH * c * c * lam1,
        _THREE_HALVES * c * c * lam4,
    )
    term_ii = 2 * lam2 + (_SIX_FIFTHS - corr_ii) * lam1 + 3 * inner_ii
    return FloorTerms(
        term_i=term_i,
        term_ii=term_ii,
        bound=min(term_i, term_ii),
        regime=regime,
        n=n,
    )


def optimal_params_for_c(c: Fraction) -> GapParams:
    """Mixture weights equalizing both floor terms at a given cap depth c."""
    c = Fraction(c)
    if not (0 < c < Fraction(1, 2)):
        raise ValueError("the cap depth must lie strictly between 0 and 1/2")
    den = Fraction(4, 3) - Fraction(3, 5) * c * c + Fraction(9, 10) * c * c * c
    lam1 = 1 / den
    lam2 = (Fraction(1, 5) - Fraction(3, 5) * c * c) * lam1
    lam3 = Fraction(9, 10) * c * c * c * lam1
    lam4 = Fraction(2, 15) * lam1
    return GapParams(lam1=lam1, lam2=lam2, lam3=lam3, lam4=lam4, c=c)


def _constrained_params(lam1: Fraction) -> GapParams:
    """Best three-component mixture (no cycle weight) for a given lam1."""
    lam4 = min(Fraction(2, 15) * lam1, 1 - lam1)
    lam2 = 1 - lam1 - lam4
    # c is inert once lam3 = 0; any legal value serves
    return GapParams(lam1=lam1, lam2=lam2, lam3=Fraction(0), lam4=lam4, c=Fraction(1, 4))


@dataclass(frozen=True)
class OptimizeConfig:
    coarse_steps: int = 2000
    refine_rounds: int = 3
    refine_factor: int = 10
    force_lambda3_zero: bool = False
    candidates: tuple[GapParams, ...] = ()

    def __post_init__(self):
        if self.coarse_steps == 1 or self.coarse_steps < 0:
            raise ValueError("the coarse grid needs at least two steps (or zero to skip)")
        if self.refine_rounds < 0 or self.refine_factor < 2:
            raise ValueError("degenerate optimizer configuration")
        if self.coarse_steps == 0 and not self.candidates:
            raise ValueError("nothing to search: no grid and no candidates")


def optimize_params(config: OptimizeConfig | None = None) -> tuple[GapParams, Fraction]:
    """Maximize the asymptotic floor; deterministic for a fixed config.

    Explicit candidates are scored first (first maximum wins ties), then a
    grid over the cap depth c in (0, 1/2) with local refinement; with
    force_lambda3_zero the grid runs over lam1 with the cycle component
    dropped.  Returns the incumbent and its exact bound.
    """
    if config is None:
        config = OptimizeConfig()

    best_params: GapParams | None = None
    best_bound: Fraction | None = None

    def consider(params: GapParams) -> None:
        nonlocal best_params, best_bound
        bound = nonopposite_cost_floor(params).bound
        if best_bound is None or bound > best_bound:
            best_params, best_bound = params, bound

    for params in config.candidates:
        consider(params)

    if config.coarse_steps > 0:
        if config.force_lambda3_zero:
            lo, hi = Fraction(0), Fraction(1)
            make = _constrained_params
        else:
            lo, hi = Fraction(0), Fraction(1, 2)
            make = optimal_params_for_c

        def scan(center_lo: Fraction, center_hi: Fraction, step: Fraction) -> Fraction:
            best_t = None
            best_here = None
            t = center_lo
            while t <= center_hi:
                if lo < t < hi or (config.force_lambda3_zero and t == lo):
                    value = nonopposite_cost_floor(make(t)).bound
                    if best_here is None or value > best_here:
                        best_here, best_t = value, t
                t += step
            assert best_t is not None
            return best_t

        step = (hi - lo) / config.coarse_steps
        center = scan(lo + step, hi - step, step)
        for _ in range(config.refine_rounds):
            fine = step / config.refine_factor
            center = scan(center - step, center + step, fine)
            step = fine
        consider(make(center))

    assert best_params is not None and best_bound is not None
    return best_params, best_bound


def limitation_min(params: GapParams, n: int | None = None) -> Fraction:
    """Cheapest of the three certificate cuts; an upper bound on the floor.

    Asymptotically this is the exact minimum of the three cut-cost
    formulas (the corner-cap formula applies only for c < 1/9).  At finite
    n the three cuts are built and priced on the combined instance
    directly, so every 1/n correction is computed rather than estimated;
    that needs n divisible by 3 when lam1 > 0 and c*n integral.
    """
    lam1, lam2, lam3, lam4 = params.lams()
    c = params.c
    if n is None:
        values = [
            _SIX_FIFTHS * lam1 + lam2 + _THREE_HALVES * lam4,
            _SIX_FIFTHS * lam1 + 2 * lam2 + Fraction(2, 3) / c * lam3,
        ]
        if c < Fraction(1, 9):
            values.append(_SIX_FIFTHS * lam1 + 2 * lam2 + Fraction(9, 2) * c * c * lam4)
        return min(values)
    g = build_graph(4, n)
    w = combine(params, g)
    cuts = [midlines_extended(g), isolate_terminals(g)]
    if (c * n).denominator == 1:
        cuts.append(corner_caps(g, c))
    return min(cost(p, w) for p in cuts)


def limitation_ratio(c: Fraction) -> Fraction:
    """Best certified floor per unit of certificate-cut cost at cap depth c.

    Defined for 0 <= c < 1/9, where all three certificate cuts price at
    their asymptotic formulas.
    """
    c = Fraction(c)
    if not (0 <= c < Fraction(1, 9)):
        raise ValueError("the ratio is defined for 0 <= c < 1/9")
    num = 3 - Fraction(9, 2) * c * c
    den = Fraction(5, 2) - Fraction(9, 2) * c * c + Fraction(27, 4) * c * c * c
    return num / den


def limitation_sup(
    steps: int = 2000, refine_rounds: int = 3, refine_factor: int = 10
) -> tuple[Fraction, Fraction]:
    """Largest floor any mixture can certify against the certificate cuts.

    Maximizes (3 - 9c^2/2) / (5/2 - 9c^2/2 + 27c^3/4) over 0 <= c < 1/9 by
    dense grid plus local refinement; the incumbent never decreases as the
    grid refines.
    """
    if steps < 2 or refine_rounds < 0 or refine_factor < 2:
        raise ValueError("degenerate grid configuration")
    hi = Fraction(1, 9)
    value = limitation_ratio
    best_c = Fraction(0)
    best_v = value(best_c)

    def scan(center_lo: Fraction, center_hi: Fraction, step: Fraction) -> None:
        nonlocal best_c, best_v
        t = max(center_lo, Fraction(0))
        while t <= center_hi:
            if t < hi:
                v = value(t)
                if v > best_v:
                    best_v, best_c = v, t
            t += step
    step = hi / steps
    scan(Fraction(0), hi - step, step)
    for _ in range(refine_rounds):
        fine = step / refine_factor
        scan(best_c - step, best_c + step, fine)
        step = fine
    return best_c, best_v


def relaxation_gap(
    total_weight: Fraction, min_nonopposite_cost: Fraction, n: int
) -> Fraction:
    """Density accounting: certified cut cost against the relaxation value.

    The identity embedding prices the instance at total_weight/n, so a
    floor of min_nonopposite_cost on every non-opposite cut certifies a
    gap of min_nonopposite_cost * n / total_weight.
    """
    if total_weight <= 0:
        raise ValueError("total weight must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return Fraction(min_nonopposite_cost) * n / Fraction(total_weight)


def embedding_cost(w: WeightMap) -> Fraction:
    """Relaxation value of the identity embedding: every edge is a unit
    move between two coordinates, so it costs 1/n per unit of weight."""
    return w.total() / w.graph.n


@dataclass(frozen=True)
class GapReport:
    params: GapParams
    n: int
    term_i: Fraction
    term_ii: Fraction
    bound: Fraction
    regime: str
    lp_value: Fraction
    certified_cuts: tuple[tuple[str, Fraction], ...]
    gap_estimate: Fraction


def build_gap_report(params: GapParams, n: int) -> GapReport:
    """Price the combined instance at finite n and assemble the ledger:
    floor terms, identity-embedding value, priced certificate cuts, and
    the density-normalized gap estimate."""
    g = build_graph(4, n)
    w = combine(params, g)
    floor = nonopposite_cost_floor(params, n=n)
    certified = [
        ("midlines-ext", cost(midlines_extended(g), w)),
        ("isolate-terminals", cost(isolate_terminals(g), w)),
    ]
    if (params.c * n).denominator == 1:
        certified.append(("corner-caps", cost(corner_caps(g, params.c), w)))
    total = w.total()
    return GapReport(
        params=params,
        n=n,
        term_i=floor.term_i,
        term_ii=floor.term_ii,
        bound=floor.bound,
        regime=floor.regime,
        lp_value=embedding_cost(w),
        certified_cuts=tuple(certified),
        gap_estimate=relaxation_gap(total, floor.bound, n),
    )
