"""Closed-form cost floors, the certificate-cut limitation, and one grid
maximizer for both headline constants.

Everything here is exact rational arithmetic.  The two-term cost floor is
linear in its inner trade-off variable, so the inner minimizations are
solved at interval endpoints.  Both headline constants come from the same
one-dimensional grid search with tenfold local refinement (_grid_argmax):
the certified floor over the cap depth c after reducing the mixture
weights along the stationarity relations (optimize_params), and the
certificate-cut ceiling over c (limitation_sup).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cuts import corner_caps, cost, isolate_terminals, midlines_extended
from .instances import GapParams, combine
from .lattice import build_graph

_SIX_FIFTHS = Fraction(6, 5)
_ONE_FIFTH = Fraction(1, 5)
_THREE_HALVES = Fraction(3, 2)

REGIMES = ("asymptotic", "finite", "out-of-regime")
FINITE_REGIME_MIN_N = 10
GRID_STEPS = 2000
GRID_REFINE_ROUNDS = 3


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


def _grid_argmax(f, inside, lo: Fraction, hi: Fraction, steps: int, rounds: int):
    """The one grid maximizer behind both headline constants.

    Scores f at the points lo, lo + step, ..., hi (step = (hi - lo)/steps)
    where inside holds and keeps the first strict maximum; then, rounds
    times, rescans the two grid intervals around the incumbent at a
    tenth of the step.  The incumbent only changes on a strict increase,
    so refinement never lowers it.  Returns (argmax, f(argmax)).
    """
    if steps < 2:
        raise ValueError("the grid needs at least two steps")
    if rounds < 0:
        raise ValueError("the number of refinement rounds cannot be negative")
    best_t = best_v = None
    start, stop, step = lo, hi, (hi - lo) / steps
    for _ in range(rounds + 1):
        t = start
        while t <= stop:
            if inside(t):
                v = f(t)
                if best_v is None or v > best_v:
                    best_t, best_v = t, v
            t += step
        start, stop, step = best_t - step, best_t + step, step / 10
    return best_t, best_v


def optimize_params(
    steps: int = GRID_STEPS,
    refine_rounds: int = GRID_REFINE_ROUNDS,
    lambda3_zero: bool = False,
) -> tuple[GapParams, Fraction]:
    """Maximize the asymptotic floor with the shared grid maximizer.

    The grid runs over the cap depth c in (0, 1/2), each c taking the
    mixture of optimal_params_for_c; with lambda3_zero it runs over lam1
    in [0, 1) with the cycle component dropped.  Deterministic; returns
    the incumbent and its exact bound.
    """
    # lam1 = 0 is a legal mixture, while c = 0 is no cap depth
    if lambda3_zero:
        make, hi = _constrained_params, Fraction(1)
        inside = lambda t: 0 <= t < hi
    else:
        make, hi = optimal_params_for_c, Fraction(1, 2)
        inside = lambda t: 0 < t < hi
    t, bound = _grid_argmax(
        lambda t: nonopposite_cost_floor(make(t)).bound,
        inside,
        Fraction(0),
        hi,
        steps,
        refine_rounds,
    )
    return make(t), bound


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


def limitation_sup() -> tuple[Fraction, Fraction]:
    """Largest floor any mixture can certify against the certificate cuts.

    Maximizes (3 - 9c^2/2) / (5/2 - 9c^2/2 + 27c^3/4) over 0 <= c < 1/9
    with the shared grid maximizer at the default grid of optimize_params.
    A grid point is a lower estimate of the supremum.
    """
    hi = Fraction(1, 9)
    return _grid_argmax(
        limitation_ratio,
        lambda c: 0 <= c < hi,
        Fraction(0),
        hi,
        GRID_STEPS,
        GRID_REFINE_ROUNDS,
    )
