"""Closed-form cost floors, the certificate-cut limitation, and the exact
stationary points behind both headline constants.

Everything here is exact rational arithmetic.  The two-term cost floor is
linear in its inner trade-off variable, so the inner minimizations are
solved at interval endpoints.  Both headline constants maximize a ratio
of polynomials in the cap depth c whose derivative vanishes at the one
root of a cubic in the search interval (_stationary_point): the certified
floor, after reducing the mixture weights along the stationarity
relations (optimize_params), and the certificate-cut ceiling
(limitation_sup).  The root is bisected exactly; each constant is the
exact value at the root rounded to six decimals, and the ceiling also
gets an upper bound from the root's isolating interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cuts import corner_caps, cost, isolate_terminals, midlines_extended
from .instances import GapParams, check_resolution, combine
from .lattice import build_graph

_SIX_FIFTHS = Fraction(6, 5)
_ONE_FIFTH = Fraction(1, 5)
_THREE_HALVES = Fraction(3, 2)

FINITE_REGIME_MIN_N = 10
_WITNESS_DIGITS = 6  # the precision GapParams.tuned is frozen at
_ROOT_WIDTH = Fraction(1, 10**12)


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
        raise ValueError(f"cap depth out of range: {c}")
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


def _stationary_point(a: Fraction, b: Fraction, hi: Fraction):
    """The one root of c^3 - a*c + b in (0, hi), isolated exactly.

    The cubic is positive at 0, negative at hi and strictly decreasing in
    between (3c^2 < a there), so bisection keeps the root in [lo, up]
    until the interval is narrower than 10^-12.  Returns (witness, lo, up)
    where the witness is the root rounded half-even to six decimals; every
    point of [lo, up] rounds to it.
    """
    cubic = lambda c: c * c * c - a * c + b
    lo, up = Fraction(0), hi
    assert cubic(lo) > 0 > cubic(up) and 3 * up * up < a
    while up - lo >= _ROOT_WIDTH:
        mid = (lo + up) / 2
        if cubic(mid) > 0:
            lo = mid
        else:
            up = mid
    witness = round(lo, _WITNESS_DIGITS)
    assert round(up, _WITNESS_DIGITS) == witness, (lo, up)
    return witness, lo, up


def optimize_params(lambda3_zero: bool = False) -> tuple[GapParams, Fraction]:
    """Maximize the asymptotic floor at its exact stationary point.

    Over the cap depth c in (0, 1/2), each c taking the mixture of
    optimal_params_for_c, the floor is N/D with N = 8/5 - 3c^2/5 and
    D = 4/3 - 3c^2/5 + 9c^3/10, and N'D - ND' = (27/50) c (c^3 - 8c + 16/27).
    The maximizer is that cubic's one root in (0, 1/2); the witness is the
    root rounded to six decimals.

    With lambda3_zero the cycle component is dropped.  On lam1 in
    [0, 15/17] both floor terms are then linear in lam1, one rising and
    one falling, so the optimum is where they cross; past 15/17 lam2 = 0
    and term (ii) is 6 lam1/5 < 6/5.  Returns the mixture and its exact
    bound.
    """
    if lambda3_zero:
        end = Fraction(15, 17)
        gap = []
        for t in (Fraction(0), end):
            ft = nonopposite_cost_floor(_constrained_params(t))
            gap.append(ft.term_i - ft.term_ii)
        params = _constrained_params(end * gap[0] / (gap[0] - gap[1]))
    else:
        witness, _lo, _up = _stationary_point(Fraction(8), Fraction(16, 27), Fraction(1, 2))
        params = optimal_params_for_c(witness)
    return params, nonopposite_cost_floor(params).bound


def _certificate_cut_min(a1: int, a2: int, a3: int, a4: int, p: int, q: int) -> int:
    """Cheapest asymptotic certificate cut for weights a_i/d and c = p/q,
    as an integer scaled by 30 d p q^2.

    The three formulas are
      6/5 l1 + l2 + 3/2 l4,
      6/5 l1 + 2 l2 + 2/(3c) l3,
      6/5 l1 + 2 l2 + 9/2 c^2 l4   (only for c < 1/9).
    With l_i = a_i/d and c = p/q, multiplying each by 30 d p q^2 leaves
      (36 a1 + 30 a2 + 45 a4) p q^2,
      (36 a1 + 60 a2) p q^2 + 20 a3 q^3,
      (36 a1 + 60 a2) p q^2 + 135 a4 p^3   (only for 9p < q),
    so callers take minima and maxima on integers and divide once.
    """
    pqq = p * q * q
    shared = (36 * a1 + 60 * a2) * pqq
    best = min((36 * a1 + 30 * a2 + 45 * a4) * pqq, shared + 20 * a3 * q * q * q)
    if 9 * p < q:
        best = min(best, shared + 135 * a4 * p * p * p)
    return best


def limitation_min(params: GapParams, n: int | None = None) -> Fraction:
    """Cheapest of the three certificate cuts; an upper bound on the floor.

    Asymptotically this is the exact minimum of the three cut-cost
    formulas (the corner-cap formula applies only for c < 1/9).  At finite
    n the three cuts are built and priced on the combined instance
    directly, so every 1/n correction is computed rather than estimated;
    that needs n divisible by 3 when lam1 > 0 and c*n integral.  Either
    way the value is the cost of one of three cuts, so it bounds the
    instance's non-opposite minimum from above and need not equal it.
    """
    if n is None:
        lams = params.lams()
        d = lcm(*(x.denominator for x in lams))
        a1, a2, a3, a4 = (x.numerator * (d // x.denominator) for x in lams)
        p, q = params.c.numerator, params.c.denominator
        return Fraction(_certificate_cut_min(a1, a2, a3, a4, p, q), 30 * d * p * q * q)
    c = params.c
    check_resolution(n, params.lams(), c)
    g = build_graph(4, n)
    w = combine(params, g)
    cuts = [midlines_extended(g), isolate_terminals(g)]
    if (c * n).denominator == 1:
        cuts.append(corner_caps(g, c))
    return min(cost(p, w) for p in cuts)


def _ratio_terms(c: Fraction) -> tuple[Fraction, Fraction]:
    """Numerator and denominator of limitation_ratio; both are positive and
    decreasing on (0, 1/9)."""
    num = 3 - Fraction(9, 2) * c * c
    den = Fraction(5, 2) - Fraction(9, 2) * c * c + Fraction(27, 4) * c * c * c
    return num, den


def limitation_ratio(c: Fraction) -> Fraction:
    """Best certified floor per unit of certificate-cut cost at cap depth c.

    Defined for 0 <= c < 1/9, where all three certificate cuts price at
    their asymptotic formulas.
    """
    c = Fraction(c)
    if not (0 <= c < Fraction(1, 9)):
        raise ValueError("the ratio is defined for 0 <= c < 1/9")
    num, den = _ratio_terms(c)
    return num / den


def limitation_sup() -> tuple[Fraction, Fraction, Fraction]:
    """Largest floor any mixture can certify against the certificate cuts.

    Maximizes limitation_ratio = N/D over 0 <= c < 1/9, where
    N'D - ND' = (243/8) c (c^3 - 2c + 4/27); the maximizer is that cubic's
    one root there.  Returns (witness, value, upper): the root rounded to
    six decimals, the exact ratio there, and N(lo)/D(up) over
    the root's isolating interval [lo, up].  Since N and D are positive and
    decreasing, upper bounds the supremum, and value <= sup <= upper.
    """
    witness, lo, up = _stationary_point(Fraction(2), Fraction(4, 27), Fraction(1, 9))
    return witness, limitation_ratio(witness), _ratio_terms(lo)[0] / _ratio_terms(up)[1]
