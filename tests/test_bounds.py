"""Cost floors, the parameter optimizer, and the limitation certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexcut import (
    GapParams,
    build_graph,
    combine,
    corner_caps,
    cost,
    isolate_terminals,
    limitation_min,
    limitation_ratio,
    limitation_sup,
    midlines_extended,
    nonopposite_cost_floor,
    optimal_params_for_c,
    optimize_params,
)
from simplexcut.bounds import _certificate_cut_min
from simplexcut.lattice import cap_depth

TUNED_ASYMPTOTIC_BOUND = Fraction(667213783, 555937500)  # ~1.2001597


def _random_params(rng: random.Random) -> GapParams:
    raw = [rng.randint(0, 20) for _ in range(4)]
    while sum(raw) == 0:
        raw = [rng.randint(0, 20) for _ in range(4)]
    total = sum(raw)
    lam = [Fraction(r, total) for r in raw]
    c = Fraction(rng.randint(1, 35), 72)
    return GapParams(*lam, c=c)


def test_floor_pure_face_asymptotic():
    ft = nonopposite_cost_floor(GapParams(1, 0, 0, 0, Fraction(1, 4)))
    assert (ft.term_i, ft.term_ii, ft.bound) == (
        Fraction(6, 5),
        Fraction(6, 5),
        Fraction(6, 5),
    )
    assert ft.regime == "asymptotic"


def test_floor_pure_lines_asymptotic():
    ft = nonopposite_cost_floor(GapParams(0, 1, 0, 0, Fraction(1, 4)))
    assert (ft.term_i, ft.term_ii, ft.bound) == (Fraction(1), Fraction(2), Fraction(1))


def test_floor_tuned_asymptotic_frozen():
    ft = nonopposite_cost_floor(GapParams.tuned())
    assert ft.term_i == Fraction(750103, 625000)
    assert ft.term_ii == TUNED_ASYMPTOTIC_BOUND
    assert ft.bound == TUNED_ASYMPTOTIC_BOUND


def test_floor_finite_corrections():
    ft = nonopposite_cost_floor(GapParams(1, 0, 0, 0, Fraction(1, 4)), n=10)
    assert (ft.term_i, ft.term_ii, ft.bound) == (
        Fraction(11, 10),
        Fraction(19, 20),
        Fraction(19, 20),
    )
    assert ft.regime == "finite"
    assert ft.n == 10


def test_floor_regime_flags():
    p = GapParams.tuned()
    assert nonopposite_cost_floor(p).regime == "asymptotic"
    assert nonopposite_cost_floor(p, n=10).regime == "finite"
    assert nonopposite_cost_floor(p, n=9).regime == "out-of-regime"


def test_inner_min_equals_alpha_grid():
    # the inner objectives are linear in the cap fraction, so the exact
    # endpoint minimum must equal a dense-grid minimum
    rng = random.Random(20260815)
    grid = [Fraction(i, 200) for i in range(201)]
    for _ in range(100):
        p = _random_params(rng)
        lam1, lam2, lam3, lam4 = p.lams()
        c = p.c
        inner_i = min(lam1 / 5, Fraction(3, 2) * lam4)
        seg_i = min(
            (1 - a) * (lam1 / 5) + a * (Fraction(3, 2) * lam4) for a in grid
        )
        assert inner_i == seg_i
        inner_pair = min(c * c * lam1 / 5, Fraction(3, 2) * c * c * lam4)
        seg_pair = min(
            (1 - a) * (c * c * lam1 / 5) + a * (Fraction(3, 2) * c * c * lam4)
            for a in grid
        )
        assert inner_pair == seg_pair
        ft = nonopposite_cost_floor(p)
        assert ft.term_i == lam2 + Fraction(6, 5) * lam1 + inner_i
        assert ft.term_ii == 2 * lam2 + Fraction(6, 5) * lam1 + 3 * min(
            Fraction(2, 9) * lam3 / c, inner_pair
        )


def test_floor_never_exceeds_limitation():
    rng = random.Random(987654321)
    for _ in range(100):
        p = _random_params(rng)
        bound = nonopposite_cost_floor(p).bound
        cert = limitation_min(p)
        assert bound <= cert + Fraction(1, 10**12)


def test_optimizer_deterministic():
    a_params, a_bound = optimize_params()
    b_params, b_bound = optimize_params()
    assert a_params == b_params
    assert a_bound == b_bound


def test_optimizer_hits_tuned_constants():
    params, bound = optimize_params()
    assert abs(bound - Fraction(120016, 100000)) <= Fraction(1, 10**5)
    assert params.c == Fraction(593, 8000)
    tuned = GapParams.tuned()
    for got, want in zip(params.lams(), tuned.lams()):
        assert abs(got - want) <= Fraction(1, 1000)


def test_optimizer_lambda3_zero_ridge():
    params, bound = optimize_params(lambda3_zero=True)
    assert params.lam3 == 0
    assert bound == Fraction(6, 5)
    assert bound <= Fraction(12, 10) + Fraction(1, 10**9)


def test_reduction_matches_direct_floor():
    for c in (Fraction(1, 16), Fraction(593, 8000), Fraction(1, 9)):
        params = optimal_params_for_c(c)
        ft = nonopposite_cost_floor(params)
        assert ft.bound == (
            (Fraction(8, 5) - Fraction(3, 5) * c * c)
            / (Fraction(4, 3) - Fraction(3, 5) * c * c + Fraction(9, 10) * c**3)
        )
        assert ft.term_i == ft.term_ii


def test_reduction_against_simplex_grid():
    # independent oracle for the closed-form reduction: a dense rational
    # lambda grid never beats it, and the grid argmax sits next to it
    c = Fraction(593, 8000)
    reduced = nonopposite_cost_floor(optimal_params_for_c(c)).bound
    step = 40
    best = None
    for a in range(step + 1):
        for b in range(step + 1 - a):
            for d in range(step + 1 - a - b):
                e = step - a - b - d
                lam = (
                    Fraction(a, step),
                    Fraction(b, step),
                    Fraction(d, step),
                    Fraction(e, step),
                )
                params = GapParams(*lam, c=c)
                bound = nonopposite_cost_floor(params).bound
                if best is None or bound > best[0]:
                    best = (bound, params)
    grid_max, grid_params = best
    assert grid_max <= reduced
    assert reduced - grid_max <= Fraction(1, 1000)
    ref = optimal_params_for_c(c)
    for got, want in zip(grid_params.lams(), ref.lams()):
        assert abs(got - want) <= Fraction(3, 1000)


def test_reduction_stationarity():
    # moving a small amount of mass between any two mixing weights never
    # improves the floor at the reduced optimum
    c = Fraction(593, 8000)
    ref = optimal_params_for_c(c)
    base = nonopposite_cost_floor(ref).bound
    eps = Fraction(1, 10**6)
    lams = ref.lams()
    for i in range(4):
        for j in range(4):
            if i == j or lams[i] < eps:
                continue
            moved = list(lams)
            moved[i] -= eps
            moved[j] += eps
            perturbed = nonopposite_cost_floor(GapParams(*moved, c=c)).bound
            assert perturbed <= base


def test_optimal_params_for_c_validation():
    with pytest.raises(ValueError):
        optimal_params_for_c(Fraction(0))
    with pytest.raises(ValueError):
        optimal_params_for_c(Fraction(1, 2))


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 2)])
def test_cap_depth_range_has_one_wording(c):
    message = f"cap depth out of range: {c}"
    with pytest.raises(ValueError, match=message):
        optimal_params_for_c(c)
    with pytest.raises(ValueError, match=message):
        GapParams(lam1=1, lam2=0, lam3=0, lam4=0, c=c)
    with pytest.raises(ValueError, match=message):
        cap_depth(c, 12)


def test_limitation_ratio_values():
    assert limitation_ratio(Fraction(0)) == Fraction(6, 5)
    c = Fraction(1, 16)
    expected = (3 - Fraction(9, 2) * c * c) / (
        Fraction(5, 2) - Fraction(9, 2) * c * c + Fraction(27, 4) * c**3
    )
    assert limitation_ratio(c) == expected
    with pytest.raises(ValueError):
        limitation_ratio(Fraction(1, 9))


def test_limitation_sup_constants():
    c_star, beta, upper = limitation_sup()
    assert Fraction(12, 10) <= beta <= upper <= Fraction(120067, 100000)
    assert abs(beta - Fraction(120067, 100000)) <= Fraction(1, 10**5)
    assert upper - beta < Fraction(1, 10**12)
    assert c_star == Fraction(74279, 1000000)
    assert beta == limitation_ratio(c_star)


def _poly(coeffs, c):
    return sum(a * c**i for i, a in enumerate(coeffs))


def _derivative(coeffs):
    return [i * a for i, a in enumerate(coeffs)][1:]


# each maximized function as N/D (coefficients from c^0 up), with the
# factorization N'D - ND' = const * c * (c^3 - a*c + b) on (0, end)
STATIONARY_CASES = {
    "floor": (
        lambda c: nonopposite_cost_floor(optimal_params_for_c(c)).bound,
        [Fraction(8, 5), 0, Fraction(-3, 5)],
        [Fraction(4, 3), 0, Fraction(-3, 5), Fraction(9, 10)],
        (Fraction(27, 50), 8, Fraction(16, 27)),
        Fraction(1, 2),
    ),
    "ratio": (
        limitation_ratio,
        [3, 0, Fraction(-9, 2)],
        [Fraction(5, 2), 0, Fraction(-9, 2), Fraction(27, 4)],
        (Fraction(243, 8), 2, Fraction(4, 27)),
        Fraction(1, 9),
    ),
}


@pytest.mark.parametrize("name", list(STATIONARY_CASES))
def test_stationary_cubic_factorization(name):
    f, num, den, (const, a, b), end = STATIONARY_CASES[name]
    rng = random.Random(name)
    for _ in range(20):
        c = end * Fraction(rng.randint(1, 10**6 - 1), 10**6)
        n_c, d_c = _poly(num, c), _poly(den, c)
        assert f(c) == n_c / d_c
        slope = _poly(_derivative(num), c) * d_c - n_c * _poly(_derivative(den), c)
        assert slope == const * c * (c**3 - a * c + b)
        if name == "ratio":
            # limitation_sup's upper bound needs N and D positive and decreasing
            assert n_c > 0 and d_c > 0
            assert _poly(_derivative(num), c) < 0 and _poly(_derivative(den), c) < 0


def _plain_scan(f, end, steps=2000):
    """Reference oracle: f at end*i/steps for 0 < i < steps, first maximum."""
    points = (end * Fraction(i, steps) for i in range(1, steps))
    return max(((t, f(t)) for t in points), key=lambda pair: pair[1])


def test_stationary_points_against_plain_scan():
    f, *_rest, end = STATIONARY_CASES["floor"]
    t, best = _plain_scan(f, end)
    params, bound = optimize_params()
    assert best <= bound
    assert abs(t - params.c) <= end / 2000
    f, *_rest, end = STATIONARY_CASES["ratio"]
    t, best = _plain_scan(f, end)
    c_star, _beta, upper = limitation_sup()
    assert best <= upper
    assert abs(t - c_star) <= end / 2000


def test_lambda3_zero_against_simplex_grid():
    # without the cycle component no composition of 40 beats the crossing
    # point optimize_params(lambda3_zero=True) computes, and one attains it
    params, bound = optimize_params(lambda3_zero=True)
    assert params.lam1 == Fraction(3, 4)
    step = 40
    best = max(
        nonopposite_cost_floor(GapParams(*(Fraction(x, step) for x in lams), c=params.c)).bound
        for a in range(step + 1)
        for b in range(step + 1 - a)
        for lams in [(a, b, 0, step - a - b)]
    )
    assert best == bound


def test_limitation_asymptotic_claims():
    rng = random.Random(31415926)
    for _ in range(60):
        p = _random_params(rng)
        value = limitation_min(p)
        if p.c >= Fraction(1, 9):
            assert value <= Fraction(6, 5)
        else:
            assert value <= Fraction(120067, 100000)
    # at the tuned optimum the floor is tight against the cheapest
    # certificate cut, so this equals the headline constant up to rounding
    tuned = limitation_min(GapParams.tuned())
    assert tuned == TUNED_ASYMPTOTIC_BOUND
    assert abs(tuned - Fraction(120016, 100000)) <= Fraction(1, 10**5)
    assert tuned <= Fraction(120067, 100000)


def _limitation_min_reference(params):
    # the three certificate-cut formulas in Fraction arithmetic
    lam1, lam2, lam3, lam4 = params.lams()
    c = params.c
    values = [
        Fraction(6, 5) * lam1 + lam2 + Fraction(3, 2) * lam4,
        Fraction(6, 5) * lam1 + 2 * lam2 + Fraction(2, 3) / c * lam3,
    ]
    if c < Fraction(1, 9):
        values.append(Fraction(6, 5) * lam1 + 2 * lam2 + Fraction(9, 2) * c * c * lam4)
    return min(values)


_WEIGHT = st.fractions(min_value=0, max_value=5, max_denominator=40)
_DEPTH = st.one_of(
    st.just(Fraction(1, 9)),
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=200),
).filter(lambda c: 0 < c < Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(_WEIGHT, min_size=4, max_size=4).filter(any), _DEPTH)
@example([Fraction(0), Fraction(0), Fraction(1), Fraction(0)], Fraction(1, 9))
@example([Fraction(1), Fraction(0), Fraction(0), Fraction(3)], Fraction(1, 9))
@example([Fraction(1), Fraction(0), Fraction(0), Fraction(3)], Fraction(1, 10))
@example([Fraction(0), Fraction(0), Fraction(0), Fraction(1)], Fraction(499, 1000))
def test_limitation_min_matches_fraction_formulas(raw, c):
    total = sum(raw)
    params = GapParams(*(x / total for x in raw), c=c)
    assert limitation_min(params) == _limitation_min_reference(params)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 10**6), min_size=4, max_size=4).filter(any),
    st.integers(1, 50),
    _DEPTH,
    st.integers(1, 12),
)
@example([0, 0, 1, 0], 1, Fraction(1, 9), 1)
@example([1, 0, 0, 3], 1, Fraction(1, 10), 8)
def test_certificate_cut_core_is_limitation_min_scaled(nums, spread, c, k):
    # integer weights over any common denominator d (not only the least)
    # and c as any p/q (not only in lowest terms): the core over
    # 30 d p q^2 is the minimum of the three formulas
    d = sum(nums) * spread
    a1, a2, a3, a4 = (a * spread for a in nums)
    p, q = k * c.numerator, k * c.denominator
    params = GapParams(*(Fraction(a, d) for a in (a1, a2, a3, a4)), c=c)
    scaled = Fraction(_certificate_cut_min(a1, a2, a3, a4, p, q), 30 * d * p * q * q)
    assert scaled == _limitation_min_reference(params)


@pytest.mark.parametrize("n", [39, 78])
def test_limitation_finite_matches_formulas(n):
    # the three certificate-cut formulas against the directly priced cuts,
    # with every 1/n correction stated exactly
    c = Fraction(1, 13)
    params = GapParams.tuned(c=c)
    lam1, lam2, lam3, lam4 = params.lams()
    g = build_graph(4, n)
    w = combine(params, g)
    six_fifths = Fraction(6, 5)
    cases = [
        (
            midlines_extended(g),
            six_fifths * lam1 + lam2 + Fraction(3, 2) * lam4,
            Fraction(3, 5 * n) * lam1 + lam4 * (Fraction(7, 2 * n) + Fraction(1, n * n)),
        ),
        (
            isolate_terminals(g),
            six_fifths * lam1 + 2 * lam2 + Fraction(2, 3) / c * lam3,
            Fraction(12, n * n) * lam4,
        ),
        (
            corner_caps(g, c),
            six_fifths * lam1 + 2 * lam2 + Fraction(9, 2) * c * c * lam4,
            lam4 * (Fraction(27, 2) * c / n + Fraction(12, n * n)),
        ),
    ]
    for p, formula, correction in cases:
        actual = cost(p, w)
        assert actual == formula + correction
    assert limitation_min(params, n=n) == min(
        cost(p, w) for p, _f, _c in cases
    )


def test_gap_report_consistency():
    # the certificate cuts are genuine cuts, so at a finite-regime n the
    # cheapest of them sits at or above the finite floor
    params = GapParams.tuned(c=Fraction(1, 3))
    floor = nonopposite_cost_floor(params, n=12)
    assert floor.regime == "finite"
    assert limitation_min(params, n=12) >= floor.bound
