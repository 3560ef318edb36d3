"""Reproduction suites: every headline number and desk-scale sweep.

Each check pins an expected value, computes it from scratch, and records
tolerance, regime, and provenance (formula, enumeration, max-flow,
direct-evaluation, or stationary-point).  The checks are declared in one
table, CHECKS, which lists each criterion's checks under its name; suites
group the criteria ("all" runs everything).
run_criterion is the one runner: it hands every check the same labeling
budget, times every check on its own, and a check that runs out of its
labeling budget reports "budget-exhausted" instead of a silent partial answer.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Callable

from .bounds import _certificate_cut_min, limitation_sup, nonopposite_cost_floor, optimize_params
from .cuts import (
    CutLabeling,
    corner_caps,
    cost,
    delta,
    isolate_terminals,
    midlines,
    reachable_labels,
    terminal_ball,
)
from .errors import BudgetExceededError
from .instances import GapParams, WeightMap, build_base_triangle, build_component, combine
from .io import (
    emit_instance_dimacs,
    emit_instance_json,
    parse_instance,
    render_decimal,
)
from .lattice import build_graph, family_choices, family_size
from .search import (
    DEFAULT_LABELING_BUDGET,
    SearchBudget,
    _price,
    _weighted_edges,
    _within_budget,
    enumerate_non_opposite,
    min_non_opposite_cost,
    min_terminal_face_cut,
)
from .sperner import (
    count_floors,
    cut_size_floor,
    exhaustive_extremal,
    monochromatic_upper_bound,
    verdicts,
)

PROVENANCES = ("formula", "enumeration", "max-flow", "direct-evaluation", "stationary-point")


@dataclass(frozen=True)
class CheckResult:
    id: str
    criterion: str
    description: str
    expected: str
    computed: str
    tolerance: str | None
    regime: str | None
    provenance: str
    passed: bool
    elapsed_s: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunReport:
    command: str
    parameters: dict
    checks: tuple[CheckResult, ...]
    passed: bool
    elapsed_s: float

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "checks": [c.as_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class Check:
    """One entry of the check table.

    compute(budget) returns the computed value as text and whether the
    check passed.  budget is the labeling budget every search of the check
    runs under; it never decides whether the check runs.
    """

    id: str
    description: str
    expected: str
    provenance: str
    compute: Callable[[int], tuple[str, bool]]
    tolerance: str | None = None
    regime: str | None = None

    def __post_init__(self):
        assert self.provenance in PROVENANCES, (self.id, self.provenance)


def _show(values) -> str:
    return str(tuple(map(str, values)))


def _all_equal(ok: bool) -> tuple[str, bool]:
    return "all equal" if ok else "mismatch", ok


# -- optimizer --------------------------------------------------------------

_FLOOR = Fraction("1.20016")


def _optimizer_bound(budget):
    _params, bound = optimize_params()
    return render_decimal(bound), abs(bound - _FLOOR) <= Fraction(1, 100000)


def _optimizer_cap_depth(budget):
    params, _bound = optimize_params()
    return render_decimal(params.c), abs(params.c - GapParams.tuned().c) <= Fraction(1, 1000)


def _optimizer_weights(budget):
    params, _bound = optimize_params()
    deviation = max(abs(a - b) for a, b in zip(params.lams(), GapParams.tuned().lams()))
    return render_decimal(deviation), deviation <= Fraction(1, 10**6)


# -- limitation -------------------------------------------------------------

_CEILING = Fraction("1.20067")
_GRID_SPAN = 10  # mixture weights are multiples of 1/10
_GRID_RADII = 35  # cap depths j/72 for j = 1..35
_GRID_POINTS = comb(_GRID_SPAN + 3, 3) * _GRID_RADII
_NO_CYCLE_POINTS = comb(_GRID_SPAN + 2, 2)


def _grid_weights(lam3_zero: bool) -> list[tuple[int, int, int, int]]:
    """The grid's mixtures as numerators (a1, a2, a3, a4) over _GRID_SPAN:
    every composition of _GRID_SPAN into four parts, or with a3 = 0."""
    span = _GRID_SPAN
    return [
        (a, b, c3, span - a - b - c3)
        for a in range(span + 1)
        for b in range(span + 1 - a)
        for c3 in ((0,) if lam3_zero else range(span + 1 - a - b))
    ]


def _grid_depths(lam3_zero: bool) -> list[tuple[int, int]]:
    """The grid's cap depths as (p, q): j/72 for j = 1.._GRID_RADII, or 1/4
    alone, where c is inert since a3 = 0."""
    return [(1, 4)] if lam3_zero else [(j, 72) for j in range(1, _GRID_RADII + 1)]


def _grid_max(lam3_zero: bool) -> tuple[int, Fraction]:
    """The grid's point count and its largest certificate-cut minimum.

    At depth p/q every mixture shares the denominator
    30 * _GRID_SPAN * p * q^2, so each depth's maximum is taken on
    integers and divided once."""
    weights, depths = _grid_weights(lam3_zero), _grid_depths(lam3_zero)
    best = max(
        Fraction(max(_certificate_cut_min(*w, p, q) for w in weights), 30 * _GRID_SPAN * p * q * q)
        for p, q in depths
    )
    return len(weights) * len(depths), best


def _limitation_sup(budget):
    _c, beta, upper = limitation_sup()
    ok = (
        Fraction(6, 5) <= beta <= upper <= _CEILING
        and abs(beta - _CEILING) <= Fraction(1, 100000)
        and upper - beta < Fraction(1, 10**12)
    )
    return render_decimal(beta), ok


def _limitation_grid_max(budget):
    points, best = _grid_max(lam3_zero=False)
    ok = points == _GRID_POINTS and best <= _CEILING + Fraction(1, 10**9)
    return render_decimal(best, 12), ok


def _limitation_no_cycles(budget):
    points, best = _grid_max(lam3_zero=True)
    ok = points == _NO_CYCLE_POINTS and best <= Fraction(6, 5) + Fraction(1, 10**9)
    return render_decimal(best, 12), ok


# -- instance-totals --------------------------------------------------------


def _totals(build, sizes, total=lambda n: n):
    """A check that build(n) totals total(n) for each n in sizes.

    The table passes builds as lambdas, which look the package's
    functions up when they run, so a wrapper installed on this module
    (bench/spans.py installs one) sees every call.
    """
    return lambda budget: _all_equal(all(build(n).total() == total(n) for n in sizes))


def _combine_linear(budget):
    g = build_graph(4, 6)
    params = GapParams(
        lam1=Fraction(1, 2),
        lam2=Fraction(1, 4),
        lam3=Fraction(1, 8),
        lam4=Fraction(1, 8),
        c=Fraction(1, 3),
    )
    parts = {
        i: build_component(i, g, c=params.c if i == 3 else None) for i in (1, 2, 3, 4)
    }
    mixed = combine(params, g)
    ok = all(
        mixed.weight(e)
        == sum(lam * parts[i].weight(e) for i, lam in enumerate(params.lams(), start=1))
        for e in range(len(g.edges))
    )
    return "exact" if ok else "mismatch", ok


# -- named-cut-goldens ------------------------------------------------------

_ISOLATE_C = Fraction(1, 4)
_ISOLATE_PRICES = (Fraction(6, 5), Fraction(2), Fraction(2, 3) / _ISOLATE_C)
_CAPS_N, _CAPS_C = 40, Fraction(3, 40)
_CAPS_PRICES = (Fraction(2), Fraction(0), Fraction(6, 5))
_CAPS_UNIFORM = Fraction(9, 2) * _CAPS_C * _CAPS_C
_CAPS_ENVELOPE = Fraction(27, 2) * _CAPS_C / _CAPS_N + Fraction(12, _CAPS_N * _CAPS_N)


def _midlines(budget):
    ok, notes = True, []
    for n in (6, 12):
        w = build_base_triangle(n)
        edges = delta(midlines(w.graph))
        rho = Fraction(3, 5 * n)
        ok = ok and len(edges) == 2 * n + 1 and all(w.weight(e) == rho for e in edges)
        notes.append(f"n={n}: {len(edges)} edges")
    return "; ".join(notes), ok


def _isolate_terminals(budget):
    g = build_graph(4, 12)
    p = isolate_terminals(g)
    costs = (
        cost(p, build_component(1, g)),
        cost(p, build_component(2, g)),
        cost(p, build_component(3, g, c=_ISOLATE_C)),
    )
    return _show(costs), costs == _ISOLATE_PRICES


def _corner_caps(budget):
    g = build_graph(4, _CAPS_N)
    p = corner_caps(g, _CAPS_C)
    face_g = build_graph(4, 39)
    face_cost = cost(corner_caps(face_g, Fraction(1, 13)), build_component(1, face_g))
    costs = (
        cost(p, build_component(2, g)),
        cost(p, build_component(3, g, c=_CAPS_C)),
        face_cost,
    )
    return _show(costs), costs == _CAPS_PRICES


def _corner_caps_uniform(budget):
    g = build_graph(4, _CAPS_N)
    uniform_cost = cost(corner_caps(g, _CAPS_C), build_component(4, g))
    return str(uniform_cost), abs(uniform_cost - _CAPS_UNIFORM) <= _CAPS_ENVELOPE


# -- sperner-extremal -------------------------------------------------------


def _sperner_max(budget):
    ok, notes = True, []
    for k, n in ((3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2)):
        rep = exhaustive_extremal(k, n, max_labelings=budget)
        ok = ok and all(verdicts(rep).values())
        notes.append(f"({k},{n}): {rep.max_monochromatic}/{monochromatic_upper_bound(k, n)}")
    return "; ".join(notes), ok


def _sperner_face_restricted(budget):
    rep = exhaustive_extremal(4, 2, face_restricted=True, max_labelings=budget)
    worst = min(count - floor for _z, count, floor in count_floors(rep))
    return f"min margin {worst}", verdicts(rep)["count_floors"]


# -- cut-size-floor ---------------------------------------------------------


def _cut_size_sweep(budget):
    violations = 0

    def visit(p: CutLabeling) -> None:
        nonlocal violations
        if not cut_size_floor(p).ok:
            violations += 1

    seen = enumerate_non_opposite(4, 2, visitor=visit, max_labelings=budget)
    return f"{seen} cuts, {violations} violations", seen == 729 and violations == 0


def _cut_size_tight_family(budget):
    n = 12
    g = build_graph(4, n)
    ok, notes = True, []
    for alpha in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        fc = cut_size_floor(terminal_ball(g, alpha))
        slack = fc.cut_size - 3 * fc.alpha * n * n
        ok = ok and fc.ok and slack <= 4 * n
        notes.append(f"alpha={alpha}: slack {slack}")
    return "; ".join(notes), ok


# -- exhaustive-min-floor ---------------------------------------------------

_FACE_FLOOR = Fraction(6, 5) - Fraction(1, 3)
# nonopposite_cost_floor(GapParams.tuned(c=1/3), n=3), recomputed by the check
_COMBINED_FLOOR = Fraction(1072237, 1875000)
_COMBINED_REGIME = "out-of-regime"


def _certified_min(w: WeightMap, budget: int, mode: str) -> Fraction:
    """Minimum non-opposite cost of w, certified within the labeling budget."""
    res = min_non_opposite_cost(w, SearchBudget(max_labelings=budget, mode=mode))
    if not res.proven_optimal:
        raise BudgetExceededError("search stopped before certifying the minimum")
    return res.min_cost


def _exhaustive_min_face(budget):
    least = _certified_min(build_base_triangle(3), budget, "exhaustive")
    return str(least), least >= _FACE_FLOOR


def _exhaustive_min_combined(budget):
    params = GapParams.tuned(c=Fraction(1, 3))
    least = _certified_min(combine(params, build_graph(4, 3)), budget, "branch_and_bound")
    floor = nonopposite_cost_floor(params, n=3)
    ok = (
        (floor.bound, floor.regime) == (_COMBINED_FLOOR, _COMBINED_REGIME)
        and least >= floor.bound
    )
    return str(least), ok


# -- terminal-flow-floor ----------------------------------------------------


def _terminal_flow_floor(budget):
    margins = []
    for n in range(3, 31, 3):
        w = build_base_triangle(n)
        floor = Fraction(2, 5) - Fraction(1, 3 * n)
        margins.extend(min_terminal_face_cut(w, i) - floor for i in (1, 2, 3))
    worst = min(margins)
    return f"min margin {worst}", worst >= 0


# -- canonicalization -------------------------------------------------------


def _pinned(k: int, s: tuple[int, ...]) -> tuple[int, ...]:
    """Terminal-pinned maps: any of 1..k + 1, and a corner's own index."""
    return s if len(s) == 1 else tuple(range(1, k + 2))


def _relabel_sweep(w: WeightMap, budget: int, all_properties: bool) -> tuple[int, bool]:
    """(pinned maps seen, whether relabeling kept the properties on all).

    The maps are all labelings over [k+1] with terminals pinned (_pinned);
    when there are more than budget of them the sweep refuses before the
    first one.  Relabeling must shrink the cut-set and
    never raise the cost; with all_properties it must also keep the
    auxiliary count and be idempotent.  Every map is relabeled and tested,
    but q's validity, cut edges, cost, auxiliary count and idempotence are
    computed once per distinct relabeling q.  q's cut-set lies inside the
    map's when the map separates the endpoints of every edge q cuts.
    """
    g = w.graph
    aux = g.k + 1
    _within_budget(family_size(g.k, g.n, _pinned), budget)
    choices = family_choices(g, _pinned)
    for bound in (min, max):  # every map lies between these two, node by node
        CutLabeling(g, tuple(map(bound, choices)))
    weighted = _weighted_edges(w)
    facts: dict[tuple[int, ...], tuple] = {}
    count, ok = 0, True
    for labels in product(*choices):
        count += 1
        q = reachable_labels(g, labels)
        known = facts.get(q)
        if known is None:
            cut = [(g.tails[e], g.heads[e]) for e in delta(CutLabeling(g, q))]
            idempotent = not all_properties or reachable_labels(g, q) == q
            known = facts[q] = (cut, _price(weighted, q), q.count(aux), idempotent)
        cut, q_cost, q_aux, idempotent = known
        ok &= all(labels[u] != labels[v] for u, v in cut) and q_cost <= _price(weighted, labels)
        if all_properties:
            ok &= q_aux >= labels.count(aux) and idempotent
    return count, ok


def _canonicalization_sweep(budget):
    g = build_graph(3, 2)
    w = WeightMap(g, {e: Fraction(1, len(g.edges)) for e in range(len(g.edges))})
    count, ok = _relabel_sweep(w, budget, all_properties=True)
    return f"{count} maps, {'all hold' if ok else 'violation found'}", count == 64 and ok


def _canonicalization_face_cost(budget):
    count, ok = _relabel_sweep(build_base_triangle(3), budget, all_properties=False)
    return f"{count} maps, {'all hold' if ok else 'violation found'}", count == 4**7 and ok


# -- format-determinism -----------------------------------------------------


def _instances_for_roundtrip():
    yield "face", build_base_triangle(9), None, None
    g = build_graph(4, 5)
    yield "lines", build_component(2, g), None, None
    g = build_graph(4, 8)
    yield "cycles", build_component(3, g, c=Fraction(1, 4)), Fraction(1, 4), None
    yield "uniform", build_component(4, g), None, None
    params = GapParams.tuned(c=Fraction(1, 4))
    g = build_graph(4, 12)
    yield "combined", combine(params, g), params.c, params.lams()


def _format_determinism(budget):
    ok = True
    notes = []
    for tag, w, c, lam in _instances_for_roundtrip():
        js1 = emit_instance_json(w, tag=tag, c=c, lam=lam)
        js2 = emit_instance_json(w, tag=tag, c=c, lam=lam)
        dm1 = emit_instance_dimacs(w, tag=tag, c=c, lam=lam)
        dm2 = emit_instance_dimacs(w, tag=tag, c=c, lam=lam)
        if tag == "face":  # the n = 9 face, whose header is frozen
            p_line = next(line for line in dm1.splitlines() if line.startswith("p "))
        if js1 != js2 or dm1 != dm2:
            ok = False
            notes.append(f"{tag}: nondeterministic emission")
            continue
        pj = parse_instance(js1)
        pd = parse_instance(dm1)
        if pj.weights != pd.weights or pj.weights != w:
            ok = False
            notes.append(f"{tag}: cross-parse mismatch")
    if p_line != "p mwc 55 117 3":
        ok = False
        notes.append(f"unexpected header {p_line!r}")
    return "; ".join(notes) if notes else "all identical", ok


# -- the table --------------------------------------------------------------

CHECKS: dict[str, tuple[Check, ...]] = {
    "optimizer": (
        Check(
            "optimizer-bound",
            "default optimizer run certifies the headline floor",
            expected=render_decimal(_FLOOR, 5),
            provenance="stationary-point",
            compute=_optimizer_bound,
            tolerance="1/100000",
            regime="asymptotic",
        ),
        Check(
            "optimizer-cap-depth",
            "optimizer lands on the published cap depth",
            expected="0.074125",
            provenance="stationary-point",
            compute=_optimizer_cap_depth,
            tolerance="1/1000",
            regime="asymptotic",
        ),
        Check(
            "optimizer-weights",
            "optimizer lands on the published mixture weights",
            expected="max deviation <= 0.000001",
            provenance="stationary-point",
            compute=_optimizer_weights,
            tolerance="1/10^6",
            regime="asymptotic",
        ),
    ),
    "limitation": (
        Check(
            "limitation-sup",
            "largest certifiable floor against the three certificate cuts",
            expected=render_decimal(_CEILING, 5),
            provenance="stationary-point",
            compute=_limitation_sup,
            tolerance="1/100000",
            regime="asymptotic",
        ),
        Check(
            "limitation-grid",
            f"certificate-cut minimum on a {_GRID_POINTS}-point mixture grid",
            expected="<= 1.20067 + 1e-9",
            provenance="formula",
            compute=_limitation_grid_max,
            tolerance="1/10^9",
            regime="asymptotic",
        ),
        Check(
            "limitation-no-cycles",
            f"with the cycle component dropped, {_NO_CYCLE_POINTS} mixtures stay at or below 6/5",
            expected="<= 1.2 + 1e-9",
            provenance="formula",
            compute=_limitation_no_cycles,
            tolerance="1/10^9",
            regime="asymptotic",
        ),
    ),
    "instance-totals": (
        Check(
            "instance-totals-face",
            "face instance totals n for n in {3, 6, 9, 12}",
            expected="total == n",
            provenance="direct-evaluation",
            compute=_totals(lambda n: build_base_triangle(n), (3, 6, 9, 12)),
        ),
        Check(
            "instance-totals-lines",
            "boundary-lines instance totals n for n in 2..12",
            expected="total == n",
            provenance="direct-evaluation",
            compute=_totals(lambda n: build_component(2, build_graph(4, n)), range(2, 13)),
        ),
        Check(
            "instance-totals-cycles",
            "cycle instance totals n for n in 3..12 at cap depth 1/n",
            expected="total == n",
            provenance="direct-evaluation",
            compute=_totals(
                lambda n: build_component(3, build_graph(4, n), c=Fraction(1, n)), range(3, 13)
            ),
        ),
        Check(
            "instance-totals-uniform",
            "uniform instance totals n + 3 + 2/n for n in 2..12",
            expected="total == n + 3 + 2/n",
            provenance="direct-evaluation",
            compute=_totals(
                lambda n: build_component(4, build_graph(4, n)),
                range(2, 13),
                total=lambda n: n + 3 + Fraction(2, n),
            ),
        ),
        Check(
            "instance-totals-combine-linear",
            "combined weights equal the mixture of component weights edgewise",
            expected="exact linearity",
            provenance="direct-evaluation",
            compute=_combine_linear,
        ),
    ),
    "named-cut-goldens": (
        Check(
            "named-cut-midlines",
            "midline cut crosses 2n+1 face edges, each at weight 3/(5n)",
            expected="2n+1 edges at 3/(5n)",
            provenance="direct-evaluation",
            compute=_midlines,
        ),
        Check(
            "named-cut-isolate-terminals",
            "terminal-isolating cut prices 6/5, 2, 2/(3c) on the components",
            expected=_show(_ISOLATE_PRICES),
            provenance="direct-evaluation",
            compute=_isolate_terminals,
        ),
        Check(
            "named-cut-corner-caps",
            "corner-cap cut prices 2 on lines, 0 on cycles, and 6/5 on the face "
            "at the nearest resolution divisible by 3 (n=39, c=1/13 < 1/9)",
            expected=_show(_CAPS_PRICES),
            provenance="direct-evaluation",
            compute=_corner_caps,
        ),
        Check(
            "named-cut-corner-caps-uniform",
            "corner-cap cut on the uniform component stays within the computed 1/n envelope of 9c^2/2",
            expected=f"within {_CAPS_ENVELOPE} of {_CAPS_UNIFORM}",
            provenance="direct-evaluation",
            compute=_corner_caps_uniform,
            tolerance=str(_CAPS_ENVELOPE),
            regime="finite",
        ),
    ),
    "sperner-extremal": (
        Check(
            "sperner-extremal-max",
            "exhaustive admissible-labeling maximum of monochromatic cells matches the closed form, with witness",
            expected="max == bound at all six sizes",
            provenance="enumeration",
            compute=_sperner_max,
        ),
        Check(
            "sperner-face-restricted",
            "every face-relaxed labeling of the k=4, n=2 lattice meets the non-monochromatic count floor",
            expected="count >= floor for every inadmissibility level",
            provenance="enumeration",
            compute=_sperner_face_restricted,
        ),
    ),
    "cut-size-floor": (
        Check(
            "cut-size-floor-sweep",
            "every non-opposite cut of the k=4, n=2 lattice meets the face-census size floor",
            expected="729 cuts, 0 violations",
            provenance="enumeration",
            compute=_cut_size_sweep,
        ),
        Check(
            "cut-size-floor-tight-family",
            "terminal-ball cuts at n=12 sit within 4n of the leading size term",
            expected="slack <= 48 and floor holds",
            provenance="direct-evaluation",
            compute=_cut_size_tight_family,
        ),
    ),
    "exhaustive-min-floor": (
        Check(
            "exhaustive-min-face",
            "exhaustive minimum over the 2916 non-opposite cuts of the n=3 face instance meets the floor",
            expected=f">= {_FACE_FLOOR}",
            provenance="enumeration",
            compute=_exhaustive_min_face,
        ),
        Check(
            "exhaustive-min-combined",
            "certified minimum of the combined n=3 instance meets the two-term floor",
            expected=f">= {_COMBINED_FLOOR}",
            provenance="enumeration",
            compute=_exhaustive_min_combined,
            regime=_COMBINED_REGIME,
        ),
    ),
    "terminal-flow-floor": (
        Check(
            "terminal-flow-floor",
            "terminal-to-opposite-side min cut of the face instance meets 2/5 - 1/(3n) for n in {3,6,...,30}",
            expected="min margin >= 0",
            provenance="max-flow",
            compute=_terminal_flow_floor,
            regime="finite",
        ),
    ),
    "canonicalization": (
        Check(
            "canonicalization-sweep",
            "reachability relabeling over all 64 pinned maps of the k=3, n=2 lattice: cut-set shrinks, cost never grows, auxiliary count never drops, idempotent",
            expected="64 maps, all four properties",
            provenance="enumeration",
            compute=_canonicalization_sweep,
        ),
        Check(
            "canonicalization-face-cost",
            "on the n=3 face instance, relabeling never raises the priced cost over all pinned maps",
            expected="16384 maps, cost non-increase",
            provenance="enumeration",
            compute=_canonicalization_face_cost,
        ),
    ),
    "format-determinism": (
        Check(
            "format-determinism",
            "byte-identical emission and exact JSON/DIMACS cross-parse on five generated instances; frozen n=9 face header",
            expected="identical, cross-equal, 'p mwc 55 117 3'",
            provenance="direct-evaluation",
            compute=_format_determinism,
        ),
    ),
}

CRITERIA = tuple(CHECKS)

SUITES = {
    "constants": ("optimizer", "limitation"),
    "lemmas": (
        "instance-totals",
        "named-cut-goldens",
        "terminal-flow-floor",
        "format-determinism",
    ),
    "enumeration": (
        "sperner-extremal",
        "cut-size-floor",
        "exhaustive-min-floor",
        "canonicalization",
    ),
    "all": CRITERIA,
}


def run_criterion(name: str, budget: int = DEFAULT_LABELING_BUDGET) -> list[CheckResult]:
    """Run one criterion's checks from scratch, in table order.

    Every check runs under the same labeling budget and is timed on its
    own.  A check that exhausts the budget fails with "budget-exhausted:
    ..." as its computed value, and the run goes on.
    """
    if name not in CHECKS:
        raise ValueError(f"unknown criterion: {name!r}")
    results = []
    for check in CHECKS[name]:
        started = time.perf_counter()
        try:
            computed, passed = check.compute(budget)
        except BudgetExceededError as exc:
            computed, passed = f"budget-exhausted: {exc}", False
        results.append(
            CheckResult(
                id=check.id,
                criterion=name,
                description=check.description,
                expected=check.expected,
                computed=computed,
                tolerance=check.tolerance,
                regime=check.regime,
                provenance=check.provenance,
                passed=passed,
                elapsed_s=time.perf_counter() - started,
            )
        )
    return results


def run_suite(suite: str, budget: int = DEFAULT_LABELING_BUDGET) -> RunReport:
    """Run one of the named suites; execution is serial, so reports are
    deterministic apart from their timing fields."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite: {suite!r} (choose from {sorted(SUITES)})")
    started = time.perf_counter()
    checks: list[CheckResult] = []
    for criterion in SUITES[suite]:
        checks.extend(run_criterion(criterion, budget=budget))
    return RunReport(
        command=f"reproduce {suite}",
        parameters={"suite": suite, "budget": budget},
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        elapsed_s=time.perf_counter() - started,
    )
