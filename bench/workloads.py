"""The three benchmark workloads, their pinned outputs, and the op counter.

Each pinned value checked is one operation.  A wrong value, or an exception
inside a step, counts as a failed operation; the run goes on with the next
step.  Workloads call the package through its module attributes, so the
tracer's wrappers (see spans.py) see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from fractions import Fraction as F

from simplexcut import bounds, cli, cuts, instances, lattice, search
from simplexcut import io as sio

# Pins per workload and size.  "small" is the reduced size the self-test runs.
PINS = {
    "reproduce-all": {
        "full": {"checks": 25, "suite": "all"},
        "small": {"checks": 6, "suite": "constants"},
    },
    "limits-n78": {
        "full": {
            "finite_min": F(3042677879, 2535000000),
            "n": 78,
            "c": F(1, 13),
            "asymptotic_min": F(9000523, 7500000),
            "sup_c": F(74279, 1000000),
            "sup_value": F(11900687342862000000, 9911752610151330253),
        },
        "small": {
            "finite_min": F(1522090597, 1267500000),
            "n": 39,
            "c": F(1, 13),
            "asymptotic_min": F(9000523, 7500000),
            "sup_c": F(74279, 1000000),
            "sup_value": F(11900687342862000000, 9911752610151330253),
        },
    },
    "bnb-certify": {
        "full": {
            "n3_min": F(3534787, 3000000),
            "triangle_n": 6,
            "triangle_min": F(1),
            "mixtures": 16,
            "n6_budget": None,  # the package default of 2M tree nodes
            "n6_incumbent": F(6158217, 5000000),
            "flow_n": 60,
            "flow_value": F(2, 5),
        },
        "small": {
            "n3_min": F(3534787, 3000000),
            "triangle_n": 3,
            "triangle_min": F(1),
            "mixtures": 4,
            "n6_budget": 50_000,
            "n6_incumbent": F(6158217, 5000000),
            "flow_n": 12,
            "flow_value": F(2, 5),
        },
    },
}


def wrong_pins(pins: dict) -> dict:
    """A copy of pins whose first pinned number is off by one."""
    first = next(k for k, v in pins.items() if isinstance(v, (int, F)))
    return {**pins, first: pins[first] + 1}


class Ops:
    """Counts verified outputs and the ones that were wrong or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def expect(self, name: str, actual, expected) -> None:
        self.check(name, actual == expected, f"expected {expected}, got {actual}")

    @contextlib.contextmanager
    def step(self, name: str):
        try:
            yield
        except Exception:
            self.check(name, False, traceback.format_exc(limit=-3).strip())


def _cli(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def reproduce_all(pins: dict, seed: int, ops: Ops) -> None:
    with ops.step("reproduce"):
        code, report = _cli(["reproduce", "--suite", pins["suite"]])
        ops.expect("reproduce.exit_code", code, 0)
        ops.expect("reproduce.passed", report["passed"], True)
        ops.expect("reproduce.checks", len(report["checks"]), pins["checks"])
        for check in report["checks"]:
            ops.expect(f"reproduce.{check['id']}", check["passed"], True)


@contextlib.contextmanager
def _capture_combine(captured: list):
    # keep the combined instance that limitation_min builds, so the DIMACS
    # round trip reuses it instead of building it a second time
    original = bounds.combine

    def tap(*args, **kwargs):
        w = original(*args, **kwargs)
        captured.append(w)
        return w

    bounds.combine = tap
    try:
        yield
    finally:
        bounds.combine = original


def limits(pins: dict, seed: int, ops: Ops) -> None:
    captured: list = []
    n, c = pins["n"], pins["c"]
    with ops.step("limits"), _capture_combine(captured):
        code, doc = _cli(["limits", "--n", str(n), "--c", str(c)])
        results = doc["results"]
        ops.expect("limits.exit_code", code, 0)
        ops.expect("limits.finite_min", F(results["finite_min"]["exact"]), pins["finite_min"])
        ops.expect(
            "limits.asymptotic_min",
            F(results["asymptotic_min"]["exact"]),
            pins["asymptotic_min"],
        )
        ops.expect("limits.sup_c", F(results["sup"]["c"]["exact"]), pins["sup_c"])
        ops.expect("limits.sup_value", F(results["sup"]["value"]["exact"]), pins["sup_value"])
    with ops.step("dimacs"):
        params = instances.GapParams.tuned(c=c)
        if captured:
            w = captured[-1]
        else:  # limitation_min no longer goes through bounds.combine
            w = instances.combine(params, lattice.build_graph(4, n))
        text = sio.emit_instance_dimacs(w, tag="combined", c=c, lam=params.lams())
        parsed = sio.parse_instance(text)
        ops.expect("dimacs.round_trip", parsed.weights == w, True)


def mixtures(seed: int, count: int) -> list[instances.GapParams]:
    """Mixtures near the tuned optimum: each weight scaled by a factor drawn
    from [0.5, 1.5), then renormalised; cap depth 1/3 so that c*3 = 1."""
    rng = random.Random(seed)
    tuned = instances.GapParams.tuned().lams()
    out = []
    for _ in range(count):
        raw = [int(lam * 10**6 * rng.uniform(0.5, 1.5)) + 1 for lam in tuned]
        total = sum(raw)
        out.append(instances.GapParams(*(F(x, total) for x in raw), c=F(1, 3)))
    return out


def _argmin_reprices(ops: Ops, name: str, result, w) -> None:
    ops.check(
        f"{name}.argmin",
        cuts.is_non_opposite(result.argmin) and cuts.cost(result.argmin, w) == result.min_cost,
        "argmin is opposite or does not re-price to min_cost",
    )


def bnb_certify(pins: dict, seed: int, ops: Ops) -> None:
    third = F(1, 3)
    with ops.step("n3"):
        w = instances.combine(instances.GapParams.tuned(c=third), lattice.build_graph(4, 3))
        r = search.min_non_opposite_cost(w)
        ops.expect("n3.min", r.min_cost, pins["n3_min"])
        ops.expect("n3.certified", r.proven_optimal, True)
        _argmin_reprices(ops, "n3", r, w)
    with ops.step("triangle"):
        # 1 is below the 1.2 - 1/n that build_base_triangle's docstring
        # claims for n = 6; the computed value is pinned as it stands
        w = instances.build_base_triangle(pins["triangle_n"])
        r = search.min_non_opposite_cost(w)
        ops.expect("triangle.min", r.min_cost, pins["triangle_min"])
        ops.expect("triangle.certified", r.proven_optimal, True)
        _argmin_reprices(ops, "triangle", r, w)
    for i, params in enumerate(mixtures(seed, pins["mixtures"])):
        with ops.step(f"mixture{i}"):
            w = instances.combine(params, lattice.build_graph(4, 3))
            r = search.min_non_opposite_cost(w)
            ops.expect(f"mixture{i}.certified", r.proven_optimal, True)
            _argmin_reprices(ops, f"mixture{i}", r, w)
    with ops.step("n6"):
        g6 = lattice.build_graph(4, 6)
        w = instances.combine(instances.GapParams.tuned(c=third), g6)
        budget = pins["n6_budget"]
        r = search.min_non_opposite_cost(
            w, None if budget is None else search.SearchBudget(max_labelings=budget)
        )
        ops.expect("n6.incumbent", r.min_cost, pins["n6_incumbent"])
        ops.expect("n6.certified", r.proven_optimal, False)
        ops.expect("n6.argmin", cuts.cost(r.argmin, w), r.min_cost)
        ops.check(
            "n6.below_midlines_extended",
            r.min_cost <= cuts.cost(cuts.midlines_extended(g6), w),
            "incumbent exceeds the midlines-extended cut",
        )
    with ops.step("maxflow"):
        w = instances.build_base_triangle(pins["flow_n"])
        for terminal in (1, 2, 3):
            ops.expect(
                f"maxflow.t{terminal}",
                search.min_terminal_face_cut(w, terminal),
                pins["flow_value"],
            )


WORKLOADS = {
    "reproduce-all": reproduce_all,
    "limits-n78": limits,
    "bnb-certify": bnb_certify,
}
