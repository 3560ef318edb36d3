"""Reproduction registry: suite coverage, report shape, determinism, timing."""

import dataclasses
import hashlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexcut import DEFAULT_LABELING_BUDGET, CutLabeling, WeightMap, build_graph, cost, reproduce
from simplexcut.cuts import reachable_labels
from simplexcut.reproduce import (
    CRITERIA,
    PROVENANCES,
    SUITES,
    CheckResult,
    RunReport,
    run_criterion,
    run_suite,
)

CHECK_FIELDS = {
    "id",
    "criterion",
    "description",
    "expected",
    "computed",
    "tolerance",
    "regime",
    "provenance",
    "passed",
    "elapsed_s",
}

# sha256 of each criterion's checks with elapsed_s removed, so every other
# report field is pinned byte for byte
PINNED_REPORTS = {
    "optimizer": "6b281bcc6b0d6ea0dfd448f0419bbff3407a8eb601659a3b1885c1e6c16b4f8e",
    "limitation": "8b0bc26e7db74a6d81cccfe84be94ed4efff8be0359996976fcd3918f4f292c6",
    "instance-totals": "9ba5b3db65f3537014830eed58e0f5a58d663c0307c67918cdcf7c021287f1d5",
    "named-cut-goldens": "98e233945f7c3cff6015db313713eabb1c58d3b37b61adfd64fc3e7aed935a30",
    "sperner-extremal": "3065d42aa79f4a69a68a59f2e5b13a06b61f2fe009849747f07bb70a87af9182",
    "cut-size-floor": "47d3f444770b8cf1d07c83528493416b58736c45a363a4f13f99c1fc1dd716ec",
    "exhaustive-min-floor": "c3e27068cc980118c94669bc5a2962cdcdd70e6b81a747631a6922b35121e199",
    "terminal-flow-floor": "b5114eda290d33c86eb50112b184284ad20cb1ff71f1afb7040084e3cf34c8ba",
    "canonicalization": "41000bb17520af6878d1f5654b3e731c69e133a81204048ddd545df193c2b927",
    "format-determinism": "0d73670c3380bf225c8500d63aea56fb83eb951c20b2ebed2a1b025a051e026b",
}


def test_suites_cover_all_criteria():
    assert SUITES["all"] == CRITERIA
    from_suites = set()
    for name, members in SUITES.items():
        if name != "all":
            from_suites.update(members)
    assert from_suites == set(CRITERIA)


def test_non_overlapping_suites():
    named = [set(SUITES[s]) for s in ("constants", "lemmas", "enumeration")]
    assert named[0] & named[1] == set()
    assert named[0] & named[2] == set()
    assert named[1] & named[2] == set()


@pytest.mark.parametrize("criterion", CRITERIA)
def test_each_criterion_runs_clean(criterion):
    checks = run_criterion(criterion)
    assert checks, criterion
    for check in checks:
        assert isinstance(check, CheckResult)
        assert check.criterion == criterion
        assert check.provenance in PROVENANCES
        assert check.passed, f"{check.id}: {check.computed} != {check.expected}"
        assert set(check.as_dict()) == CHECK_FIELDS
    doc = json.dumps(
        [{k: v for k, v in c.as_dict().items() if k != "elapsed_s"} for c in checks],
        sort_keys=True,
    )
    assert hashlib.sha256(doc.encode()).hexdigest() == PINNED_REPORTS[criterion]


def test_check_ids_unique_across_registry():
    ids = [c.id for name in CRITERIA for c in run_criterion(name)]
    assert len(ids) == len(set(ids))
    # the default budget runs every registered check: none waits for a larger one
    assert ids == [c.id for checks in reproduce.CHECKS.values() for c in checks]


def test_run_criterion_rejects_unknown():
    with pytest.raises(ValueError, match="unknown criterion"):
        run_criterion("nope")


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_run_suite_report_shape():
    report = run_suite("lemmas")
    assert isinstance(report, RunReport)
    assert report.passed
    # the report states the budget its checks ran under, the default here
    assert report.parameters == {"suite": "lemmas", "budget": DEFAULT_LABELING_BUDGET}
    doc = report.as_dict()
    assert set(doc) == {"command", "parameters", "passed", "elapsed_s", "checks"}
    assert {c.criterion for c in report.checks} == set(SUITES["lemmas"])


def _scrub(doc):
    doc = dict(doc)
    doc.pop("elapsed_s", None)
    doc["checks"] = [
        {k: v for k, v in c.items() if k != "elapsed_s"} for c in doc["checks"]
    ]
    return doc


def test_reports_deterministic_modulo_timing():
    first = run_suite("constants").as_dict()
    again = run_suite("constants").as_dict()
    assert _scrub(first)["checks"] == _scrub(again)["checks"]
    assert first["passed"] == again["passed"]


@pytest.mark.parametrize("budget", [10, -1])
def test_budget_failures_are_reported_not_raised(budget):
    report = run_suite("enumeration", budget=budget)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing
    assert all("budget" in c.computed for c in failing)


@pytest.mark.parametrize("budget", [1000, 4**7])
def test_canonicalization_sweeps_keep_the_budget(budget):
    sweep, face_cost = run_criterion("canonicalization", budget=budget)
    assert sweep.passed and sweep.computed == "64 maps, all hold"
    if budget < 4**7:
        assert not face_cost.passed
        assert face_cost.computed == f"budget-exhausted: 16384 labelings exceed the budget of {budget}"
    else:
        assert face_cost.passed and face_cost.computed == "16384 maps, all hold"


def test_each_check_is_timed_on_its_own(monkeypatch):
    slow_id = "instance-totals-cycles"

    def slowed(check):
        def compute(budget):
            time.sleep(0.05)
            return check.compute(budget)

        return dataclasses.replace(check, compute=compute)

    monkeypatch.setattr(
        reproduce,
        "CHECKS",
        {
            name: tuple(slowed(c) if c.id == slow_id else c for c in checks)
            for name, checks in reproduce.CHECKS.items()
        },
    )
    report = run_suite("lemmas")
    assert report.passed
    totals = [c for c in report.checks if c.criterion == "instance-totals"]
    assert len(totals) == 5
    for c in totals:
        assert (c.elapsed_s >= 0.05) == (c.id == slow_id), (c.id, c.elapsed_s)
    assert sum(c.elapsed_s for c in report.checks) <= report.elapsed_s


def _free_node_to_aux(g, labels):
    """Reachability relabeling, then one free node sent to the auxiliary label."""
    q = list(reachable_labels(g, labels))
    q[next(v for v in range(len(q)) if v not in g.terminals)] = g.k + 1
    return tuple(q)


def _one_stray_component_to_aux(g, labels):
    """Send to the auxiliary label only the first same-label component that
    reachability relabeling sends there.  The cut-set shrinks, the cost
    cannot grow and the auxiliary count cannot drop, but a map with two
    such components needs two applications: not idempotent."""
    target = reachable_labels(g, labels)
    labels = list(labels)
    aux = g.k + 1
    stray = next((v for v, l in enumerate(labels) if target[v] == aux != l), None)
    if stray is not None:
        own, stack = labels[stray], [stray]
        labels[stray] = aux
        while stack:
            for v in g.adj[stack.pop()]:
                if labels[v] == own:
                    labels[v] = aux
                    stack.append(v)
    return tuple(labels)


def test_canonicalization_checks_catch_a_cut_growing_relabeling(monkeypatch):
    monkeypatch.setattr(reproduce, "reachable_labels", _free_node_to_aux)
    checks = run_criterion("canonicalization")
    assert [c.id for c in checks] == ["canonicalization-sweep", "canonicalization-face-cost"]
    assert not any(c.passed for c in checks)
    assert all(c.computed.endswith("violation found") for c in checks)
    # at zero weights no cost can grow: the cut-set test alone catches it
    g = build_graph(3, 2)
    w = reproduce.WeightMap(g, {})
    assert reproduce._relabel_sweep(w, DEFAULT_LABELING_BUDGET, all_properties=False) == (
        64,
        False,
    )


def test_canonicalization_sweep_catches_a_non_idempotent_relabeling(monkeypatch):
    monkeypatch.setattr(reproduce, "reachable_labels", _one_stray_component_to_aux)
    g = build_graph(3, 2)
    w = reproduce.WeightMap(g, {e: 1 for e in range(len(g.edges))})
    # cut-set and cost hold, so the failure below is the idempotence test's
    assert reproduce._relabel_sweep(w, DEFAULT_LABELING_BUDGET, all_properties=False) == (64, True)
    (sweep,) = [c for c in run_criterion("canonicalization") if c.id == "canonicalization-sweep"]
    assert not sweep.passed
    assert sweep.computed == "64 maps, violation found"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sweep_price_is_cost_over_the_denominator(data):
    # the sweep prices maps as numerators: _price over _weighted_edges
    k = data.draw(st.sampled_from((3, 4)))
    g = build_graph(k, data.draw(st.integers(1, 3)))
    fracs = st.one_of(st.just(0), st.fractions(min_value=0, max_value=3, max_denominator=12))
    weights = data.draw(st.lists(fracs, min_size=len(g.edges), max_size=len(g.edges)))
    w = WeightMap(g, dict(enumerate(weights)))
    labels = data.draw(st.lists(st.integers(1, k + 1), min_size=len(g.nodes), max_size=len(g.nodes)))
    for i, t in enumerate(g.terminals, start=1):
        labels[t] = i
    p = CutLabeling(g, labels)
    assert reproduce._price(reproduce._weighted_edges(w), p.labels) == cost(p, w) * w.den
