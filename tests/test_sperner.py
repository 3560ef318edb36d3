"""Upward sub-simplex hypergraphs and admissible-labeling extremes."""

import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest

from simplexcut import sperner
from simplexcut import (
    DEFAULT_LABELING_BUDGET,
    BudgetExceededError,
    build_graph,
    build_hypergraph,
    count_floors,
    count_monochromatic,
    cut_size_floor,
    exhaustive_extremal,
    isolate_terminals,
    midlines_extended,
    monochromatic_upper_bound,
    nonmonochromatic_lower_bound,
    simplex_points,
    terminal_ball,
    witness_attains,
)
from simplexcut.lattice import family_size

from helpers import support

# (k, n) -> exhaustive maximum monochromatic count; equals the closed-form
# bound at every desk-scale size
EXTREMAL = {
    (3, 1): 0,
    (3, 2): 1,
    (3, 3): 3,
    (3, 4): 6,
    (4, 1): 0,
    (4, 2): 1,
}

# least non-monochromatic count by inadmissible-node count for the
# face-restricted (4, 2) family
FACE_RESTRICTED_4_2 = {0: 3, 1: 3, 2: 3, 3: 2, 4: 2, 5: 1, 6: 0}


def is_admissible(nodes, labels):
    """Oracle: every node labeled from its own support."""
    return all(nodes[v][l - 1] > 0 for v, l in enumerate(labels))


@pytest.mark.parametrize("k,n", sorted(EXTREMAL))
def test_hyperedge_count(k, n):
    hyperedges = build_hypergraph(k, n)
    assert len(hyperedges) == comb(n + k - 2, k - 1)
    for members in hyperedges:
        assert len(members) == k


def test_hyperedges_are_upward_simplices():
    nodes = build_graph(3, 3).nodes
    for members in build_hypergraph(3, 3):
        pts = sorted(nodes[v] for v in members)
        base = [min(p[i] for p in pts) for i in range(3)]
        assert sorted(pts) == sorted(
            tuple(b + (1 if i == j else 0) for j, b in enumerate(base))
            for i in range(3)
        )


def _reference_hypergraph(k, n):
    """The dict construction: each successor looked up in a point -> index
    dict over the colex-sorted points."""
    nodes = simplex_points(k, n)
    index = {p: i for i, p in enumerate(nodes)}
    bases = simplex_points(k, n - 1) if n >= 2 else [(0,) * k]
    hyperedges = tuple(
        tuple(index[tuple(b + (i == j) for j, b in enumerate(base))] for i in range(k))
        for base in bases
    )
    return tuple(nodes), hyperedges


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", range(2, 6))
def test_hypergraph_matches_dict_reference(k, n):
    assert (build_graph(k, n).nodes, build_hypergraph(k, n)) == _reference_hypergraph(k, n)


@pytest.mark.parametrize("k,n", sorted(EXTREMAL))
def test_extremal_equals_bound(k, n):
    rep = exhaustive_extremal(k, n)
    assert rep.max_monochromatic == EXTREMAL[(k, n)]
    assert rep.max_monochromatic == monochromatic_upper_bound(k, n)
    assert is_admissible(build_graph(k, n).nodes, rep.witness)
    assert count_monochromatic(build_hypergraph(k, n), rep.witness) == rep.max_monochromatic


def test_admissibility_samples():
    nodes = build_graph(3, 2).nodes
    all_first = tuple(support(p)[0] for p in nodes)
    assert is_admissible(nodes, all_first)
    # swap one label to something off-support
    broken = list(all_first)
    broken[0] = 2 if nodes[0][1] == 0 else 3
    assert not is_admissible(nodes, tuple(broken))


def test_random_admissible_never_beats_bound():
    rng = random.Random(20260815)
    for k, n in ((3, 4), (4, 2)):
        hyperedges = build_hypergraph(k, n)
        bound = monochromatic_upper_bound(k, n)
        for _ in range(300):
            labels = tuple(rng.choice(support(p)) for p in build_graph(k, n).nodes)
            assert count_monochromatic(hyperedges, labels) <= bound


def test_face_restricted_floors_frozen():
    rep = exhaustive_extremal(4, 2, face_restricted=True)
    assert rep.explored == 32768
    got = {z: least for z, (least, _w) in rep.by_inadmissible.items()}
    assert got == FACE_RESTRICTED_4_2
    norm = Fraction(2, 24)  # n!/(n+k-2)! at (4, 2)
    for z, least in got.items():
        floor = nonmonochromatic_lower_bound(4, 2, z * norm)
        assert least >= floor
    # tight at the admissible end and at full inadmissibility
    assert got[0] == nonmonochromatic_lower_bound(4, 2, 0)
    assert got[6] == nonmonochromatic_lower_bound(4, 2, 6 * norm)
    assert count_floors(rep) == [
        (z, got[z], nonmonochromatic_lower_bound(4, 2, z * norm)) for z in sorted(got)
    ]


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        nonmonochromatic_lower_bound(4, 2, Fraction(2, 3))
    with pytest.raises(ValueError):
        nonmonochromatic_lower_bound(4, 2, Fraction(-1, 12))
    assert nonmonochromatic_lower_bound(4, 2, 0) == 3
    assert nonmonochromatic_lower_bound(4, 2, Fraction(1, 12)) == Fraction(5, 2)


def test_budget_refusal_is_eager(monkeypatch):
    # the family is counted in closed form, so a refusal builds no hypergraph
    built = []
    build = sperner.build_hypergraph

    def counting(k, n):
        built.append((k, n))
        return build(k, n)

    monkeypatch.setattr(sperner, "build_hypergraph", counting)
    with pytest.raises(BudgetExceededError, match="13824 labelings exceed the budget of 100"):
        exhaustive_extremal(3, 4, max_labelings=100)
    assert built == []
    # a budget of exactly the family size scans it all
    rep = exhaustive_extremal(3, 4, max_labelings=13824)
    assert rep.explored == 13824 and built == [(3, 4)]


@pytest.mark.parametrize("face_restricted", [False, True])
@pytest.mark.parametrize("k,n", [(2, 1), (2, 5), (3, 1), (3, 4), (4, 2), (4, 3), (5, 2), (6, 3)])
def test_family_size_counts_the_choice_lists(k, n, face_restricted):
    # the families by their definition on coordinates, not by their rules
    nodes = build_graph(k, n).nodes
    sizes = [k if face_restricted and p[k - 1] == 0 else len(support(p)) for p in nodes]
    rule = sperner.face_relaxed if face_restricted else sperner.admissible
    assert prod(b**e for b, e in family_size(k, n, rule)) == prod(sizes)


@pytest.mark.parametrize("label", [0, 4])
def test_witness_attains_refuses_a_label_off_every_support(label):
    # the corner (0, 0, 2) has a positive last coordinate, which p[label - 1]
    # reads for label 0; label k + 1 lies past the last coordinate
    rep = exhaustive_extremal(3, 2)
    assert witness_attains(rep)
    witness = (*rep.witness[:-1], label)
    assert not witness_attains(dataclasses.replace(rep, witness=witness))


def test_verdicts_name_each_claim():
    plain = exhaustive_extremal(3, 2)
    assert sperner.verdicts(plain) == {"bound_attained": True, "witness_labels": True}
    short = dataclasses.replace(plain, max_monochromatic=0)
    assert sperner.verdicts(short) == {"bound_attained": False, "witness_labels": False}
    off_support = dataclasses.replace(plain, witness=(*plain.witness[:-1], 4))
    assert sperner.verdicts(off_support) == {"bound_attained": True, "witness_labels": False}
    face = exhaustive_extremal(4, 2, face_restricted=True)
    assert sperner.verdicts(face) == {"count_floors": True}
    # one level below its floor fails the face-restricted claim
    below = {**face.by_inadmissible, 0: (0, face.by_inadmissible[0][1])}
    failed = dataclasses.replace(face, by_inadmissible=below)
    assert sperner.verdicts(failed) == {"count_floors": False}


def _exhaustive_extremal_reference(k, n, face_restricted):
    """The per-hyperedge scan: count_monochromatic on every labeling."""
    nodes = build_graph(k, n).nodes
    hyperedges = build_hypergraph(k, n)
    choices = [
        tuple(range(1, k + 1)) if face_restricted and p[k - 1] == 0 else tuple(support(p))
        for p in nodes
    ]
    total = len(hyperedges)
    best = -1
    witness = ()
    by_inadmissible = {}
    explored = 0
    for labels in product(*choices):
        explored += 1
        mono = count_monochromatic(hyperedges, labels)
        if mono > best:
            best = mono
            witness = labels
        if face_restricted:
            bad = sum(1 for v, l in enumerate(labels) if nodes[v][l - 1] == 0)
            nonmono = total - mono
            cur = by_inadmissible.get(bad)
            if cur is None or nonmono < cur[0]:
                by_inadmissible[bad] = (nonmono, labels)
    return sperner.ExtremalReport(
        k=k,
        n=n,
        face_restricted=face_restricted,
        explored=explored,
        max_monochromatic=best,
        witness=witness,
        by_inadmissible=by_inadmissible if face_restricted else None,
    )


def _family_size(k, n, face_restricted):
    nodes = build_graph(k, n).nodes
    return prod(k if face_restricted and p[k - 1] == 0 else len(support(p)) for p in nodes)


# every family within the default budget for k = 3 and 4 (the largest are
# the face-restricted (3, 4) at 419,904 labelings and the plain (4, 3) at
# 331,776); k = 2 families fit up to n = 21, but the reference takes about
# 20 s at n = 20, so k = 2 stops at n = 12
ORACLE_SIZES = [
    (k, n, face)
    for k, top in ((2, 12), (3, 5), (4, 4))
    for n in range(1, top + 1)
    for face in (False, True)
    if _family_size(k, n, face) <= DEFAULT_LABELING_BUDGET
]


@pytest.mark.parametrize("k,n,face_restricted", ORACLE_SIZES)
def test_scan_matches_per_hyperedge_reference(k, n, face_restricted):
    rep = exhaustive_extremal(k, n, face_restricted=face_restricted)
    assert rep == _exhaustive_extremal_reference(k, n, face_restricted)


def test_cut_size_floor_on_named_cuts():
    g = build_graph(4, 12)
    for p in (isolate_terminals(g), midlines_extended(g), terminal_ball(g, Fraction(1, 4))):
        fc = cut_size_floor(p)
        face = sum(1 for u, q in enumerate(g.nodes) if q[3] == 0 and p.labels[u] <= 3)
        assert fc.alpha == Fraction(face, (g.n + 1) * (g.n + 2))
        assert fc.ok
        assert fc.cut_size >= fc.lower_bound
        assert 0 <= fc.alpha <= 1


def test_cut_size_floor_exact_fields():
    n = 12
    g = build_graph(4, n)
    fc = cut_size_floor(terminal_ball(g, Fraction(1, 4)))
    assert fc.alpha == Fraction(12, (n + 1) * (n + 2))
    assert fc.lower_bound == 3 * fc.alpha * n * (n + 1)
    assert fc.cut_size == 39
