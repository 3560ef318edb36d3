"""Unit-simplex hypergraphs and admissible-labeling extremals.

The hypergraph on the level-n lattice has one k-node hyperedge per point of
the level-(n-1) lattice: the upward translate reaching that point's k unit
successors.  A labeling picks one of 1..k per node; it is admissible when
every node's label lies in its support.  The counting bounds below control
how many hyperedges an admissible (or near-admissible) labeling can keep
monochromatic, and hence how small a non-opposite cut-set can be.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import comb, factorial
from operator import contains, getitem, itemgetter

from .cuts import CutLabeling, delta, is_non_opposite
from .lattice import build_graph, family_choices, family_size, node_count, simplex_points
from .search import DEFAULT_LABELING_BUDGET, _within_budget


def build_hypergraph(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """One hyperedge per level-(n-1) point: its k unit successors.

    Each member is the colex rank of a successor, so node indices are
    those of build_graph(k, n).
    """
    g = build_graph(k, n)
    bases = simplex_points(k, n - 1) if n >= 2 else ((0,) * k,)
    hyperedges = []
    for base in bases:
        members = []
        for i in range(k):
            lifted = list(base)
            lifted[i] += 1
            members.append(g.rank(lifted))
        hyperedges.append(tuple(members))
    assert len(hyperedges) == comb(n + k - 2, k - 1)
    return tuple(hyperedges)


def count_monochromatic(hyperedges: tuple[tuple[int, ...], ...], labels: tuple[int, ...]) -> int:
    count = 0
    for members in hyperedges:
        first = labels[members[0]]
        if all(labels[v] == first for v in members[1:]):
            count += 1
    return count


def monochromatic_upper_bound(k: int, n: int) -> int:
    """Largest monochromatic count any admissible labeling can reach."""
    return comb(n + k - 3, k - 1)


def nonmonochromatic_lower_bound(k: int, n: int, beta: Fraction) -> Fraction:
    """Least non-monochromatic count when inadmissible labels sit on one face.

    beta normalizes the inadmissible-node count: a labeling with all
    inadmissible labels on the face opposite the last terminal and
    beta * (n+k-2)!/n! inadmissible nodes keeps at least
    (1/(k-2)! - beta) * (n+k-3)!/(n-1)! hyperedges non-monochromatic.
    """
    beta = Fraction(beta)
    cap = Fraction(1, factorial(k - 2))
    if not 0 <= beta <= cap:
        raise ValueError(f"face fraction {beta} outside [0, {cap}]")
    return (cap - beta) * (factorial(n + k - 3) // factorial(n - 1))


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of an exhaustive scan over a labeling family.

    max_monochromatic carries the family-wide maximum with its first witness
    in scan order.  In face-restricted mode, by_inadmissible maps each
    inadmissible-node count to (least non-monochromatic count, witness);
    otherwise it is None.
    """

    k: int
    n: int
    face_restricted: bool
    explored: int
    max_monochromatic: int
    witness: tuple[int, ...]
    by_inadmissible: dict[int, tuple[int, tuple[int, ...]]] | None


def admissible(k: int, s: tuple[int, ...]) -> tuple[int, ...]:
    """Admissible labelings: a label from the node's support s."""
    return s


def face_relaxed(k: int, s: tuple[int, ...]) -> tuple[int, ...]:
    """Face-relaxed labelings: any of 1..k where x_k = 0, the support s elsewhere."""
    return s if k in s else tuple(range(1, k + 1))


def exhaustive_extremal(
    k: int,
    n: int,
    face_restricted: bool = False,
    max_labelings: int = DEFAULT_LABELING_BUDGET,
) -> ExtremalReport:
    """Scan a full labeling family for extremal monochromatic counts.

    Plain mode scans the family of the admissible rule, face-restricted
    mode that of face_relaxed: nodes on the face opposite the last terminal
    take any label (so the inadmissible labels sit only there) while the
    remaining nodes stay admissible.  Labelings are visited in
    lexicographic order over per-node choice lists; the scan refuses to
    start when the family size exceeds max_labelings.

    Each labeling is counted in C: one itemgetter gathers the labels of
    every hyperedge's members, flattened, zip regroups them k at a time,
    and a group is monochromatic when it is one of the k constant tuples.
    The inadmissible count sums a per-node 0/1 table indexed by label.
    count_monochromatic is the per-hyperedge reference.
    """
    rule = face_relaxed if face_restricted else admissible
    _within_budget(family_size(k, n, rule), max_labelings)
    hyperedges = build_hypergraph(k, n)
    g = build_graph(k, n)
    total = len(hyperedges)
    gather = itemgetter(*chain.from_iterable(hyperedges))
    is_constant = frozenset((label,) * k for label in range(1, k + 1)).__contains__
    if face_restricted:
        # inadmissible[v][l] is 1 when the admissible rule denies node v label l
        inadmissible = [[int(l not in a) for l in range(k + 1)] for a in family_choices(g, admissible)]
    best = -1
    witness: tuple[int, ...] = ()
    by_inadmissible: dict[int, tuple[int, tuple[int, ...]]] = {}
    explored = 0
    for labels in product(*family_choices(g, rule)):
        explored += 1
        members = iter(gather(labels))
        mono = sum(map(is_constant, zip(*[members] * k)))
        if mono > best:
            best = mono
            witness = labels
        if face_restricted:
            bad = sum(map(getitem, inadmissible, labels))
            nonmono = total - mono
            cur = by_inadmissible.get(bad)
            if cur is None or nonmono < cur[0]:
                by_inadmissible[bad] = (nonmono, labels)
    return ExtremalReport(
        k=k,
        n=n,
        face_restricted=face_restricted,
        explored=explored,
        max_monochromatic=best,
        witness=witness,
        by_inadmissible=by_inadmissible if face_restricted else None,
    )


def witness_attains(report: ExtremalReport) -> bool:
    """Whether the report's witness is admissible and re-counts to its
    max_monochromatic."""
    hyperedges = build_hypergraph(report.k, report.n)
    allowed = family_choices(build_graph(report.k, report.n), admissible)
    ok = all(map(contains, allowed, report.witness))
    return ok and count_monochromatic(hyperedges, report.witness) == report.max_monochromatic


def count_floors(report: ExtremalReport) -> list[tuple[int, int, Fraction]]:
    """(inadmissible count, least non-monochromatic count, its floor) for
    each inadmissibility level of a face-restricted scan, in level order.

    The floor is nonmonochromatic_lower_bound at beta = z * n!/(n+k-2)!.
    """
    k, n = report.k, report.n
    norm = factorial(n + k - 2) // factorial(n)
    return [
        (z, count, nonmonochromatic_lower_bound(k, n, Fraction(z, norm)))
        for z, (count, _witness) in sorted(report.by_inadmissible.items())
    ]


def verdicts(report: ExtremalReport) -> dict[str, bool]:
    """Whether a scan upholds each claim it is checked for, by claim name.

    A plain scan claims that its maximum is monochromatic_upper_bound
    (bound_attained) and that its witness is admissible and re-counts to
    it (witness_labels).  A face-restricted scan claims that every
    inadmissibility level meets its count_floors floor (count_floors).
    """
    if report.face_restricted:
        return {"count_floors": all(count >= floor for _z, count, floor in count_floors(report))}
    return {
        "bound_attained": report.max_monochromatic
        == monochromatic_upper_bound(report.k, report.n),
        "witness_labels": witness_attains(report),
    }


@dataclass(frozen=True)
class FloorCheck:
    alpha: Fraction
    lower_bound: Fraction
    cut_size: int
    ok: bool


def cut_size_floor(p: CutLabeling) -> FloorCheck:
    """Check a non-opposite cut against the face-census cut-size floor.

    alpha is the fraction of bottom-face nodes labeled 1, 2 or 3 out of the
    (n+1)(n+2) face slots; the cut-set must then contain at least
    3 * alpha * n * (n+1) edges.
    """
    g = p.graph
    if g.k != 4:
        raise ValueError("the cut-size floor is stated on four-terminal graphs")
    if not is_non_opposite(p):
        raise ValueError("the cut-size floor only applies to non-opposite cuts")
    n = g.n
    # the x4 = 0 face is the node prefix
    face_labeled = sum(label <= 3 for label in p.labels[: node_count(3, n)])
    alpha = Fraction(face_labeled, (n + 1) * (n + 2))
    lower = 3 * alpha * n * (n + 1)
    size = len(delta(p))
    return FloorCheck(alpha=alpha, lower_bound=lower, cut_size=size, ok=size >= lower)
