"""Exact gap instances and cut search on discretized simplex lattices.

Build the weighted instances, price and enumerate non-opposite cuts,
verify the counting lemmas at desk scale, and reproduce the certified
floor and limitation constants, all in exact rational arithmetic.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    FloorTerms,
    limitation_min,
    limitation_ratio,
    limitation_sup,
    nonopposite_cost_floor,
    optimal_params_for_c,
    optimize_params,
)
from .cuts import (
    NAMED_CUTS,
    CutLabeling,
    canonicalize,
    corner_caps,
    cost,
    delta,
    is_fragmenting,
    is_non_opposite,
    isolate_terminals,
    midlines,
    midlines_extended,
    named_cut,
    terminal_ball,
)
from .errors import BudgetExceededError
from .instances import (
    COMPONENT_NAMES,
    GapParams,
    WeightMap,
    build_base_triangle,
    build_component,
    combine,
    combine_maps,
)
from .io import (
    ParsedInstance,
    emit_cut,
    emit_instance_dimacs,
    emit_instance_json,
    parse_cut,
    parse_instance,
    parse_rational,
    render_decimal,
    render_rational,
)
from .lattice import (
    SimplexGraph,
    boundary_edges,
    boundary_nodes,
    build_graph,
    red_regions,
    simplex_points,
    support,
)
from .reproduce import CheckResult, RunReport, run_criterion, run_suite
from .search import (
    DEFAULT_LABELING_BUDGET,
    SearchBudget,
    SearchResult,
    enumerate_non_opposite,
    min_non_opposite_cost,
    min_terminal_face_cut,
)
from .sperner import (
    ExtremalReport,
    FloorCheck,
    build_hypergraph,
    count_floors,
    count_monochromatic,
    cut_size_floor,
    exhaustive_extremal,
    monochromatic_upper_bound,
    nonmonochromatic_lower_bound,
    witness_attains,
)

__version__ = "0.1.0"

# every public name imported above, and no submodule
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
