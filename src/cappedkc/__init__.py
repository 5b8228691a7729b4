"""Capped k-center clustering: no color may exceed an alpha fraction of any cluster."""

from .core import (
    CAP_TOL,
    ClusteringSolution,
    ContractViolation,
    InfeasibleInstance,
    InputError,
    Instance,
    candidate_radii,
    check_capped,
    make_instance,
    solution_cost,
)
from .flow import (
    FlowNetwork,
    build_assignment_network,
    extract_assignment,
    max_flow_lower_bounds,
)
from .greedy import greedy_k_center
from .halfcap import caplet_decompose, non_dominant_k_center
from .hardness import BipartiteSeed, capped_opt, hardness_instance
from .harness import (
    CappedInstanceReport,
    RunConfig,
    evaluate,
    faster_algorithm,
    greedy_gold,
    make_balanced_instance,
    max_additive_violation,
    report_to_json,
    reports_to_csv,
)
from .lp_feasibility import (
    FractionalSolution,
    LinearSystem,
    SolverError,
    build_polytope,
    check_feasible,
    validate_point,
)
from .lp_rounding import (
    FacilityMap,
    fair_k_center,
    reroute_fractional,
    select_separated_facilities,
)
from .matching import max_matching, sorted_adjacency

__all__ = [
    "BipartiteSeed",
    "CAP_TOL",
    "CappedInstanceReport",
    "ClusteringSolution",
    "ContractViolation",
    "FacilityMap",
    "FlowNetwork",
    "FractionalSolution",
    "InfeasibleInstance",
    "InputError",
    "Instance",
    "LinearSystem",
    "RunConfig",
    "SolverError",
    "build_assignment_network",
    "build_polytope",
    "candidate_radii",
    "caplet_decompose",
    "capped_opt",
    "check_capped",
    "check_feasible",
    "evaluate",
    "extract_assignment",
    "fair_k_center",
    "faster_algorithm",
    "greedy_gold",
    "greedy_k_center",
    "hardness_instance",
    "make_balanced_instance",
    "make_instance",
    "max_additive_violation",
    "max_flow_lower_bounds",
    "max_matching",
    "non_dominant_k_center",
    "report_to_json",
    "reports_to_csv",
    "reroute_fractional",
    "select_separated_facilities",
    "solution_cost",
    "sorted_adjacency",
    "validate_point",
]
