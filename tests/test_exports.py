import types

import cappedkc


# the library's public surface; a name joins or leaves it on purpose
SURFACE = {
    "BipartiteSeed", "CAP_TOL", "CappedInstanceReport", "ClusteringSolution",
    "ContractViolation", "FacilityMap", "FlowNetwork", "FractionalSolution",
    "InfeasibleInstance", "InputError", "Instance", "LinearSystem", "RunConfig",
    "SolverError", "build_assignment_network", "build_polytope", "candidate_radii",
    "caplet_decompose", "capped_opt", "check_capped", "check_feasible",
    "evaluate", "extract_assignment", "fair_k_center", "faster_algorithm", "greedy_gold",
    "greedy_k_center", "hardness_instance", "make_balanced_instance", "make_instance",
    "max_additive_violation", "max_flow_lower_bounds", "max_matching", "non_dominant_k_center",
    "report_to_json", "reports_to_csv", "reroute_fractional", "select_separated_facilities",
    "solution_cost", "sorted_adjacency", "validate_point",
}


def test_public_surface_is_pinned():
    assert set(cappedkc.__all__) == SURFACE


def test_every_export_resolves_once():
    names = cappedkc.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(cappedkc, name)] == []
    # and every public name the package imports is listed
    public = {
        name
        for name, value in vars(cappedkc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
