import random

import numpy as np

from cappedkc import (
    FractionalSolution,
    Instance,
    Point,
    build_polytope,
    candidate_radii,
    check_capped,
    check_feasible,
    fair_k_center,
    make_instance,
    max_additive_violation,
    min_feasible_radius,
    reroute_fractional,
    select_separated_facilities,
    solution_cost,
)
from cappedkc.lp_rounding import validate_rerouted
from conftest import line_instance, random_capped_instance


def test_select_all_when_far_apart():
    inst = line_instance([0, 10, 20], k=3)
    fmap = select_separated_facilities(inst, 1.0)
    assert fmap.opened == (0, 1, 2)
    assert all(fmap.theta[i] == i for i in fmap.opened)


def test_select_coincident_opens_first():
    inst = line_instance([5, 5, 5], k=3)
    fmap = select_separated_facilities(inst, 0.5)
    assert fmap.opened == (0,)
    assert fmap.theta == {0: 0, 1: 0, 2: 0}


def test_select_line_example():
    inst = line_instance([0, 1, 10], k=3)
    fmap = select_separated_facilities(inst, 1.0)
    assert fmap.opened == (0, 2)
    assert fmap.theta[1] == 0

    # explicit metric, ids 10..13 at positions 0..3: a facility joins the first
    # opened one within 2*lam (inclusive), not the nearest
    dm = np.array([[0, 5, 2, 3], [5, 0, 1, 2.5], [2, 1, 0, 4], [3, 2.5, 4, 0]], dtype=float)
    points = [Point(10 + p, (0.0,), 0) for p in range(4)]
    inst = Instance(points, k=4, alpha=1.0, dist_matrix=dm)
    fmap = select_separated_facilities(inst, 1.0)
    assert fmap.opened == (10, 11, 13)
    assert fmap.theta == {10: 10, 11: 11, 12: 10, 13: 13}
    fmap = select_separated_facilities(inst, 1.0, scan_order=[13, 12, 11, 10])
    assert fmap.opened == (13, 12)
    assert fmap.theta == {13: 13, 12: 12, 11: 12, 10: 12}


def test_reroute_identity_when_separated():
    inst = line_instance([0, 10], ["r", "b"], k=2, alpha=1.0)
    frac = FractionalSolution(x={(0, 0): 1.0, (1, 1): 1.0}, y={0: 1.0, 1: 1.0})
    fmap = select_separated_facilities(inst, 1.0)
    merged = reroute_fractional(frac, fmap)
    assert merged.x == frac.x
    assert merged.y == {0: 1.0, 1: 1.0}


def test_reroute_merges_coincident_columns():
    inst = make_instance([(0.0,), (0.0,), (0.0,)], ["r", "b", "g"], k=2, alpha=0.5)
    frac = FractionalSolution(
        x={(0, 0): 1.0, (0, 1): 0.5, (1, 1): 0.5, (1, 2): 1.0},
        y={0: 0.5, 1: 0.5},
    )
    fmap = select_separated_facilities(inst, 0.25)
    merged = reroute_fractional(frac, fmap)
    assert fmap.opened == (0,)
    assert merged.y == {0: 1.0}
    assert merged.x == {(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0}
    validate_rerouted(inst, 0.25, merged)


def test_rerouted_point_keeps_color_caps():
    rng = random.Random(71)
    for _ in range(20):
        inst = random_capped_instance(
            rng, n=rng.randint(4, 8), n_colors=rng.choice([2, 3]), k=2, alpha=0.5
        )
        found = min_feasible_radius(inst, candidate_radii(inst))
        if found is None:
            continue
        lam, frac = found
        fmap = select_separated_facilities(inst, lam)
        merged = reroute_fractional(frac, fmap)
        validate_rerouted(inst, lam, merged)  # raises on any broken family


def test_fair_k_center_unit_square(unit_square):
    sol = fair_k_center(unit_square, 1.0, validate=True)
    assert sol is not None
    assert solution_cost(unit_square, sol) <= 3.0 + 1e-7
    assert max_additive_violation(unit_square, sol, 0.5) <= 1


def test_fair_k_center_infeasible_colors():
    inst = make_instance([(0.0,)] * 4, ["r", "r", "r", "b"], k=2, alpha=0.5)
    assert fair_k_center(inst, 5.0) is None


def test_fair_k_center_coincident_balanced_zero_radius():
    inst = make_instance([(0.0,)] * 4, ["r", "b", "r", "b"], k=2, alpha=0.5)
    sol = fair_k_center(inst, 0.0, validate=True)
    assert sol is not None
    assert solution_cost(inst, sol) == 0.0
    assert max_additive_violation(inst, sol, 0.5) == 0
    assert check_capped(inst, sol)


def test_rounding_contracts_on_random_instances():
    rng = random.Random(101)
    checked = 0
    for _ in range(40):
        alpha = rng.choice([0.5, 1 / 3, 0.4])
        n_colors = 2 if alpha == 0.5 and rng.random() < 0.5 else 3
        inst = random_capped_instance(
            rng, n=rng.randint(4, 9), n_colors=n_colors, k=rng.randint(1, 3), alpha=alpha
        )
        found = min_feasible_radius(inst, candidate_radii(inst))
        if found is None:
            continue
        lam, _ = found
        sol = fair_k_center(inst, lam, validate=True)
        if sol is None:
            continue  # separated set larger than k at this radius
        checked += 1
        # radius contract
        assert solution_cost(inst, sol) <= 3 * lam + 1e-7
        # additive violation, improved for integer 1/alpha
        delta = max_additive_violation(inst, sol, alpha)
        assert delta <= 2
        if abs(round(1 / alpha) - 1 / alpha) < 1e-9:
            assert delta <= 1
        # opened centers strictly separated
        centers = list(sol.centers)
        for a in range(len(centers)):
            for b in range(a + 1, len(centers)):
                assert inst.dist(centers[a], centers[b]) > 2 * lam
    assert checked >= 10


def test_multiplicative_bound_for_integer_inverse_alpha():
    rng = random.Random(303)
    checked = 0
    for _ in range(30):
        alpha = rng.choice([0.5, 1 / 3])
        inst = random_capped_instance(
            rng, n=rng.randint(4, 9), n_colors=3, k=rng.randint(1, 3), alpha=alpha
        )
        found = min_feasible_radius(inst, candidate_radii(inst))
        if found is None:
            continue
        sol = fair_k_center(inst, found[0])
        if sol is None:
            continue
        checked += 1
        for members in sol.clusters().values():
            counts = {}
            for j in members:
                c = inst.color_at(inst.pos(j))
                counts[c] = counts.get(c, 0) + 1
            assert max(counts.values()) <= 2 * alpha * len(members) + 1e-9
    assert checked >= 10


def test_scan_order_variants_both_round():
    rng = random.Random(404)
    inst = random_capped_instance(rng, n=8, n_colors=2, k=2, alpha=0.5)
    found = min_feasible_radius(inst, candidate_radii(inst))
    assert found is not None
    lam, _ = found
    for order in ("index", "mass"):
        sol = fair_k_center(inst, lam, scan_order=order)
        assert sol is not None
        assert solution_cost(inst, sol) <= 3 * lam + 1e-7
