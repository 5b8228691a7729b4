import random

import numpy as np

import pytest

from cappedkc import (
    ContractViolation,
    FacilityMap,
    FractionalSolution,
    Instance,
    build_polytope,
    candidate_radii,
    check_capped,
    check_feasible,
    fair_k_center,
    make_instance,
    max_additive_violation,
    reroute_fractional,
    select_separated_facilities,
    solution_cost,
)
from cappedkc import lp_rounding
from cappedkc.flow import build_assignment_network
from cappedkc.lp_rounding import validate_rerouted
from conftest import (
    fractional_point,
    line_instance,
    min_feasible_radius,
    pair_masses,
    random_capped_instance,
    solve_system,
)


def test_select_all_when_far_apart():
    inst = line_instance([0, 10, 20], k=3)
    fmap = select_separated_facilities(inst, 1.0)
    assert fmap.opened.tolist() == [0, 1, 2]
    assert fmap.theta.tolist() == [0, 1, 2]


def test_select_coincident_opens_first():
    inst = line_instance([5, 5, 5], k=3)
    fmap = select_separated_facilities(inst, 0.5)
    assert fmap.opened.tolist() == [0]
    assert fmap.theta.tolist() == [0, 0, 0]


def test_select_line_example():
    inst = line_instance([0, 1, 10], k=3)
    fmap = select_separated_facilities(inst, 1.0)
    assert fmap.opened.tolist() == [0, 2]
    assert fmap.theta[1] == 0

    # explicit metric, ids 10..13 at positions 0..3: a facility joins the first
    # opened one within 2*lam (inclusive), not the nearest
    dm = np.array([[0, 5, 2, 3], [5, 0, 1, 2.5], [2, 1, 0, 4], [3, 2.5, 4, 0]], dtype=float)
    ids = np.arange(10, 14)
    inst = Instance(np.zeros((4, 1)), [0] * 4, k=4, alpha=1.0, ids=ids, dist_matrix=dm)
    fmap = select_separated_facilities(inst, 1.0)
    assert fmap.opened.tolist() == [0, 1, 3]
    assert fmap.theta.tolist() == [0, 1, 0, 3]
    # a subset scans only its own positions; the others stay off the map
    fmap = select_separated_facilities(inst, 1.0, np.array([1, 2, 3]))
    assert fmap.opened.tolist() == [1, 3]
    assert fmap.theta.tolist() == [-1, 1, 1, 3]


def test_reroute_identity_when_separated():
    inst = line_instance([0, 10], ["r", "b"], k=2, alpha=1.0)
    frac = fractional_point(inst, x={(0, 0): 1.0, (1, 1): 1.0}, y={0: 1.0, 1: 1.0})
    fmap = select_separated_facilities(inst, 1.0)
    merged = reroute_fractional(inst, frac, fmap)
    assert pair_masses(inst, merged) == {(0, 0): 1.0, (1, 1): 1.0}
    assert merged.y.tolist() == [1.0, 1.0]


def test_reroute_merges_coincident_columns():
    inst = make_instance([(0.0,), (0.0,), (0.0,)], ["r", "b", "g"], k=2, alpha=0.5)
    frac = fractional_point(
        inst,
        x={(0, 0): 1.0, (0, 1): 0.5, (1, 1): 0.5, (1, 2): 1.0},
        y={0: 0.5, 1: 0.5},
    )
    fmap = select_separated_facilities(inst, 0.25)
    merged = reroute_fractional(inst, frac, fmap)
    assert fmap.opened.tolist() == [0]
    assert merged.y.tolist() == [1.0, 0.0, 0.0]
    assert pair_masses(inst, merged) == {(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0}
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
        merged = reroute_fractional(inst, frac, fmap)
        validate_rerouted(inst, lam, merged)  # raises on any broken family


def test_fair_k_center_unit_square(unit_square):
    sol = fair_k_center(unit_square, 1.0)
    assert sol is not None
    assert solution_cost(unit_square, sol) <= 3.0 + 1e-7
    assert max_additive_violation(unit_square, sol, 0.5) <= 1


def test_fair_k_center_checks_the_merged_point(unit_square, monkeypatch):
    # the merge drops half of one pair's mass; the flow network still has a
    # full integral flow, so only the check on the merged point can object
    honest = lp_rounding.reroute_fractional

    def lossy(inst, frac, fmap):
        merged = honest(inst, frac, fmap)
        x = merged.x.copy()
        x[0] *= 0.5
        return FractionalSolution(merged.facility, merged.client, x, merged.y)

    monkeypatch.setattr(lp_rounding, "reroute_fractional", lossy)
    with pytest.raises(ContractViolation, match="coverage"):
        fair_k_center(unit_square, 1.0)


def test_fair_k_center_infeasible_colors():
    inst = make_instance([(0.0,)] * 4, ["r", "r", "r", "b"], k=2, alpha=0.5)
    assert fair_k_center(inst, 5.0) is None


def test_fair_k_center_rejects_a_separated_set_larger_than_k():
    # the radius slack admits the middle facility for both ends, but the ends
    # are more than 2*lam apart, so separation opens two facilities for k = 1
    inst = make_instance([(0.0,), (1 + 5e-13,), (2 + 1e-12,)], [0, 0, 0], k=1, alpha=1.0)
    dm = np.array([[0, 1, 10], [1, 0, 1], [10, 1, 0]], dtype=float)
    not_metric = Instance(np.empty((3, 0)), [0, 0, 0], k=1, alpha=1.0, dist_matrix=dm)
    for case in (inst, not_metric):
        assert check_feasible(build_polytope(case, 1.0)) is not None
        assert select_separated_facilities(case, 1.0).opened.tolist() == [0, 2]
        assert fair_k_center(case, 1.0) is None


def test_fair_k_center_coincident_balanced_zero_radius():
    inst = make_instance([(0.0,)] * 4, ["r", "b", "r", "b"], k=2, alpha=0.5)
    sol = fair_k_center(inst, 0.0)
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
        sol = fair_k_center(inst, lam)
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
                assert inst.dist_row(inst.pos(centers[a]))[inst.pos(centers[b])] > 2 * lam
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
                c = inst.colors()[inst.pos(j)]
                counts[c] = counts.get(c, 0) + 1
            assert max(counts.values()) <= 2 * alpha * len(members) + 1e-9
    assert checked >= 10


def _reference_point(inst, sys, vec) -> dict:
    """The solver vector's x support as {(facility id, client id): mass}, in pair order.

    Each pair gets X_iC / w_C, its class column's mass over the class size,
    which is the number of pairs in the column.
    """
    ids = inst.ids()
    pairs = zip(sys.pair_facility.tolist(), sys.pair_client.tolist())
    col = sys.pair_column
    x = vec[sys.facility_pos.size + col] / np.bincount(col)[col]
    return {(ids[f], ids[j]): float(v) for (f, j), v in zip(pairs, x) if v > 1e-12}


def _reference_reroute(inst, x: dict, fmap) -> dict:
    """The merge pair by pair on id-keyed dicts: the specification of reroute_fractional."""
    x2: dict[tuple[int, int], float] = {}
    for (i, j), v in x.items():
        tgt = int(fmap.theta[inst.pos(i)])
        if tgt < 0:
            raise ContractViolation(f"facility {i} carries mass but is outside the map")
        key = (inst.id_at(tgt), j)
        x2[key] = x2.get(key, 0.0) + v
    return x2


def _reroute_instance(rng: random.Random) -> Instance:
    n = rng.randint(3, 12)
    n_colors = rng.randint(2, 4)
    kind = rng.choice(["uniform", "ties", "coincident"])
    if kind == "uniform":
        coords = [(rng.random(), rng.random()) for _ in range(n)]
    elif kind == "ties":
        coords = [(float(rng.randint(0, 3)), float(rng.randint(0, 3))) for _ in range(n)]
    else:
        sites = [(rng.random(), rng.random()) for _ in range(rng.randint(1, 3))]
        coords = [rng.choice(sites) for _ in range(n)]
    colors = [j % n_colors for j in range(n)]
    rng.shuffle(colors)
    alpha = rng.choice([1 / 2, 1 / 3, 0.3, 0.4])
    ids = rng.sample(range(1000), n)  # ids out of position order
    return make_instance(coords, colors, k=rng.randint(1, 4), alpha=alpha, ids=ids)


def test_reroute_matches_dict_reference():
    rng = random.Random(89)
    compared = reordered = summed = 0
    for _ in range(300):
        inst = _reroute_instance(rng)
        radii = candidate_radii(inst)
        lam = rng.choice(radii[len(radii) // 2 :])
        restricted = None
        if rng.random() < 0.5:
            restricted = rng.sample(inst.ids(), rng.randint(1, inst.n))
        sys = build_polytope(inst, lam, restricted)
        frac = check_feasible(sys)
        if frac is None:
            continue
        fmap = select_separated_facilities(inst, lam, sys.facility_pos)
        point = _reference_point(inst, sys, solve_system(sys))
        expected = _reference_reroute(inst, point, fmap)
        merged = reroute_fractional(inst, frac, fmap)
        # same pairs in the same order, and the same bits in every mass
        got = [(i, j, v.hex()) for (i, j), v in pair_masses(inst, merged).items()]
        assert got == [(i, j, v.hex()) for (i, j), v in expected.items()]
        opened_ids = [inst.id_at(p) for p in fmap.opened.tolist()]
        assert merged.y.tolist() == [float(i in opened_ids) for i in inst.ids()]

        net = build_assignment_network(inst, merged, fmap.opened)
        ref = fractional_point(inst, expected, {i: 1.0 for i in opened_ids})
        ref_net = build_assignment_network(inst, ref, fmap.opened)
        for name in ("tail", "head", "lower", "cap", "point"):
            assert np.array_equal(getattr(net, name), getattr(ref_net, name)), name
        compared += 1
        by_position = sorted(expected, key=lambda p: (inst.pos(p[0]), inst.pos(p[1])))
        reordered += list(expected) != by_position
        summed += len(expected) < len(point)
    # many merged points add up several pairs, and list their pairs in an
    # order other than sorted positions
    assert compared >= 120 and reordered >= 50 and summed >= 25


def test_reroute_keeps_first_appearance_order_and_pair_order_sums():
    # four coincident points merge onto facility 5 at lam = 0; client 8's
    # masses give 1.0 when added in pair order and 0.9999999999999999 backwards
    inst = make_instance([(0.0,)] * 4, ["r", "b", "r", "b"], k=1, alpha=0.5, ids=[5, 6, 7, 8])
    x = {(6, 8): 0.1, (7, 8): 0.2, (5, 7): 1.0, (5, 8): 0.7, (6, 5): 1.0, (7, 6): 1.0}
    fmap = select_separated_facilities(inst, 0.0)
    assert fmap.opened.tolist() == [0]
    merged = reroute_fractional(inst, fractional_point(inst, x, {5: 0.4, 6: 0.3, 7: 0.3}), fmap)
    expected = _reference_reroute(inst, x, fmap)
    assert list(expected) == [(5, 8), (5, 7), (5, 5), (5, 6)]
    assert expected[(5, 8)] == 1.0
    assert list(pair_masses(inst, merged).items()) == list(expected.items())
    with pytest.raises(ContractViolation, match="facility 6 carries mass"):
        only_5 = FacilityMap(np.array([0]), np.array([0, -1, -1, -1]))
        reroute_fractional(inst, fractional_point(inst, x, {}), only_5)


def _two_sites_point():
    """A rerouted point on sites 10 apart: facilities 0, 2 and 4 each serve one r/b pair."""
    inst = make_instance(
        [(0.0,)] * 4 + [(10.0,)] * 2, ["r", "b", "r", "b", "r", "b"], k=3, alpha=0.5
    )
    x = {(0, 0): 1.0, (0, 1): 1.0, (2, 2): 1.0, (2, 3): 1.0, (4, 4): 1.0, (4, 5): 1.0}
    return inst, x, {0: 1.0, 2: 1.0, 4: 1.0}


def test_validate_rerouted_flags_each_family():
    inst, x, y = _two_sites_point()
    lam = 3.3  # 3 * lam = 9.9, just short of the distance between the sites
    validate_rerouted(inst, lam, fractional_point(inst, x, y))
    far = {**{p: v for p, v in x.items() if p[0] != 4}, (0, 4): 1.0, (0, 5): 1.0}
    validate_rerouted(inst, 3.4, fractional_point(inst, far, y))  # 3 * 3.4 = 10.2
    swapped = {p: v for p, v in x.items() if p not in ((0, 1), (2, 2))}
    corrupt = [
        ("outside", {**x, (0, 0): 1.5}, y),
        ("outside", {**x, (0, 1): -0.5}, y),
        ("farther than 3", far, y),
        ("coverage", {**x, (4, 5): 0.5}, y),
        ("color cap", {**swapped, (0, 2): 1.0, (2, 1): 1.0}, y),
        ("more than k", x, {**y, 1: 1.0}),
        ("exceeds the opening", x, {0: 1.0, 4: 1.0}),
    ]
    for message, bad_x, bad_y in corrupt:
        with pytest.raises(ContractViolation, match=message):
            validate_rerouted(inst, lam, fractional_point(inst, bad_x, bad_y))
