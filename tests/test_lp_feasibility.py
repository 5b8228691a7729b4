import random
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from cappedkc import (
    InfeasibleInstance,
    RadiusGrid,
    SolverError,
    brute_force_capped_opt,
    build_polytope,
    candidate_radii,
    check_feasible,
    make_instance,
    min_feasible_radius,
    validate_point,
)
from cappedkc.core import ceil_inv_alpha
from cappedkc.lp_feasibility import _solve_highs
from conftest import random_capped_instance


def test_ceil_inv_alpha():
    assert ceil_inv_alpha(0.5) == 2
    assert ceil_inv_alpha(0.3) == 4
    assert ceil_inv_alpha(1 / 3) == 3
    assert ceil_inv_alpha(0.1) == 10
    assert ceil_inv_alpha(1.0) == 1


def test_radius_prunes_variables():
    inst = make_instance([(0.0,), (1.0,)], ["r", "b"], k=2, alpha=0.5)
    sys = build_polytope(inst, 0.5)
    assert sys.pair_ids == [(0, 0), (1, 1)]
    sys = build_polytope(inst, 1.0)
    assert len(sys.pair_ids) == 4


def test_minload_coefficient_matches_ceiling():
    inst = make_instance([(0.0,), (0.0,)], ["r", "b"], k=1, alpha=0.3)
    sys = build_polytope(inst, 1.0)
    blk = next(b for b in sys.blocks if b.family == "minload")
    assert blk.data.min() == -4.0  # ceil(1/0.3)


def test_coincident_pair_feasible_at_zero():
    inst = make_instance([(0.0,), (0.0,)], ["r", "b"], k=1, alpha=0.5)
    frac = check_feasible(build_polytope(inst, 0.0))
    assert frac is not None
    assert sum(frac.y.values()) <= 1 + 1e-7


@pytest.mark.parametrize("lam", [0.0, 1.0, 7.0])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_three_red_one_blue_always_infeasible(lam, k):
    inst = make_instance([(0.0,)] * 4, ["r", "r", "r", "b"], k=k, alpha=0.5)
    assert check_feasible(build_polytope(inst, lam)) is None


def test_unit_square_feasibility_threshold(unit_square):
    assert check_feasible(build_polytope(unit_square, 0.5)) is None
    frac = check_feasible(build_polytope(unit_square, 1.0))
    assert frac is not None


def test_min_feasible_radius_scan(unit_square):
    got = min_feasible_radius(unit_square, RadiusGrid((0.5, 1.0, 2.0)))
    assert got is not None
    lam, frac = got
    assert lam == 1.0
    assert frac.x


def test_min_feasible_radius_bisect_matches_scan(unit_square):
    grid = candidate_radii(unit_square)
    scan = min_feasible_radius(unit_square, grid, strategy="scan")
    bisect = min_feasible_radius(unit_square, grid, strategy="bisect")
    assert scan is not None and bisect is not None
    assert scan[0] == bisect[0]


def test_min_feasible_radius_empty_when_alpha_too_small():
    inst = make_instance([(0.0,), (1.0,)], ["r", "r"], k=2, alpha=0.4)
    assert min_feasible_radius(inst, candidate_radii(inst)) is None


def test_feasibility_monotone_in_radius():
    rng = random.Random(29)
    for _ in range(10):
        inst = random_capped_instance(rng, n=6, n_colors=2, k=2, alpha=0.5)
        verdicts = [
            check_feasible(build_polytope(inst, lam)) is not None
            for lam in candidate_radii(inst)
        ]
        # once feasible, stays feasible
        assert verdicts == sorted(verdicts)


def test_feasible_implies_aggregate_color_bound():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(3, 7)
        colors = [rng.randrange(2) for _ in range(n)]
        inst = make_instance(
            [(rng.random(),) for _ in range(n)], colors, k=2, alpha=rng.choice([0.5, 0.6])
        )
        lam = max(candidate_radii(inst).values)
        if check_feasible(build_polytope(inst, lam)) is not None:
            for c in range(inst.n_colors):
                count = sum(1 for p in inst.points if p.color == c)
                assert count <= inst.alpha * inst.n + 1e-7 * inst.n


def test_returned_points_satisfy_every_row():
    # check_feasible re-validates internally; spot-check x/y shapes and ranges here
    rng = random.Random(57)
    for _ in range(10):
        inst = random_capped_instance(rng, n=6, n_colors=3, k=2, alpha=0.5)
        lam = max(candidate_radii(inst).values)
        frac = check_feasible(build_polytope(inst, lam))
        if frac is None:
            continue
        assert all(0 <= v <= 1 + 1e-7 for v in frac.x.values())
        assert all(0 <= v <= 1 + 1e-7 for v in frac.y.values())
        cover = {}
        for (i, j), v in frac.x.items():
            cover[j] = cover.get(j, 0.0) + v
        for j, total in cover.items():
            assert abs(total - 1.0) <= 1e-6


def test_validate_point_flags_corruption(unit_square):
    sys = build_polytope(unit_square, 1.0)
    vec = _solve_highs(sys)
    assert vec is not None
    assert validate_point(sys, vec) == []
    vec[0] = 2.0  # push an opening variable past its unit bound
    assert validate_point(sys, vec) != []


def test_dump_lp_smoke(unit_square):
    text = build_polytope(unit_square, 1.0).dump_lp()
    assert "Subject To" in text and "colorcap" in text and "Bounds" in text
    cover = [line for line in text.splitlines() if line.startswith(" cover_")]
    assert len(cover) == 4 and all(line.endswith(" = 1") for line in cover)


def test_integral_optimum_lies_in_polytope():
    # every integral capped clustering must survive the row pruning
    rng = random.Random(61)
    checked = 0
    for _ in range(40):
        inst = random_capped_instance(
            rng,
            n=rng.randint(3, 8),
            n_colors=rng.choice([2, 3]),
            k=rng.randint(1, 3),
            alpha=rng.choice([0.5, 1 / 3, 0.6]),
        )
        try:
            cost, sol = brute_force_capped_opt(inst)
        except InfeasibleInstance:
            continue
        sys = build_polytope(inst, cost)
        clusters = sol.clusters()
        nf = len(sys.facility_ids)
        vec = np.zeros(sys.n_vars)
        for c, fid in enumerate(sys.facility_ids):
            vec[c] = float(fid in clusters)
        for c, pair in enumerate(sys.pair_ids):
            if sol.assign[pair[1]] == pair[0]:
                vec[nf + c] = 1.0
        assert validate_point(sys, vec) == []
        checked += 1
    assert checked >= 20


def test_polytope_row_counts():
    rng = random.Random(67)
    for _ in range(20):
        inst = random_capped_instance(rng, n=rng.randint(3, 9), n_colors=3, k=2, alpha=0.5)
        lam = rng.choice(candidate_radii(inst).values)
        sys = build_polytope(inst, lam)
        by_family = {b.family: b for b in sys.blocks}
        assert list(by_family) == ["cover", "open", "colorcap", "minload", "budget"]
        cover = by_family["cover"]
        assert cover.relation == "==" and cover.n_rows == inst.n
        assert set(cover.rows.tolist()) == {
            inst.pos(j) for j in inst.ids() if j not in sys.uncovered_clients
        }
        cap = by_family["colorcap"]
        positive = np.zeros(cap.n_rows, dtype=bool)
        positive[cap.rows[cap.data > 0]] = True
        assert positive.all()


def test_colorcap_rows_match_loop_reference():
    rng = random.Random(71)
    for _ in range(15):
        inst = random_capped_instance(
            rng, n=rng.randint(3, 8), n_colors=3, k=2, alpha=rng.choice([0.5, 1 / 3])
        )
        lam = rng.choice(candidate_radii(inst).values)
        restricted = rng.sample(inst.ids(), rng.randint(1, inst.n))
        sys = build_polytope(inst, lam, restricted)
        nf = len(sys.facility_ids)
        expected = []
        for i in sys.facility_ids:
            members = [
                (nf + c, inst.color_at(inst.pos(j)))
                for c, (f, j) in enumerate(sys.pair_ids)
                if f == i
            ]
            for color in range(inst.n_colors):
                if all(mc != color for _, mc in members):
                    continue
                row = np.zeros(sys.n_vars)
                for col, mc in members:
                    row[col] = 1.0 - inst.alpha if mc == color else -inst.alpha
                expected.append(row)
        cap = next(b for b in sys.blocks if b.family == "colorcap")
        got = cap.matrix(sys.n_vars).toarray()
        assert np.array_equal(got, np.array(expected).reshape(-1, sys.n_vars))


def test_solver_failure_raises(unit_square, monkeypatch):
    def failing(*args, **kwargs):
        return SimpleNamespace(status=4, message="numerical difficulties", x=None)

    monkeypatch.setattr(scipy.optimize, "linprog", failing)
    with pytest.raises(SolverError):
        check_feasible(build_polytope(unit_square, 1.0))
