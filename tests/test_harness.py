import random

import pytest

from cappedkc import (
    InfeasibleInstance,
    InputError,
    RunConfig,
    brute_force_capped_opt,
    brute_force_kcenter_opt,
    check_capped,
    evaluate,
    faster_algorithm,
    greedy_k_center,
    make_balanced_instance,
    make_instance,
    max_additive_violation,
    nearest_assignment,
    report_to_json,
    reports_to_csv,
    solution_cost,
)
from cappedkc.harness import lambda_grid, report_to_dict
from conftest import line_instance, random_capped_instance


def test_delta_balanced_even_clusters_zero(unit_square):
    sol = nearest_assignment(unit_square, [0, 2])
    assert max_additive_violation(unit_square, sol, 0.5) == 0


def test_delta_formula_direct():
    inst = make_instance([(0.0,)] * 3, ["r", "r", "b"], k=1, alpha=0.5)
    sol = nearest_assignment(inst, [0])
    assert max_additive_violation(inst, sol, 0.5) == 1
    # 100 * 0.29 is 28.999999999999996 in floats; the tolerance floors it to 29
    inst = make_instance([(0.0,)] * 100, ["r"] * 29 + ["b"] * 71, k=1, alpha=0.29)
    sol = nearest_assignment(inst, [0])
    assert max_additive_violation(inst, sol, 0.29) == 71 - 29
    assert check_capped(inst.with_params(alpha=0.71), sol) and not check_capped(inst, sol)


def test_brute_capped_unit_square(unit_square):
    cost, sol = brute_force_capped_opt(unit_square)
    assert cost == 1.0
    assert check_capped(unit_square, sol)
    assert solution_cost(unit_square, sol) == 1.0


def test_brute_capped_infeasible_ratio():
    inst = make_instance([(0.0,)] * 4, ["r", "r", "r", "b"], k=2, alpha=0.5)
    with pytest.raises(InfeasibleInstance):
        brute_force_capped_opt(inst)


def test_brute_capped_coincident_pairs_zero():
    inst = make_instance(
        [(0.0,), (0.0,), (1.0,), (1.0,)], ["r", "b", "r", "b"], k=2, alpha=0.5
    )
    cost, _ = brute_force_capped_opt(inst)
    assert cost == 0.0


def test_brute_capped_guards():
    big = make_instance([(float(i),) for i in range(11)], [0] * 11, k=2, alpha=1.0)
    with pytest.raises(InputError):
        brute_force_capped_opt(big)
    wide = make_instance([(float(i),) for i in range(4)], [0] * 4, k=4, alpha=1.0)
    with pytest.raises(InputError):
        brute_force_capped_opt(wide)


def test_brute_kcenter_line():
    assert brute_force_kcenter_opt(line_instance([0, 1, 10, 11], k=2)) == 1.0
    assert brute_force_kcenter_opt(line_instance([0, 1, 10, 11], k=1)) == 10.0
    assert brute_force_kcenter_opt(line_instance([0, 1, 10, 11], k=3)) == 1.0
    assert brute_force_kcenter_opt(line_instance([0, 1], k=2)) == 0.0


def test_greedy_two_approx_sample():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(4, 10)
        inst = make_instance(
            [(rng.random(), rng.random()) for _ in range(n)],
            [0] * n,
            k=rng.randint(1, 3),
            alpha=1.0,
        )
        _, cost = greedy_k_center(inst)
        assert cost <= 2.0 * brute_force_kcenter_opt(inst) + 1e-9


def test_lambda_grid_endpoints():
    inst = line_instance([0, 1, 10], k=1)
    grid = lambda_grid(inst, 4.0, 10.0, 0.1)
    assert grid[0] == 2.0
    assert grid[-1] == 20.0
    for a, b in zip(grid, grid[1:-1]):
        assert abs(b / a - 1.1) < 1e-9


def test_lambda_grid_degenerate_greedy_cost():
    inst = make_instance(
        [(0.0,), (0.0,), (5.0,), (5.0,)], ["r", "r", "b", "b"], k=2, alpha=0.5
    )
    _, gcost = greedy_k_center(inst)
    assert gcost == 0.0
    grid = lambda_grid(inst, 0.0, 5.0, 0.5)
    assert grid[0] == 0.0 and grid[1] == 5.0 and grid[-1] == 10.0


def test_faster_algorithm_unit_square(unit_square):
    cfg = RunConfig(k=2, alpha=0.5, epsilon=0.1, m=2, algorithm="lp", seed=0)
    sol, info = faster_algorithm(unit_square, cfg, return_info=True)
    assert info["greedy_cost"] == 1.0
    assert info["lambda"] <= 0.5 * 1.1**8 + 1e-12
    assert solution_cost(unit_square, sol) <= 3 * info["lambda"] + 1e-7
    assert max_additive_violation(unit_square, sol, 0.5) <= 1
    # m=2, k=2 on four points: the coreset is everything
    assert info["coreset"] == [0, 1, 2, 3]


def test_faster_algorithm_m1_coreset_is_greedy(unit_square):
    cfg = RunConfig(k=2, alpha=0.5, epsilon=0.1, m=1, algorithm="lp")
    _, info = faster_algorithm(unit_square, cfg, return_info=True)
    gsol, _ = greedy_k_center(unit_square.with_params(k=2))
    assert tuple(info["coreset"]) == gsol.centers


def test_faster_algorithm_infeasible_alpha():
    inst = make_instance([(0.0,), (1.0,)], ["r", "r"], k=2, alpha=0.4)
    with pytest.raises(InfeasibleInstance):
        faster_algorithm(inst, RunConfig(k=2, alpha=0.4))


def test_faster_algorithm_accepts_first_feasible():
    rng = random.Random(88)
    inst = random_capped_instance(rng, n=9, n_colors=3, k=2, alpha=0.5)
    cfg = RunConfig(k=2, alpha=0.5, epsilon=0.2, m=3)
    sol, info = faster_algorithm(inst, cfg, return_info=True)
    assert solution_cost(inst, sol) <= 3 * info["lambda"] + 1e-7
    homing = [lam for lam in info["grid"] if lam < info["lambda"]]
    # nothing before the accepted radius may admit a capped assignment
    from cappedkc import build_polytope, check_feasible

    for lam in homing:
        assert check_feasible(build_polytope(inst, lam, info["coreset"])) is None


def test_make_balanced_instance_shape():
    inst = make_balanced_instance(n_colors=5, per_color=4, dim=3, k=2, alpha=0.5, seed=1)
    assert inst.n == 20
    assert inst.n_colors == 5
    counts = {}
    for p in inst.points:
        counts[p.color] = counts.get(p.color, 0) + 1
    assert set(counts.values()) == {4}


def test_evaluate_schema_and_determinism(unit_square):
    cfg = RunConfig(k=2, alpha=0.5, algorithm="lp", seed=3)
    a = evaluate(unit_square, cfg)
    b = evaluate(unit_square, cfg)
    assert report_to_dict(a, include_wall=False) == report_to_dict(b, include_wall=False)
    keys = set(report_to_dict(a).keys())
    for algo in ("greedy", "random", "half"):
        r = evaluate(unit_square, RunConfig(k=2, alpha=0.5, algorithm=algo, seed=3))
        assert set(report_to_dict(r).keys()) == keys
        assert r.status == "ok"


def test_evaluate_infeasible_is_structured():
    inst = make_instance([(0.0,), (1.0,)], ["r", "r"], k=2, alpha=0.4)
    rep = evaluate(inst, RunConfig(k=2, alpha=0.4, algorithm="lp"))
    assert rep.status == "infeasible"
    assert rep.cost is None and rep.delta is None
    assert "delta_greedy" in report_to_dict(rep)


def test_evaluate_greedy_ratio_is_one(unit_square):
    rep = evaluate(unit_square, RunConfig(k=2, alpha=0.5, algorithm="greedy"))
    assert rep.cost_vs_greedy == 1.0
    assert rep.delta is not None


def test_report_json_and_csv(unit_square):
    rep = evaluate(unit_square, RunConfig(k=2, alpha=0.5, algorithm="lp"))
    text = report_to_json(rep, include_wall=False)
    assert '"cost"' in text and '"delta"' in text and "wall_ms" not in text
    csv_text = reports_to_csv([("square", rep)])
    header, row = csv_text.strip().split("\n")
    assert header.startswith("dataset,algorithm,k,alpha")
    assert row.startswith("square,lp,2,0.5")
