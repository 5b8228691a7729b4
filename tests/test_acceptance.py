"""End-to-end acceptance suite: one test per criterion, one verdict line each."""

import math
import random
import time

from cappedkc import (
    InfeasibleInstance,
    RunConfig,
    build_assignment_network,
    build_polytope,
    candidate_radii,
    capped_opt,
    check_capped,
    check_feasible,
    evaluate,
    extract_assignment,
    fair_k_center,
    faster_algorithm,
    greedy_k_center,
    hardness_instance,
    make_balanced_instance,
    make_instance,
    max_additive_violation,
    max_flow_lower_bounds,
    non_dominant_k_center,
    reroute_fractional,
    select_separated_facilities,
    solution_cost,
)
from cappedkc.flow import _snap
from cappedkc.harness import report_to_dict
from conftest import (
    brute_force_kcenter_opt,
    min_feasible_radius,
    random_capped_instance,
    t_star_decomposition_exists,
    tiny_seeds,
)


def _verdict(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _integer_inverse(alpha: float) -> bool:
    return abs(round(1 / alpha) - 1 / alpha) < 1e-9


def _feasible_pool(seed: int, count: int, alphas, n_range=(4, 9), k_range=(1, 3)):
    """Random oracle-solved instances: (instance, optimal cost, optimal solution)."""
    rng = random.Random(seed)
    pool = []
    attempts = 0
    while len(pool) < count and attempts < 20 * count:
        attempts += 1
        alpha = rng.choice(alphas)
        n_colors = 2 if (alpha == 0.5 and rng.random() < 0.5) else 3
        n = rng.randint(*n_range)
        k = rng.randint(*k_range)
        inst = random_capped_instance(rng, n=n, n_colors=n_colors, k=k, alpha=alpha)
        try:
            cost, sol = capped_opt(inst)
        except InfeasibleInstance:
            continue
        pool.append((inst, cost, sol))
    assert len(pool) == count
    return pool


def _lp_route_on(pool, solve):
    """`solve(inst, opt_cost)` on each pool instance: (worst cost ratio to the optimum, delta counts).

    `solve` checks its own cost bound and returns the solution; the additive
    violation bound is checked here.
    """
    worst_ratio = 0.0
    deltas = {0: 0, 1: 0, 2: 0}
    for inst, opt_cost, _ in pool:
        sol = solve(inst, opt_cost)
        cost = solution_cost(inst, sol)
        delta = max_additive_violation(inst, sol, inst.alpha)
        assert delta <= 2
        if _integer_inverse(inst.alpha):
            assert delta <= 1
        deltas[delta] += 1
        if opt_cost > 0:
            worst_ratio = max(worst_ratio, cost / opt_cost)
    return worst_ratio, deltas


def _rounded_at_optimum(inst, opt_cost):
    """The LP route at the oracle's optimal radius, within 3x of it."""
    sol = fair_k_center(inst, opt_cost)
    assert sol is not None, "polytope empty at the oracle's optimal radius"
    assert solution_cost(inst, sol) <= 3 * opt_cost + 1e-6
    return sol


def _faster_algorithm_run(inst, opt_cost):
    """faster_algorithm, within 3x of its own rung.

    With the coreset and the (1+epsilon) ladder, no bound against 3x the
    optimum holds.
    """
    sol, lam = faster_algorithm(inst, RunConfig(k=inst.k, alpha=inst.alpha))
    assert solution_cost(inst, sol) <= 3 * lam + 1e-7
    return sol


def test_criterion_1_lp_route_vs_oracle():
    t0 = time.monotonic()
    alphas = [0.5, 1 / 3, 0.4]
    pool = _feasible_pool(seed=10_001, count=200, alphas=alphas)
    worst, deltas = _lp_route_on(pool, _rounded_at_optimum)
    # seed 10_008's pool rounds one instance to delta 1, and the verdict asks
    # for at least one, so the rounding is seen to exceed a cap
    large = _feasible_pool(seed=10_008, count=12, alphas=alphas, n_range=(20, 40), k_range=(2, 4))
    large_worst, large_deltas = _lp_route_on(large, _rounded_at_optimum)
    fast_worst, fast_deltas = _lp_route_on(pool, _faster_algorithm_run)
    fast_large_worst, fast_large_deltas = _lp_route_on(large, _faster_algorithm_run)
    elapsed = time.monotonic() - t0
    _verdict(
        "criterion-1 (3x cost, additive violation <= 2/1)",
        elapsed < 300 and large_deltas[1] > 0,
        f"200 instances, worst cost ratio {worst:.3f}, delta counts {deltas}; "
        f"n=20-40: 12 instances, worst cost ratio {large_worst:.3f}, "
        f"delta counts {large_deltas}; faster_algorithm: worst cost ratio "
        f"{fast_worst:.3f}, delta counts {fast_deltas}; n=20-40: worst cost ratio "
        f"{fast_large_worst:.3f}, delta counts {fast_large_deltas}; {elapsed:.1f}s",
    )


def _half_route_at_optimum(pool) -> float:
    """The half-cap route on each pool instance: the worst cost ratio to the optimum."""
    worst_ratio = 0.0
    for inst, opt_cost, _ in pool:
        sol, lam = non_dominant_k_center(inst)
        assert check_capped(inst, sol), "half-cap route must satisfy the cap exactly"
        cost = solution_cost(inst, sol)
        assert cost <= 12 * opt_cost + 1e-9
        assert cost <= 12 * lam + 1e-9
        if opt_cost > 0:
            worst_ratio = max(worst_ratio, cost / opt_cost)
    return worst_ratio


def test_criterion_2_half_cap_route_vs_oracle():
    t0 = time.monotonic()
    worst = _half_route_at_optimum(_feasible_pool(seed=20_002, count=200, alphas=[0.5]))
    large = _feasible_pool(seed=20_003, count=12, alphas=[0.5], n_range=(20, 40), k_range=(2, 4))
    large_worst = _half_route_at_optimum(large)
    elapsed = time.monotonic() - t0
    _verdict(
        "criterion-2 (exact cap, 12x cost)",
        elapsed < 300,
        f"200 instances, worst cost ratio {worst:.3f}; "
        f"n=20-40: 12 instances, worst cost ratio {large_worst:.3f}; {elapsed:.1f}s",
    )


def test_criterion_3_greedy_two_approximation():
    t0 = time.monotonic()
    rng = random.Random(30_003)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(4, 12)
        k = rng.randint(1, 3)
        inst = make_instance(
            [(rng.random(), rng.random()) for _ in range(n)], [0] * n, k=k, alpha=1.0
        )
        _, cost = greedy_k_center(inst)
        opt = brute_force_kcenter_opt(inst)
        assert cost <= 2 * opt + 1e-9
        if opt > 0:
            worst = max(worst, cost / opt)
    elapsed = time.monotonic() - t0
    _verdict(
        "criterion-3 (greedy 2-approximation)",
        elapsed < 120,
        f"200 instances, worst ratio {worst:.3f}, {elapsed:.1f}s",
    )


def test_criterion_4_flow_integrality_and_sandwich():
    t0 = time.monotonic()
    rng = random.Random(40_004)
    checked = 0
    while checked < 100:
        alpha = rng.choice([0.5, 1 / 3])
        inst = random_capped_instance(
            rng,
            n=rng.randint(4, 9),
            n_colors=3 if alpha != 0.5 else rng.choice([2, 3]),
            k=rng.randint(1, 3),
            alpha=alpha,
        )
        found = min_feasible_radius(inst, candidate_radii(inst))
        if found is None:
            continue
        lam, frac = found
        fmap = select_separated_facilities(inst, lam)
        if len(fmap.opened) > inst.k:
            continue
        merged = reroute_fractional(inst, frac, fmap)
        net = build_assignment_network(inst, merged, fmap.opened)
        flow = max_flow_lower_bounds(net, inst.n)
        assert flow is not None, "integral |D|-flow must exist for a rerouted point"
        assign = extract_assignment(net, flow)
        assert len(assign) == inst.n

        col_sums: dict[tuple[int, int], float] = {}
        fac_sums: dict[int, float] = {}
        for i, j, v in zip(merged.facility.tolist(), merged.client.tolist(), merged.x.tolist()):
            c = inst.colors()[j]
            col_sums[(i, c)] = col_sums.get((i, c), 0.0) + v
            fac_sums[i] = fac_sums.get(i, 0.0) + v
        got_color: dict[tuple[int, int], int] = {}
        got_fac: dict[int, int] = {}
        for j, i in assign.items():
            c = inst.colors()[inst.pos(j)]
            key = (inst.pos(i), c)
            got_color[key] = got_color.get(key, 0) + 1
            got_fac[inst.pos(i)] = got_fac.get(inst.pos(i), 0) + 1
        for key, total in col_sums.items():
            s = _snap(total)
            assert math.floor(s) <= got_color.get(key, 0) <= math.ceil(s)
        for i, total in fac_sums.items():
            s = _snap(total)
            assert math.floor(s) <= got_fac.get(i, 0) <= math.ceil(s)
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(
        "criterion-4 (flow integrality + floor/ceiling sandwich)",
        checked >= 100,
        f"{checked} fractional points, {elapsed:.1f}s",
    )


def test_criterion_5_hardness_gadget_oracle():
    t0 = time.monotonic()
    seeds = tiny_seeds()
    assert len(seeds) >= 20
    yes_count = 0
    for seed in seeds:
        inst = hardness_instance(seed)
        exists = t_star_decomposition_exists(seed, 3)
        assert inst.k == inst.n  # so the oracle's budget row is slack
        try:
            cost, _ = capped_opt(inst)
        except InfeasibleInstance:
            cost = math.inf
        if exists:
            yes_count += 1
            assert cost <= 1 + 1e-9, f"decomposable seed {seed} priced at {cost}"
        else:
            assert cost > 2 - 1e-9, f"non-decomposable seed {seed} priced at {cost}"
    elapsed = time.monotonic() - t0
    _verdict(
        "criterion-5 (gadget cost 1 vs >= 2)",
        yes_count >= 4,
        f"{len(seeds)} seeds ({yes_count} decomposable), {elapsed:.1f}s",
    )


def test_criterion_6_benchmark_scale():
    t0 = time.monotonic()
    inst = make_balanced_instance(n_colors=50, per_color=50, dim=10, k=25, alpha=0.5, seed=0)
    observed = []
    for alpha in (0.05, 0.1, 0.5):
        rep = evaluate(inst, RunConfig(k=25, alpha=alpha, epsilon=0.1, m=2, algorithm="lp"))
        assert rep.status == "ok"
        assert rep.delta is not None and rep.delta <= 2
        assert rep.cost_vs_greedy is not None
        assert 0.5 <= rep.cost_vs_greedy <= 3.0
        observed.append((alpha, rep.delta, round(rep.cost_vs_greedy, 3)))
    elapsed = time.monotonic() - t0
    _verdict(
        "criterion-6 (benchmark-scale delta and cost ratios)",
        elapsed < 1800,
        f"(alpha, delta, cost_vs_greedy) = {observed}, {elapsed:.1f}s",
    )


def test_criterion_7_determinism():
    t0 = time.monotonic()
    inst = make_balanced_instance(n_colors=4, per_color=12, dim=3, k=4, alpha=0.5, seed=5)
    stable = True
    for algorithm in ("greedy", "random", "lp", "half"):
        cfg = RunConfig(k=4, alpha=0.5, epsilon=0.1, m=2, algorithm=algorithm, seed=11)
        first = report_to_dict(evaluate(inst, cfg), include_wall=False)
        second = report_to_dict(evaluate(inst, cfg), include_wall=False)
        stable &= first == second
    # the lp path must also be stable at a fixed radius, not just end to end
    lam = 1.5
    a = fair_k_center(inst, lam)
    b = fair_k_center(inst, lam)
    stable &= (a is None) == (b is None)
    if a is not None and b is not None:
        stable &= (a.centers, a.assign) == (b.centers, b.assign)
    elapsed = time.monotonic() - t0
    _verdict(
        "criterion-7 (byte-stable runs for fixed seeds)",
        stable,
        f"all four algorithms repeated identically, {elapsed:.1f}s",
    )
