import dataclasses
import hashlib
import random

import numpy as np
import pytest
import scipy.optimize

from cappedkc import (
    InfeasibleInstance,
    InputError,
    Instance,
    RunConfig,
    build_polytope,
    capped_opt,
    check_capped,
    evaluate,
    fair_k_center,
    faster_algorithm,
    greedy_gold,
    greedy_k_center,
    make_balanced_instance,
    make_instance,
    max_additive_violation,
    report_to_json,
    reports_to_csv,
    select_separated_facilities,
    solution_cost,
)
from cappedkc import harness, lp_feasibility, lp_rounding
from cappedkc.core import center_positions
from cappedkc.greedy import random_centers
from cappedkc.harness import lambda_grid, report_to_dict
from cappedkc.lp_rounding import one_center_stop
from conftest import (
    brute_force_capped_opt,
    brute_force_kcenter_opt,
    exactness_pool,
    line_instance,
    random_capped_instance,
    reference_nearest_assignment,
    reference_one_center_stop,
    reference_solution_cost,
)


def test_delta_balanced_even_clusters_zero(unit_square):
    sol = reference_nearest_assignment(unit_square, [0, 2])
    assert max_additive_violation(unit_square, sol, 0.5) == 0


def test_delta_formula_direct():
    inst = make_instance([(0.0,)] * 3, ["r", "r", "b"], k=1, alpha=0.5)
    sol = reference_nearest_assignment(inst, [0])
    assert max_additive_violation(inst, sol, 0.5) == 1
    # 100 * 0.29 is 28.999999999999996 in floats; the tolerance floors it to 29
    inst = make_instance([(0.0,)] * 100, ["r"] * 29 + ["b"] * 71, k=1, alpha=0.29)
    sol = reference_nearest_assignment(inst, [0])
    assert max_additive_violation(inst, sol, 0.29) == 71 - 29
    assert check_capped(inst.with_params(alpha=0.71), sol) and not check_capped(inst, sol)


def test_brute_capped_unit_square(unit_square):
    for oracle in (brute_force_capped_opt, capped_opt):
        cost, sol = oracle(unit_square)
        assert cost == 1.0
        assert check_capped(unit_square, sol)
        assert solution_cost(unit_square, sol) == 1.0


def test_brute_capped_infeasible_ratio():
    inst = make_instance([(0.0,)] * 4, ["r", "r", "r", "b"], k=2, alpha=0.5)
    for oracle in (brute_force_capped_opt, capped_opt):
        with pytest.raises(InfeasibleInstance):
            oracle(inst)


def test_brute_capped_coincident_pairs_zero():
    inst = make_instance(
        [(0.0,), (0.0,), (1.0,), (1.0,)], ["r", "b", "r", "b"], k=2, alpha=0.5
    )
    for oracle in (brute_force_capped_opt, capped_opt):
        cost, _ = oracle(inst)
        assert cost == 0.0


def test_brute_capped_guards():
    big = make_instance([(float(i),) for i in range(11)], [0] * 11, k=2, alpha=1.0)
    with pytest.raises(InputError):
        brute_force_capped_opt(big)
    wide = make_instance([(float(i),) for i in range(4)], [0] * 4, k=4, alpha=1.0)
    with pytest.raises(InputError):
        brute_force_capped_opt(wide)
    # the exact 0/1 program has no such limits
    assert capped_opt(big)[0] == 3.0
    assert capped_opt(wide)[0] == 0.0


def test_brute_kcenter_line():
    cases = [
        ([0, 1, 10, 11], 2, 1.0),
        ([0, 1, 10, 11], 1, 10.0),
        ([0, 1, 10, 11], 3, 1.0),
        ([0, 1], 2, 0.0),
    ]
    for xs, k, want in cases:
        inst = line_instance(xs, k=k)
        assert brute_force_kcenter_opt(inst) == want
        assert capped_opt(inst)[0] == want


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


def _recorded_walk(monkeypatch, inst, cfg):
    """faster_algorithm's (solution, lambda), plus the coreset and the rungs of its walk."""
    calls = []

    def recording(work, restricted, lam, top):
        calls.append((restricted, lam))
        return one_center_stop(work, restricted, lam, top)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "one_center_stop", recording)
        sol, lam = faster_algorithm(inst, cfg)
    coresets = {tuple(restricted) for restricted, _ in calls}
    assert len(coresets) == 1  # every rung restricts to the same coreset
    return sol, lam, list(coresets.pop()), [rung for _, rung in calls]


def test_faster_algorithm_unit_square(unit_square, monkeypatch):
    cfg = RunConfig(k=2, alpha=0.5, epsilon=0.1, m=2, algorithm="lp", seed=0)
    sol, lam, coreset, rungs = _recorded_walk(monkeypatch, unit_square, cfg)
    # the ladder starts at half the greedy cost
    assert greedy_k_center(unit_square.with_params(k=2))[1] == 1.0 == 2 * rungs[0]
    assert lam == rungs[-1] <= 0.5 * 1.1**8 + 1e-12
    assert solution_cost(unit_square, sol) <= 3 * lam + 1e-7
    assert max_additive_violation(unit_square, sol, 0.5) <= 1
    # m=2, k=2 on four points: the coreset is everything
    assert coreset == [0, 1, 2, 3]


def test_faster_algorithm_m1_coreset_is_greedy(unit_square, monkeypatch):
    cfg = RunConfig(k=2, alpha=0.5, epsilon=0.1, m=1, algorithm="lp")
    _, _, coreset, _ = _recorded_walk(monkeypatch, unit_square, cfg)
    gsol, _ = greedy_k_center(unit_square.with_params(k=2))
    assert tuple(coreset) == gsol.centers


def test_faster_algorithm_infeasible_alpha():
    inst = make_instance([(0.0,), (1.0,)], ["r", "r"], k=2, alpha=0.4)
    with pytest.raises(InfeasibleInstance):
        faster_algorithm(inst, RunConfig(k=2, alpha=0.4))


def test_faster_algorithm_accepts_first_feasible(monkeypatch):
    rng = random.Random(88)
    inst = random_capped_instance(rng, n=9, n_colors=3, k=2, alpha=0.5)
    cfg = RunConfig(k=2, alpha=0.5, epsilon=0.2, m=3)
    sol, lam, coreset, rungs = _recorded_walk(monkeypatch, inst, cfg)
    assert solution_cost(inst, sol) <= 3 * lam + 1e-7
    homing = [rung for rung in rungs if rung < lam]
    # nothing before the accepted radius may admit a capped assignment
    from cappedkc import build_polytope, check_feasible

    for rung in homing:
        assert check_feasible(build_polytope(inst, rung, coreset)) is None


def _ladder(inst, cfg):
    """faster_algorithm's ladder rebuilt from public parts: (work instance, coreset, grid)."""
    work = inst.with_params(k=cfg.k, alpha=cfg.alpha)
    _, lam_greedy = greedy_k_center(work)
    coreset = list(greedy_k_center(work.with_params(k=cfg.m * cfg.k))[0].centers)
    grid = lambda_grid(work, lam_greedy, float(work.dist_row(0).max()), cfg.epsilon)
    return work, coreset, grid


def _reference_faster_algorithm(inst, cfg):
    """The plain ladder walk, with no stop rule and no up-front check: (solution, rung)."""
    work, coreset, grid = _ladder(inst, cfg)
    for lam in grid:
        sol = fair_k_center(work, lam, restricted=coreset)
        if sol is not None:
            return sol, lam
    raise InfeasibleInstance("no radius in the grid admits a capped assignment")


def _one_center_point_in(inst, lam, coreset) -> bool:
    """Whether y_o = 1, x_oj = 1 for every client, L_o = n meets every row of the
    radius-lam system exactly, o being the coreset's lowest position.

    On the class system that point is X_oC = w_C, the class weight, for
    every class C.
    """
    sys = build_polytope(inst, lam, coreset)
    nf, n_cols = sys.facility_pos.size, sys.column_pair.size
    if np.count_nonzero(sys.pair_facility == sys.facility_pos[0]) != inst.n:
        return False
    mine = nf + np.flatnonzero(sys.pair_facility[sys.column_pair] == sys.facility_pos[0])
    vec = np.zeros(sys.n_vars)
    vec[[0, nf + n_cols]] = [1.0, inst.n]
    vec[mine] = np.bincount(sys.pair_column)[mine - nf]
    av = sys.a @ vec
    return bool(((sys.row_lower <= av) & (av <= sys.row_upper)).all())


def _stop_pool():
    """Seeded (instance, config) pool for the one-center stop.

    Euclidean instances on float and on integer coordinates (the latter hit
    max d(o, coreset) == 2*lam exactly), unbalanced colors so that some are
    globally over-represented, symmetric non-metric distance matrices, and
    alphas where alpha*n falls a float ulp short of a color's count.
    """
    rng = np.random.default_rng(2024)
    pool = []
    for t in range(220):
        n = int(rng.integers(5, 13))
        coords = rng.random((n, int(rng.integers(1, 3))))
        if t % 2:
            coords = np.round(coords * 4)
        n_colors = int(rng.integers(2, 5))
        colors = np.arange(n) % n_colors
        if t % 3 == 0:
            colors[:2] = 0  # tip color 0 over its share, at some alphas
        alpha = float(rng.choice([1 / 4, 1 / 3, 0.4, 1 / 2, 2 / 3, 1.0]))
        pool.append((make_instance(coords, rng.permutation(colors).tolist(), k=1, alpha=alpha), alpha))
    for _ in range(60):
        n = int(rng.integers(5, 11))
        upper = np.triu(10.0 ** rng.uniform(-1.0, 1.0, size=(n, n)), 1)
        colors = rng.permutation(np.arange(n) % 2)
        alpha = float(rng.choice([1 / 2, 2 / 3, 1.0]))
        inst = Instance(np.empty((n, 0)), colors, 1, alpha, dist_matrix=upper + upper.T)
        pool.append((inst, alpha))
    for num, den in [(13, 23), (15, 22), (15, 26)] * 10:
        # alpha * den rounds to just below num, so a color of num points passes
        # the global-share check while the one-center point breaks its cap
        colors = [0] * num + rng.integers(1, 4, size=den - num).tolist()
        pool.append((make_instance(rng.random((den, 2)), colors, k=1, alpha=num / den), num / den))
    return [
        (inst, RunConfig(
            k=int(rng.integers(1, 4)),
            alpha=alpha,
            epsilon=float(rng.choice([0.1, 0.25, 0.6])),
            m=int(rng.integers(1, 4)),
        ))
        for inst, alpha in pool
    ]


def test_one_center_stop_matches_ladder_walk(monkeypatch):
    accepted, solves = [], []
    real_milp = scipy.optimize.milp

    def counting_milp(*args, **kwargs):
        solves.append(1)
        return real_milp(*args, **kwargs)

    def recording_fair_k_center(*args, **kwargs):
        sol = fair_k_center(*args, **kwargs)
        accepted.append(sol is not None)
        return sol

    paths = {"stop": 0, "ladder": 0, "infeasible": 0, "error": 0}
    pool = _stop_pool()
    for inst, cfg in pool:
        try:
            ref_sol, ref_lam = _reference_faster_algorithm(inst, cfg)
            expect = ("ok", ref_sol.centers, ref_sol.assign)
        except (InfeasibleInstance, InputError) as exc:
            expect, ref_lam = (type(exc).__name__,), None

        accepted.clear()
        solves.clear()
        with monkeypatch.context() as patch:
            patch.setattr(scipy.optimize, "milp", counting_milp)
            patch.setattr(harness, "fair_k_center", recording_fair_k_center)
            try:
                sol, lam = faster_algorithm(inst, cfg)
                got = ("ok", sol.centers, sol.assign)
            except (InfeasibleInstance, InputError) as exc:
                got = (type(exc).__name__,)
        assert got == expect, (inst.n, cfg)
        if got[0] == "InfeasibleInstance":
            # a color above alpha*n is the only infeasible verdict, and it needs no solve
            assert not solves, (inst.n, cfg)
            paths["infeasible"] += 1
            continue
        if got[0] == "InputError":
            # off a metric, both walks can meet a merge beyond 3*lam
            paths["error"] += 1
            continue
        paths["ladder" if any(accepted) else "stop"] += 1

        # the rung reported is the first that meets the one-center certificate,
        # checked here from its parts, or else the walk's own accepted rung
        work, coreset, grid = _ladder(inst, cfg)
        core_pos = np.array(sorted(work.pos(i) for i in coreset))
        fits = _one_center_point_in(work, grid[-1], coreset)
        stop = next(
            (
                rung
                for rung in grid
                if rung < ref_lam
                and fits
                and len(select_separated_facilities(work, rung, core_pos).opened) == 1
                and (work.dist_row(core_pos[0]) <= 3.0 * rung).all()
            ),
            ref_lam,
        )
        assert lam == stop, (inst.n, cfg)
        assert solution_cost(inst, sol) <= 3.0 * lam + 1e-7

    print(f"one-center stop pool: {len(pool)} instances, paths {paths}")
    assert len(pool) >= 300
    assert paths["stop"] > 0 and paths["ladder"] > 0 and paths["infeasible"] > 0


def _walk_from(inst, restricted, grid):
    """The first solution of the fair_k_center walk over `grid`, or None."""
    return next(
        (sol for lam in grid if (sol := fair_k_center(inst, lam, restricted)) is not None), None
    )


def test_one_center_stop_conditions_against_the_walk():
    # o=0 and q=2 on a line; at radius 1 the polytope is empty, because o
    # must serve the two reds at -1 and 0 but reaches one blue only
    inst = make_instance(
        [(0.0,), (2.0,), (-1.0,), (1.0,), (3.0,), (3.0,)],
        ["r", "r", "r", "b", "b", "b"],
        k=2,
        alpha=0.5,
    )
    pair = [0, 1]
    # d(o, q) = 2*lam exactly: the separated set is {o}
    assert len(select_separated_facilities(inst, 1.0, np.array([0, 1])).opened) == 1
    assert one_center_stop(inst, pair, 1.0, 3.0) == 0
    single = _walk_from(inst, pair, [1.0, 3.0])
    assert single.centers == (0,) and set(single.assign.values()) == {0}
    # up to radius 1.5 the one-center point is outside the top polytope and
    # the walk finds nothing, so the stop must not fire
    assert _walk_from(inst, pair, [1.0, 1.5]) is None
    assert one_center_stop(inst, pair, 1.0, 1.5) is None

    # a non-metric matrix: q is 1 from o and from j, but j is 5 from o
    dm = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    far = Instance(np.empty((3, 0)), [0, 0, 0], k=1, alpha=1.0, dist_matrix=dm)
    with pytest.raises(InputError, match=r"d\(0,2\) > d\(0,1\) \+ d\(1,2\)"):
        _walk_from(far, [0, 1], [1.0])  # merging j onto o breaks 3*lam
    assert one_center_stop(far, [0, 1], 1.0, 5.0) is None
    assert one_center_stop(far, [0, 1], 2.0, 5.0) == 0
    assert _walk_from(far, [0, 1], [2.0]).centers == (0,)


def test_evaluate_off_a_metric_names_the_broken_triangle():
    # a non-metric matrix accepted by Instance: the lp route meets it in the merge
    dm = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    far = Instance(np.empty((3, 0)), [0, 0, 0], k=2, alpha=1.0, dist_matrix=dm)
    with pytest.raises(InputError, match=r"triangle inequality: d\(0,2\) > d\(0,1\) \+ d\(1,2\)"):
        evaluate(far, RunConfig(k=2, alpha=1.0, algorithm="lp"))


def test_one_center_stop_is_sound_for_any_facility_set():
    rng = np.random.default_rng(77)
    fired = 0
    for t in range(150):
        n = int(rng.integers(4, 10))
        colors = rng.integers(0, 2, size=n).tolist()
        alpha = float(rng.choice([1 / 2, 2 / 3, 1.0]))
        if t % 2:
            upper = np.triu(10.0 ** rng.uniform(-1.0, 1.0, size=(n, n)), 1)
            inst = Instance(np.empty((n, 0)), colors, 2, alpha, dist_matrix=upper + upper.T)
        else:
            inst = make_instance(np.round(rng.random((n, 2)) * 4), colors, k=2, alpha=alpha)
        restricted = sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())
        radii = np.unique(inst.pairwise())
        grid = sorted(rng.choice(np.concatenate([radii, radii / 2, radii / 3]), size=5).tolist())
        for i, lam in enumerate(grid):
            o = one_center_stop(inst, restricted, lam, grid[-1])
            if o is None:
                continue
            # the walk from lam on must give the one cluster at o, within 3*lam
            sol = _walk_from(inst, restricted, grid[i:])
            assert sol is not None and sol.centers == (inst.id_at(o),), (t, lam)
            assert solution_cost(inst, sol) <= 3.0 * lam * (1 + 1e-12) + 1e-7
            fired += 1
            break
    assert fired > 20


def _stop_rungs(inst, cfg, stop):
    """`stop`'s verdict on every rung of faster_algorithm's ladder for (inst, cfg)."""
    work, coreset, grid = _ladder(inst, cfg)
    return [stop(work, coreset, lam, grid[-1]) for lam in grid]


def test_one_center_stop_separation_reads_the_row_of_o():
    # max over facilities p of d(p, o), read from o's row, against one row per p
    fired = 0
    balanced = make_balanced_instance(50, 20, dim=10, k=25, alpha=0.1, seed=0)
    cases = _stop_pool() + [(balanced, RunConfig(k=25, alpha=0.1))]
    for inst, cfg in cases:
        got = _stop_rungs(inst, cfg, one_center_stop)
        assert got == _stop_rungs(inst, cfg, reference_one_center_stop), (inst.n, cfg)
        fired += any(o is not None for o in got)
    assert any(o is not None for o in got)  # the balanced instance stops on its ladder
    assert fired > 100


def test_rungs_the_prechecks_reject_build_no_rows(monkeypatch):
    # at this size every rung below the stop fails a pre-check, so the walk
    # never needs a constraint row
    inst = make_balanced_instance(50, 20, dim=10, k=25, alpha=0.1, seed=0)
    cfg = RunConfig(k=25, alpha=0.1)
    expected = faster_algorithm(inst, cfg)

    def no_rows(*args):
        raise AssertionError("constraint rows built for a rung without a solve")

    monkeypatch.setattr(lp_feasibility, "polytope_on", no_rows)
    monkeypatch.setattr(lp_rounding, "polytope_on", no_rows)
    assert faster_algorithm(inst, cfg) == expected


def test_histograms_add_up_labels_that_print_alike():
    inst = make_instance([(0.0,), (1.0,), (5.0,)], [1, "1", "b"], k=2, alpha=1.0)
    sol = reference_nearest_assignment(inst, [0, 2])
    cpos = center_positions(inst, sol)
    assert harness._histograms(inst, cpos, np.unique(cpos)) == {0: {"1": 2}, 2: {"b": 1}}


def test_with_params_keeps_the_instance_when_nothing_changes(unit_square):
    assert unit_square.with_params() is unit_square
    assert unit_square.with_params(k=2, alpha=0.5) is unit_square
    other = unit_square.with_params(k=3)
    assert other is not unit_square and other.k == 3 and other.alpha == 0.5
    assert unit_square.k == 2


def test_with_params_shares_the_validated_arrays(unit_square):
    matrix = unit_square.pairwise()
    other = unit_square.with_params(k=3, alpha=1.0)
    assert other.pairwise().tobytes() == matrix.tobytes()
    assert other.coords() is unit_square.coords()
    assert (unit_square.k, unit_square.alpha) == (2, 0.5)
    with pytest.raises(InputError, match="k must be"):
        unit_square.with_params(k=0)
    with pytest.raises(InputError, match="alpha must"):
        unit_square.with_params(alpha=0)


def test_make_balanced_instance_shape():
    inst = make_balanced_instance(n_colors=5, per_color=4, dim=3, k=2, alpha=0.5, seed=1)
    assert inst.n == 20
    assert inst.n_colors == 5
    assert set(np.bincount(inst.colors()).tolist()) == {4}


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


def test_run_config_takes_integer_counts_only(unit_square):
    for bad in ({"k": 2.5}, {"m": 1.5}, {"seed": 0.5}):
        with pytest.raises(InputError, match="must be an integer"):
            RunConfig(**{"k": 2, "alpha": 0.5} | bad)
    # numpy integers are stored as ints, so the report serializes
    cfg = RunConfig(k=np.int64(2), alpha=0.5, m=np.int32(2), seed=np.int64(3))
    assert all(type(v) is int for v in (cfg.k, cfg.m, cfg.seed))
    plain = RunConfig(k=2, alpha=0.5, seed=3)
    got, want = (report_to_json(evaluate(unit_square, c), include_wall=False) for c in (cfg, plain))
    assert got == want


def test_evaluate_infeasible_is_structured():
    inst = make_instance([(0.0,), (1.0,)], ["r", "r"], k=2, alpha=0.4)
    rep = evaluate(inst, RunConfig(k=2, alpha=0.4, algorithm="lp"))
    assert rep.status == "infeasible"
    assert rep.cost is None and rep.delta is None
    assert "delta_greedy" in report_to_dict(rep)
    ok = evaluate(inst, RunConfig(k=2, alpha=1.0, algorithm="lp"))
    assert report_to_dict(rep).keys() == report_to_dict(ok).keys()
    assert reports_to_csv([("pair", rep)]).splitlines()[1] == "pair,lp,2,0.4,0.1,2,,,,,1,1"


def test_report_views_carry_every_field(unit_square):
    rep = evaluate(unit_square, RunConfig(k=2, alpha=0.5, algorithm="lp", seed=3))
    names = {f.name for f in dataclasses.fields(rep)}
    assert report_to_dict(rep).keys() == names
    assert report_to_dict(rep, include_wall=False).keys() == names - {"wall_ms"}
    assert rep.params == {"k": 2, "alpha": 0.5, "epsilon": 0.1, "m": 2, "seed": 3, "n": 4, "n_colors": 2}
    header, row = reports_to_csv([("square", rep)]).splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["delta"] == str(rep.delta) and fields["m"] == "2"


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


def _baseline_pool() -> list[Instance]:
    """exactness_pool plus negative ids, coincident points and k = n variants."""
    rng = np.random.default_rng(13)
    pool = exactness_pool(2)
    for n in (7, 30):
        coords = rng.integers(0, 2, size=(n, 2)).astype(float)  # many coincident points
        colors = rng.integers(0, 3, size=n).tolist()
        ids = (rng.permutation(n) * 4 - 3 * n).tolist()  # shuffled, gapped, mostly negative
        pool.append(make_instance(coords, colors, k=3, alpha=0.5, ids=ids))
        pool.append(make_instance(np.zeros((n, 1)), colors, k=2, alpha=0.5, ids=ids))
    return pool + [inst.with_params(k=inst.n) for inst in pool[:: len(pool) // 8]]


def test_evaluate_baselines_equal_the_public_solutions():
    for inst in _baseline_pool():
        for algorithm, seed in (("greedy", 0), ("random", 17)):
            cfg = RunConfig(k=inst.k, alpha=inst.alpha, algorithm=algorithm, seed=seed)
            rep = evaluate(inst, cfg)
            gold_sol, gold_cost = greedy_gold(inst)
            assert gold_cost == reference_solution_cost(inst, gold_sol)
            rand_sols = [
                reference_nearest_assignment(inst, inst.ids_at(random_centers(inst, seed + r)).tolist())
                for r in range(harness.RANDOM_RERUNS)
            ]
            rand_cost = float(np.mean([reference_solution_cost(inst, s) for s in rand_sols]))
            rand_deltas = [max_additive_violation(inst, s, inst.alpha) for s in rand_sols]
            assert rep.delta_greedy == max_additive_violation(inst, gold_sol, inst.alpha)
            assert rep.delta_random == int(round(float(np.mean(rand_deltas))))
            assert rep.cost_vs_greedy == harness._ratio(rep.cost, gold_cost)
            assert rep.cost_vs_random == harness._ratio(rep.cost, rand_cost)
            sol = gold_sol if algorithm == "greedy" else rand_sols[0]
            assert rep.centers == list(sol.centers)
            assert rep.assignment == dict(sorted(sol.assign.items()))
            assert rep.cost == (gold_cost if algorithm == "greedy" else rand_cost)


# sha256 of report_to_json(..., include_wall=False) for each algorithm on
# _pinned_instance(), seed 4
PINNED_REPORTS = {
    "greedy": "f25748f70d98284550f690876ab5f6c9dcb77e8f6c68797d26159f603d970ca9",
    "random": "8a8a84845843bc4c654f0aea08cfeee7f577a9fe0bd8398f3cb0b05cc6b7ae14",
    "lp": "b4bfd441c08fa834dc11bdd780f6b4ddb54720ddad4a344309635897917568d1",
    "half": "7d3f3bab68ae610a46c11d9d396f4510f7051184c35fa52f27ae106b2bfcfff1",
}


def _pinned_instance() -> Instance:
    rng = np.random.default_rng(31)
    coords = rng.integers(0, 5, size=(14, 2)).astype(float)
    ids = (rng.permutation(14) * 5 - 30).tolist()
    return make_instance(coords, ["r", "b"] * 7, k=3, alpha=0.5, ids=ids)


@pytest.mark.parametrize("algorithm", sorted(PINNED_REPORTS))
def test_report_json_is_pinned(algorithm):
    rep = evaluate(_pinned_instance(), RunConfig(k=3, alpha=0.5, algorithm=algorithm, seed=4))
    assert rep.status == "ok"
    text = report_to_json(rep, include_wall=False)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[algorithm], text


def _relabel_pool() -> list[tuple[Instance, Instance, list[int]]]:
    """Seeded rows under ids 0..n-1 and under shuffled ids: (default, shuffled, shuffled ids).

    Integer grids and rounded 1-d coordinates tie everywhere; Gaussian
    coordinates still make every two-member cluster a 1-center tie; the
    integer matrices are metrics only now and then, so the LP route may
    raise on them.
    """
    rng = np.random.default_rng(1)
    pool = []
    for i in range(40):
        n = int(rng.integers(6, 40))
        colors = rng.integers(0, 3, size=n)
        kind = i % 4
        if kind == 0:
            coords, matrix = rng.integers(0, 5, size=(n, 2)).astype(float), None
        elif kind == 1:
            coords, matrix = rng.standard_normal((n, 2)), None
        elif kind == 2:
            coords, matrix = np.round(rng.standard_normal((n, 1)), 1), None
        else:
            upper = np.triu(rng.integers(1, 9, size=(n, n)), 1)
            coords, matrix = np.empty((n, 0)), (upper + upper.T).astype(float)
        ids = (rng.permutation(n) * 7 - 50).tolist()
        pool.append(tuple(
            Instance(coords, colors, 3, 0.5, ids=given, dist_matrix=matrix) for given in (None, ids)
        ) + (ids,))
    return pool


def _outcome(inst: Instance, cfg: RunConfig):
    """`evaluate`'s report without its wall time, or the type of the library error it raised."""
    try:
        return dataclasses.replace(evaluate(inst, cfg), wall_ms=0.0)
    except (InputError, lp_feasibility.SolverError) as exc:
        return type(exc)


@pytest.mark.parametrize("algorithm", ["greedy", "random", "lp", "half"])
def test_relabeling_ids_only_relabels_the_report(algorithm):
    # ties break by position, so the same rows under other ids give the same
    # clustering, with each id standing where its position stood
    cfg = RunConfig(k=3, alpha=0.5, algorithm=algorithm, seed=1)
    outcomes = {"ok": 0, "infeasible": 0, "raised": 0}
    for inst, relabeled, ids in _relabel_pool():
        expected, got = _outcome(inst, cfg), _outcome(relabeled, cfg)
        if isinstance(expected, type):
            outcomes["raised"] += 1
            assert got is expected
            continue
        outcomes[expected.status] += 1
        assert got == dataclasses.replace(
            expected,
            centers=sorted(ids[p] for p in expected.centers),
            assignment={ids[j]: ids[c] for j, c in expected.assignment.items()},
            histograms={ids[c]: h for c, h in expected.histograms.items()},
        )
    assert outcomes["ok"] >= 20, outcomes
