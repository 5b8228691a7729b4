import random
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from cappedkc import (
    InfeasibleInstance,
    RunConfig,
    SolverError,
    build_polytope,
    capped_opt,
    candidate_radii,
    check_feasible,
    fair_k_center,
    faster_algorithm,
    greedy_k_center,
    make_balanced_instance,
    make_instance,
    validate_point,
)
from cappedkc.core import ceil_inv_alpha
from cappedkc import lp_feasibility, lp_rounding
from cappedkc.lp_feasibility import (
    RADIUS_SLACK,
    LinearSystem,
    _solve_highs,
    passes_prechecks,
    polytope_on,
    radius_pairs,
)
from conftest import family_rows, min_feasible_radius, random_capped_instance, solve_system


def test_ceil_inv_alpha():
    assert ceil_inv_alpha(0.5) == 2
    assert ceil_inv_alpha(0.3) == 4
    assert ceil_inv_alpha(1 / 3) == 3
    assert ceil_inv_alpha(0.1) == 10
    assert ceil_inv_alpha(1.0) == 1


def test_radius_prunes_variables():
    inst = make_instance([(0.0,), (1.0,)], ["r", "b"], k=2, alpha=0.5)
    sys = build_polytope(inst, 0.5)
    assert sys.pair_facility.tolist() == [0, 1] and sys.pair_client.tolist() == [0, 1]
    sys = build_polytope(inst, 1.0)
    assert sys.pair_client.size == 4


def test_minload_coefficient_matches_ceiling():
    inst = make_instance([(0.0,), (0.0,)], ["r", "b"], k=1, alpha=0.3)
    sys = build_polytope(inst, 1.0)
    minload = family_rows(sys, "minload")
    assert minload[:, : sys.facility_pos.size].data.tolist() == [4.0, 4.0]  # ceil(1/0.3) y_i


def test_coincident_pair_feasible_at_zero():
    inst = make_instance([(0.0,), (0.0,)], ["r", "b"], k=1, alpha=0.5)
    frac = check_feasible(build_polytope(inst, 0.0))
    assert frac is not None
    assert frac.y.sum() <= 1 + 1e-7


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
    got = min_feasible_radius(unit_square, (0.5, 1.0, 2.0))
    assert got is not None
    lam, frac = got
    assert lam == 1.0
    assert frac.x.size


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
        lam = max(candidate_radii(inst))
        if check_feasible(build_polytope(inst, lam)) is not None:
            for count in np.bincount(inst.colors()).tolist():
                assert count <= inst.alpha * inst.n + 1e-7 * inst.n


def test_returned_points_satisfy_every_row():
    # check_feasible re-validates internally; spot-check x/y shapes and ranges here
    rng = random.Random(57)
    for _ in range(10):
        inst = random_capped_instance(rng, n=6, n_colors=3, k=2, alpha=0.5)
        lam = max(candidate_radii(inst))
        frac = check_feasible(build_polytope(inst, lam))
        if frac is None:
            continue
        assert ((frac.x > 0) & (frac.x <= 1 + 1e-7)).all()
        assert ((frac.y >= -1e-7) & (frac.y <= 1 + 1e-7)).all()
        cover = np.bincount(frac.client, weights=frac.x, minlength=inst.n)
        assert np.abs(cover - 1.0).max() <= 1e-6


def test_validate_point_flags_corruption(unit_square):
    sys = build_polytope(unit_square, 1.0)
    vec = solve_system(sys)
    assert vec is not None
    assert validate_point(sys, vec) == []
    vec[0] = 2.0  # push an opening variable past its unit bound
    assert "variable bound violated" in validate_point(sys, vec)


def test_check_feasible_slices_the_solver_point():
    # restricted facilities and ids out of position order: the point is the
    # solver vector's class columns spread over their pairs, its support in
    # pair order, with y zero off the facility set
    inst = make_instance(
        [(0.0,), (0.0,), (1.0,), (1.0,)], ["r", "b", "r", "b"], k=2, alpha=0.5, ids=[7, 3, 9, 1]
    )
    sys = build_polytope(inst, 1.0, [9, 3])
    vec = solve_system(sys)
    frac = check_feasible(sys)
    assert vec is not None and frac is not None
    assert sys.facility_pos.tolist() == [1, 2]
    # both facilities reach every client: the classes are the reds {0, 2}
    # and the blues {1, 3}, one column per (facility, class) of weight 2
    assert sys.pair_column.tolist() == [0, 1, 0, 1, 2, 3, 2, 3]
    assert sys.column_pair.tolist() == [0, 1, 4, 5]
    assert sys.upper[2:6].tolist() == [2.0] * 4
    x = vec[2 + sys.pair_column] / 2.0
    support = x > 1e-12
    assert not support.all()  # the filter has something to drop
    assert frac.facility.tolist() == sys.pair_facility[support].tolist()
    assert frac.client.tolist() == sys.pair_client[support].tolist()
    assert frac.x.tolist() == x[support].tolist()
    assert frac.y.tolist() == [0.0, vec[0], vec[1], 0.0]


def test_integral_optimum_lies_in_polytope():
    # every integral capped clustering must survive the row pruning
    rng = random.Random(61)
    checked = merged = 0
    for _ in range(40):
        inst = random_capped_instance(
            rng,
            n=rng.randint(3, 8),
            n_colors=rng.choice([2, 3]),
            k=rng.randint(1, 3),
            alpha=rng.choice([0.5, 1 / 3, 0.6]),
        )
        try:
            cost, sol = capped_opt(inst)
        except InfeasibleInstance:
            continue
        sys = build_polytope(inst, cost)
        clusters = sol.clusters()
        nf, n_cols = sys.facility_pos.size, sys.column_pair.size
        vec = np.zeros(sys.n_vars)
        for c, f in enumerate(sys.facility_pos.tolist()):
            vec[c] = float(inst.id_at(f) in clusters)
            vec[nf + n_cols + c] = len(clusters.get(inst.id_at(f), ()))
        # X_iC counts the members of class C assigned to i
        for c, (f, j) in enumerate(zip(sys.pair_facility.tolist(), sys.pair_client.tolist())):
            if sol.assign[inst.id_at(j)] == inst.id_at(f):
                vec[nf + sys.pair_column[c]] += 1.0
        assert validate_point(sys, vec) == []
        merged += n_cols < sys.pair_client.size
        checked += 1
    assert checked >= 20 and merged >= 3


def test_polytope_row_counts():
    rng = random.Random(67)
    for _ in range(20):
        inst = random_capped_instance(rng, n=rng.randint(3, 9), n_colors=3, k=2, alpha=0.5)
        lam = rng.choice(candidate_radii(inst))
        sys = build_polytope(inst, lam)
        classes = _reference_classes(inst, sys)
        assert list(sys.families) == ["cover", "open", "load", "colorcap", "minload", "budget"]
        # the families tile the rows of `a`: the <= families in the order
        # open, colorcap, minload, budget, then the equality rows cover and load
        spans = [(sys.families[f].start, sys.families[f].stop) for f in
                 ("open", "colorcap", "minload", "budget", "cover", "load")]
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == sys.a.shape[0] == sys.row_lower.size == sys.row_upper.size
        cover, load = sys.families["cover"], sys.families["load"]
        assert np.isneginf(sys.row_lower[: cover.start]).all()
        assert np.array_equal(sys.row_lower[cover.start :], sys.row_upper[cover.start :])
        assert cover.stop - cover.start == len(classes)
        assert load.stop - load.start == sys.facility_pos.size
        # one cover row per class, holding its weight; one open row per x column
        assert sys.row_upper[cover].tolist() == [float(len(members)) for _, members in classes]
        assert sys.families["open"].stop - sys.families["open"].start == sys.column_pair.size
        got = np.flatnonzero(family_rows(sys, "cover").getnnz(axis=1))
        assert got.tolist() == [c for c, (reach, _) in enumerate(classes) if reach]
        cap = family_rows(sys, "colorcap")
        assert (cap.max(axis=1).toarray() > 0).all()
        # every x column sits in exactly one cap row
        nf = sys.facility_pos.size
        assert sorted(cap.indices[cap.data > 0].tolist()) == list(range(nf, sys.n_vars - nf))


def test_colorcap_rows_match_loop_reference():
    rng = random.Random(71)
    for _ in range(15):
        inst = random_capped_instance(
            rng, n=rng.randint(3, 8), n_colors=3, k=2, alpha=rng.choice([0.5, 1 / 3])
        )
        lam = rng.choice(candidate_radii(inst))
        restricted = rng.sample(inst.ids(), rng.randint(1, inst.n))
        sys = build_polytope(inst, lam, restricted)
        columns = _reference_columns(inst, sys)
        nf, n_cols = sys.facility_pos.size, len(columns)
        assert sys.n_vars == nf + n_cols + nf
        expected = []
        for f, i in enumerate(sys.facility_pos.tolist()):
            members = [
                (nf + c, inst.colors()[js[0]]) for c, (fac, js) in enumerate(columns) if fac == i
            ]
            for color in range(inst.n_colors):
                if all(mc != color for _, mc in members):
                    continue
                row = np.zeros(sys.n_vars)
                for col, mc in members:
                    if mc == color:
                        row[col] = 1.0
                row[nf + n_cols + f] = -inst.alpha
                expected.append(row)
        got = family_rows(sys, "colorcap").toarray()
        assert np.array_equal(got, np.array(expected).reshape(-1, sys.n_vars))


def _reference_build_polytope(inst, lam, restricted_facilities=None) -> LinearSystem:
    """The dense-colorcap system without load columns, built pair by pair.

    Each cap row reads sum_{j in c} (1 - alpha) x_ij - sum_{j not in c}
    alpha x_ij <= 0 and spans the facility's whole support; minload reads
    ceil(1/alpha) y_i - sum_j x_ij <= 0.  Columns are y then x, all in [0, 1].
    """
    fac_pos, pairs = _reference_pairs(inst, lam, restricted_facilities)
    nf = len(fac_pos)
    n_vars = nf + len(pairs)
    rows: dict[str, list[tuple[dict[int, float], float]]] = {
        "cover": [], "open": [], "colorcap": [], "minload": [], "budget": []
    }
    for j in range(inst.n):
        rows["cover"].append(({nf + c: 1.0 for c, p in enumerate(pairs) if p[1] == j}, 1.0))
    for c, (f, _) in enumerate(pairs):
        rows["open"].append(({nf + c: 1.0, f: -1.0}, 0.0))
    for f in range(nf):
        own = [(nf + c, inst.colors()[j]) for c, (g, j) in enumerate(pairs) if g == f]
        for color in sorted({mc for _, mc in own}):
            coeffs = {col: (1.0 - inst.alpha if mc == color else -inst.alpha) for col, mc in own}
            rows["colorcap"].append((coeffs, 0.0))
    for f in range(nf):
        coeffs = {nf + c: -1.0 for c, (g, _) in enumerate(pairs) if g == f}
        coeffs[f] = float(ceil_inv_alpha(inst.alpha))
        rows["minload"].append((coeffs, 0.0))
    rows["budget"].append(({f: 1.0 for f in range(nf)}, float(inst.k)))

    return _system_from_rows(inst, lam, fac_pos, pairs, rows, ("cover",), np.ones(n_vars))


def _system_from_rows(inst, lam, fac_pos, pairs, rows, equalities, upper) -> LinearSystem:
    """A per-client LinearSystem, one x column per pair, from its families' rows.

    `rows` maps each family to its (coefficients by column, right-hand side)
    rows.  As in polytope_on, the <= families stack first, then the
    `equalities` families, each group in the order of `rows`.
    """
    order = [f for f in rows if f not in equalities] + [f for f in rows if f in equalities]
    spans, stacked = {}, []
    for family in order:
        spans[family] = slice(len(stacked), len(stacked) + len(rows[family]))
        stacked += rows[family]
    r, c, v = zip(
        *((idx, col, val) for idx, (coeffs, _) in enumerate(stacked) for col, val in coeffs.items())
    )
    rhs = np.array([b for _, b in stacked])
    n_ub = min(spans[f].start for f in equalities)
    return LinearSystem(
        lam=lam,
        alpha=inst.alpha,
        n_points=inst.n,
        facility_pos=np.array(fac_pos, dtype=int),
        pair_facility=np.array([fac_pos[f] for f, _ in pairs], dtype=int),
        pair_client=np.array([j for _, j in pairs], dtype=int),
        pair_color=np.array([inst.colors()[j] for _, j in pairs], dtype=int),
        pair_column=np.arange(len(pairs)),
        column_pair=np.arange(len(pairs)),
        a=sp.csc_matrix((v, (r, c)), shape=(len(stacked), upper.size)),
        row_lower=np.concatenate([np.full(n_ub, -np.inf), rhs[n_ub:]]),
        row_upper=rhs,
        families={family: spans[family] for family in rows},
        upper=upper,
    )


def _reference_pairs(inst, lam, restricted_facilities):
    """The facility positions and the in-radius (local facility index, client) pairs, by loops."""
    if restricted_facilities is None:
        fac_pos = list(range(inst.n))
    else:
        fac_pos = sorted(inst.pos(i) for i in restricted_facilities)
    radius = lam * (1.0 + RADIUS_SLACK)
    pairs = [
        (f, j) for f, fp in enumerate(fac_pos) for j in range(inst.n)
        if inst.dist_row(fp)[j] <= radius
    ]
    return fac_pos, pairs


def _per_client_system(inst, lam, restricted_facilities=None) -> LinearSystem:
    """The per-client system in polytope_on's layout, built row by row.

    Columns are y, one x per pair, then one load L per facility; the rows
    are unit cover, load, x_ij <= y_i, the colorcap rows of polytope_on,
    minload and budget.  It is the class system when every class is a
    single client, and the dense reference's polytope with the loads kept
    as columns.
    """
    fac_pos, pairs = _reference_pairs(inst, lam, restricted_facilities)
    nf, n_pairs = len(fac_pos), len(pairs)
    load = nf + n_pairs
    rows: dict[str, list[tuple[dict[int, float], float]]] = {
        "cover": [], "load": [], "open": [], "colorcap": [], "minload": [], "budget": []
    }
    for j in range(inst.n):
        rows["cover"].append(({nf + c: 1.0 for c, p in enumerate(pairs) if p[1] == j}, 1.0))
    for f in range(nf):
        coeffs = {nf + c: -1.0 for c, (g, _) in enumerate(pairs) if g == f}
        rows["load"].append(({load + f: 1.0, **coeffs}, 0.0))
    for c, (f, _) in enumerate(pairs):
        rows["open"].append(({nf + c: 1.0, f: -1.0}, 0.0))
    for f in range(nf):
        own = [(nf + c, inst.colors()[j]) for c, (g, j) in enumerate(pairs) if g == f]
        for color in sorted({mc for _, mc in own}):
            coeffs = {col: 1.0 for col, mc in own if mc == color}
            rows["colorcap"].append(({**coeffs, load + f: -inst.alpha}, 0.0))
    for f in range(nf):
        rows["minload"].append(({load + f: -1.0, f: float(ceil_inv_alpha(inst.alpha))}, 0.0))
    rows["budget"].append(({f: 1.0 for f in range(nf)}, float(inst.k)))
    upper = np.concatenate([np.ones(nf + n_pairs), np.full(nf, np.inf)])
    return _system_from_rows(inst, lam, fac_pos, pairs, rows, ("cover", "load"), upper)


def _reference_classes(inst, sys) -> list[tuple[frozenset, list[int]]]:
    """(in-radius facility set, clients) per client class, ordered by lowest client.

    A class is the clients with one color and one in-radius facility set,
    read off the system's pairs by a loop.
    """
    reach: dict[int, set] = {j: set() for j in range(inst.n)}
    for f, j in zip(sys.pair_facility.tolist(), sys.pair_client.tolist()):
        reach[j].add(f)
    groups: dict[tuple, list[int]] = {}
    for j in range(inst.n):
        groups.setdefault((int(inst.colors()[j]), frozenset(reach[j])), []).append(j)
    return sorted(((key[1], members) for key, members in groups.items()), key=lambda g: g[1][0])


def _reference_columns(inst, sys) -> list[tuple[int, list[int]]]:
    """(facility position, class clients) per x column, ordered by (facility, class)."""
    classes = _reference_classes(inst, sys)
    return [
        (f, members) for f in sys.facility_pos.tolist() for reach, members in classes if f in reach
    ]


def _equivalence_instance(rng: random.Random):
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
    if rng.random() < 0.5:
        colors = [j % n_colors for j in range(n)]
        rng.shuffle(colors)
    else:
        colors = [rng.randrange(n_colors) for _ in range(n)]
    alpha = rng.choice([1 / 2, 1 / 3, 0.3, 0.1])
    return make_instance(coords, colors, k=rng.randint(1, 4), alpha=alpha)


def test_compact_system_matches_dense_reference():
    rng = random.Random(73)
    verdicts = {True: 0, False: 0}
    merged = 0
    for _ in range(300):
        inst = _equivalence_instance(rng)
        radii = candidate_radii(inst)
        # the upper half of the radii, where most feasible systems lie, half the time
        lam = rng.choice(radii[len(radii) // 2 :] if rng.random() < 0.5 else radii)
        restricted = None
        if rng.random() < 0.6:
            restricted = rng.sample(inst.ids(), rng.randint(1, inst.n))
        sys = build_polytope(inst, lam, restricted)
        ref = _reference_build_polytope(inst, lam, restricted)
        for name in ("facility_pos", "pair_facility", "pair_client", "pair_color"):
            assert np.array_equal(getattr(sys, name), getattr(ref, name)), name
        columns = _reference_columns(inst, sys)
        assert [sys.pair_facility[p] for p in sys.column_pair] == [f for f, _ in columns]
        assert [sys.pair_client[p] for p in sys.column_pair] == [js[0] for _, js in columns]
        if not np.bincount(sys.pair_client, minlength=inst.n).all():
            continue
        vec = solve_system(sys)
        ref_vec = solve_system(ref)
        assert (vec is None) == (ref_vec is None)
        verdicts[vec is not None] += 1
        merged += len(columns) < ref.pair_client.size
        if vec is not None:
            assert validate_point(sys, vec) == []
            # the per-client point check_feasible hands on meets every reference row
            frac = check_feasible(sys)
            assert validate_point(ref, _per_client_vector(ref, frac)) == []
    assert min(verdicts.values()) >= 40 and merged >= 100


def _per_client_vector(ref, frac) -> np.ndarray:
    """The point as a vector of the per-client reference `ref`: y, then x per pair."""
    mass = dict(zip(zip(frac.facility.tolist(), frac.client.tolist()), frac.x.tolist()))
    pairs = zip(ref.pair_facility.tolist(), ref.pair_client.tolist())
    x = [mass.get(pair, 0.0) for pair in pairs]
    return np.concatenate([frac.y[ref.facility_pos], x])


def test_singleton_classes_give_the_per_client_system():
    # all colors distinct makes every class one client; then the class system
    # is the per-client one array for array, and HiGHS returns the same bits
    rng = random.Random(74)
    feasible = 0
    for i in range(60):
        n = rng.randint(3, 10)
        coords = [(rng.random(), rng.random()) for _ in range(n)]
        alpha = rng.choice([1 / 2, 1 / 3])
        inst = make_instance(coords, list(range(n)), k=rng.randint(1, 4), alpha=alpha)
        radii = candidate_radii(inst)
        lam = rng.choice(radii[len(radii) // 2 :])
        restricted = rng.sample(inst.ids(), rng.randint(1, inst.n)) if i % 2 else None
        sys = build_polytope(inst, lam, restricted)
        ref = _per_client_system(inst, lam, restricted)
        assert np.array_equal(sys.pair_column, np.arange(sys.pair_client.size))
        assert np.array_equal(sys.column_pair, sys.pair_column)
        assert sys.a.shape == ref.a.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sys.a, part), getattr(ref.a, part)), part
        for name in ("row_lower", "row_upper", "upper"):
            assert getattr(sys, name).tobytes() == getattr(ref, name).tobytes(), name
        assert sys.families == ref.families
        vec, ref_vec = solve_system(sys), solve_system(ref)
        assert (vec is None) == (ref_vec is None)
        if vec is not None:
            assert vec.tobytes() == ref_vec.tobytes()
            frac = check_feasible(sys)
            nf = sys.facility_pos.size
            x = vec[nf : nf + sys.pair_client.size]
            assert frac.x.tobytes() == x[x > 1e-12].tobytes()
            feasible += 1
    assert feasible >= 15


def test_nonzeros_stay_linear_in_pairs():
    rng = random.Random(79)
    for _ in range(20):
        inst = random_capped_instance(
            rng, n=rng.randint(3, 12), n_colors=rng.randint(2, 4), k=2, alpha=0.3
        )
        lam = rng.choice(candidate_radii(inst))
        restricted = rng.sample(inst.ids(), rng.randint(1, inst.n))
        sys = build_polytope(inst, lam, restricted)
        nf, n_cols = sys.facility_pos.size, sys.column_pair.size
        assert n_cols <= sys.pair_client.size
        n_cap = family_rows(sys, "colorcap").shape[0]
        nnz = sys.a.nnz
        # linear in the x columns, of which there are at most as many as pairs
        assert nnz == 5 * n_cols + n_cap + 4 * nf


def test_validate_point_flags_corrupted_load(unit_square):
    sys = build_polytope(unit_square, 1.0)
    vec = solve_system(sys)
    assert vec is not None and validate_point(sys, vec) == []
    nf, n_pairs = sys.facility_pos.size, sys.pair_client.size
    opened = int(np.argmax(vec[:nf]))
    vec[nf + n_pairs + opened] += 0.5  # L_i no longer equals its x mass
    assert any(msg.startswith("load") for msg in validate_point(sys, vec))
    vec[nf + n_pairs + opened] = -1.0  # below the load column's lower bound
    assert "variable bound violated" in validate_point(sys, vec)


def test_validate_point_rechecks_caps_on_x(unit_square):
    # a point that meets the cap rows only through inflated loads still fails
    sys = build_polytope(unit_square, 1.0)
    nf, n_pairs = sys.facility_pos.size, sys.pair_client.size
    vec = np.zeros(sys.n_vars)
    vec[0] = 1.0
    same_color = np.flatnonzero((sys.pair_facility == 0) & (sys.pair_client <= 1))
    vec[[nf + c for c in same_color]] = 1.0
    vec[nf + n_pairs] = 4.0
    problems = validate_point(sys, vec)
    assert any(msg.startswith("color cap on x") for msg in problems)


def test_one_solve_builds_no_rows(unit_square, monkeypatch):
    # HiGHS reads the system's own matrix and row bounds: polytope_on builds
    # the rows once, and the solve constructs no sparse matrix
    sys = build_polytope(unit_square, 1.0)
    built, given = [], []
    csc, milp = sp.csc_matrix, scipy.optimize.milp

    def counting(*args, **kwargs):
        built.append(1)
        return csc(*args, **kwargs)

    def recording(*args, **kwargs):
        given.append(kwargs)
        return milp(*args, **kwargs)

    monkeypatch.setattr(sp, "csc_matrix", counting)
    monkeypatch.setattr(scipy.optimize, "milp", recording)
    assert check_feasible(sys) is not None
    assert built == [] and len(given) == 1
    rows, bounds = given[0]["constraints"], given[0]["bounds"]
    assert rows.A is sys.a
    assert np.array_equal(rows.lb, sys.row_lower) and np.array_equal(rows.ub, sys.row_upper)
    assert np.array_equal(bounds.ub, sys.upper)


def test_solver_failure_raises(unit_square, monkeypatch):
    def failing(*args, **kwargs):
        return SimpleNamespace(status=4, message="numerical difficulties", x=None)

    monkeypatch.setattr(scipy.optimize, "milp", failing)
    with pytest.raises(SolverError, match="HiGHS status 4: numerical difficulties"):
        check_feasible(build_polytope(unit_square, 1.0))


def _recording_milp(monkeypatch) -> list[tuple[dict, object]]:
    """Record the keyword arguments and result of every `milp` call."""
    calls = []
    real = scipy.optimize.milp

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((kwargs, res))
        return res

    monkeypatch.setattr(scipy.optimize, "milp", recording)
    return calls


@pytest.fixture(scope="module")
def wide_system():
    """The LP route's instance and coreset at n=1000, d=10, 50 colors.

    At 4.3446 its 1,000 clients form 999 classes, and its system has 9,330
    columns.
    """
    inst = make_balanced_instance(50, 20, dim=10, k=25, alpha=0.1, seed=0)
    coreset, _ = greedy_k_center(inst.with_params(k=50))
    return inst, sorted(coreset.centers, key=inst.pos)


def test_every_solve_uses_the_dual_simplex(unit_square, wide_system, monkeypatch):
    # one HiGHS call whatever the system's width, on feasible and empty
    # systems alike: a continuous program with no solver option, which HiGHS
    # solves by its LP default, the dual simplex
    inst, coreset = wide_system
    calls = _recording_milp(monkeypatch)
    assert check_feasible(build_polytope(unit_square, 1.0)) is not None
    sys = build_polytope(inst, 4.3446, coreset)
    assert sys.n_vars == 9_330
    first = check_feasible(sys)
    second = check_feasible(sys)
    assert first is not None and second is not None
    assert validate_point(sys, np.asarray(calls[1][1].x)) == []
    for name in ("facility", "client", "x", "y"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # at 4.2 the polytope is empty; at 4.3446 a budget of 2 openings cannot
    # cover every client
    assert check_feasible(build_polytope(inst, 4.2, coreset)) is None
    assert check_feasible(build_polytope(inst.with_params(k=2), 4.3446, coreset)) is None
    assert len(calls) == 5
    for kwargs, _ in calls:
        assert kwargs["integrality"] is None and kwargs["options"] == {"output_flag": False}


def _linprog_reference(sys) -> np.ndarray | None:
    """`linprog(method="highs")` on the <= and the equality rows of `a`; None when infeasible."""
    a = sys.a.tocsr()
    ub = np.isneginf(sys.row_lower)
    res = scipy.optimize.linprog(
        np.zeros(sys.n_vars),
        A_ub=a[ub],
        b_ub=sys.row_upper[ub],
        A_eq=a[~ub],
        b_eq=sys.row_upper[~ub],
        bounds=np.column_stack([np.zeros(sys.n_vars), sys.upper]),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else res.x


def test_solve_returns_the_linprog_vertex(wide_system):
    # the one HiGHS call returns, bit for bit, the vertex linprog's dual
    # simplex returns on the same rows, or reports infeasible with it
    rng = random.Random(89)
    systems = []
    for _ in range(310):
        inst = random_capped_instance(
            rng,
            n=rng.randint(6, 40),
            n_colors=rng.randint(2, 5),
            k=rng.randint(1, 4),
            alpha=rng.choice([1 / 2, 1 / 3, 1 / 4, 0.3, 0.4]),
        )
        radii = candidate_radii(inst)
        lam = rng.choice(radii[len(radii) // 2 :] if rng.random() < 0.7 else radii)
        # most systems on a coreset-sized facility set, as the route solves them
        restricted = None
        if rng.random() < 0.7:
            restricted = rng.sample(inst.ids(), rng.randint(1, min(inst.n, 12)))
        systems.append(build_polytope(inst, lam, restricted))
    inst, coreset = wide_system
    systems += [build_polytope(inst, 4.3446, coreset), build_polytope(inst, 4.2, coreset)]
    found = []
    for sys in systems:
        got, want = solve_system(sys), _linprog_reference(sys)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()
        found.append(got is not None)
    assert min(found.count(True), found.count(False)) >= 100
    # the wide system is feasible at 4.3446 and empty at 4.2
    assert found[-2:] == [True, False]


def _counting_solves(monkeypatch) -> list[int]:
    """Count `_solve_highs` calls made through `check_feasible`."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return _solve_highs(*args, **kwargs)

    monkeypatch.setattr(lp_feasibility, "_solve_highs", counting)
    return calls


def test_color_starved_rung_rejected_without_a_solve(monkeypatch):
    # alpha = 1/2: a facility must see 2 colors.  At lambda = 0 every point
    # covers itself, but the one-color blobs at 10 and 20 reach no facility
    # that sees both colors; at lambda = 10 the blob at 10 sees every point.
    inst = make_instance(
        [(0.0,), (0.0,), (10.0,), (10.0,), (20.0,), (20.0,)],
        ["r", "b", "r", "r", "b", "b"],
        k=1,
        alpha=0.5,
    )
    calls = _counting_solves(monkeypatch)
    pairs = radius_pairs(inst, 0.0)
    assert np.bincount(pairs.pair_client, minlength=inst.n).all()
    assert not passes_prechecks(pairs)
    assert fair_k_center(inst, 0.0) is None
    assert calls[0] == 0
    assert check_feasible(polytope_on(inst, pairs)) is None  # HiGHS agrees
    assert candidate_radii(inst)[1] == 10.0
    assert passes_prechecks(radius_pairs(inst, 10.0))
    assert check_feasible(build_polytope(inst, 10.0)) is not None
    assert calls[0] == 2


def _blob_instance(rng: random.Random, alpha: float):
    """A few blobs, each with its own color palette, so color-starved facilities are common."""
    need = ceil_inv_alpha(alpha)
    n_colors = rng.randint(max(2, need - 1), need + 2)
    n_blobs = rng.randint(2, 4)
    centers = [(rng.random() * 4, rng.random() * 4) for _ in range(n_blobs)]
    palettes = [rng.sample(range(n_colors), rng.randint(1, n_colors)) for _ in range(n_blobs)]
    coords, colors = [], []
    for _ in range(rng.randint(n_colors, n_colors + 8)):
        b = rng.randrange(n_blobs)
        coords.append((centers[b][0] + rng.gauss(0, 0.2), centers[b][1] + rng.gauss(0, 0.2)))
        colors.append(rng.choice(palettes[b]))
    return make_instance(coords, colors, k=rng.randint(1, 3), alpha=alpha)


def test_color_precheck_rejects_only_empty_polytopes(monkeypatch):
    # alphas with 1/alpha just above an integer are left out: HiGHS can
    # report an unknown status there, whatever the pre-check does
    alphas = [1 / 2, 1 / 3, 0.3, 1 / 4, 0.2, 0.1, 0.34]
    calls = _counting_solves(monkeypatch)
    rng = random.Random(83)
    rejected = 0
    for i in range(140):
        inst = _blob_instance(rng, alphas[i % len(alphas)])
        restricted = rng.sample(inst.ids(), rng.randint(1, inst.n)) if i % 2 else None
        radii = candidate_radii(inst)
        for lam in sorted(rng.sample(radii, min(4, len(radii)))):
            pairs = radius_pairs(inst, lam, restricted)
            if not np.bincount(pairs.pair_client, minlength=inst.n).all():
                continue
            if not passes_prechecks(pairs):
                # the rung is rejected without a solve, and the polytope is empty
                before = calls[0]
                assert fair_k_center(inst, lam, restricted) is None
                assert calls[0] == before
                assert solve_system(polytope_on(inst, pairs)) is None
                rejected += 1
    assert rejected >= 300


def _stacked_pairs(inst, lam, restricted):
    """radius_pairs' arrays from a freshly stacked facility block."""
    fac = np.arange(inst.n) if restricted is None else np.unique([inst.pos(i) for i in restricted])
    rows = np.stack([inst.dist_row(p) for p in fac.tolist()])
    pf, pj = np.divmod(np.flatnonzero(rows <= lam * (1.0 + RADIUS_SLACK)), inst.n)
    return fac, fac[pf], pj


def test_radius_pairs_equal_a_fresh_stack_as_the_facility_set_changes():
    rng = np.random.default_rng(8)
    inst = make_instance(rng.standard_normal((40, 3)), rng.integers(0, 3, 40).tolist(), k=4, alpha=0.5)
    ids = inst.ids()
    a, b = [ids[j] for j in (3, 0, 17, 9)], [ids[j] for j in (5, 38, 21)]
    radii = (0.0, 0.5, 1.2, 3.0)
    for work in (inst, inst, inst.with_params(k=6), inst.with_params(alpha=1 / 3)):
        for restricted in (a, b, a, None, b, None, a, list(reversed(a))):
            for lam in radii:
                got = lp_feasibility.radius_pairs(work, lam, restricted)
                fac, pf, pj = _stacked_pairs(work, lam, restricted)
                assert np.array_equal(got.facility_pos, fac)
                assert np.array_equal(got.pair_facility, pf)
                assert np.array_equal(got.pair_client, pj)
                assert np.array_equal(got.pair_color, work.colors()[pj])
    fac = np.unique(inst.positions(a))
    block = inst.dist_rows(fac)
    assert inst.dist_rows(fac) is block and not block.flags.writeable


def test_ladder_stacks_the_coreset_rows_once(monkeypatch):
    inst = make_balanced_instance(50, 20, dim=10, k=25, alpha=0.1, seed=0)
    cfg = RunConfig(k=25, alpha=0.1)
    shapes, pair_calls = [], []
    stack, pairs = np.stack, lp_rounding.radius_pairs

    def counting_stack(arrays, *args, **kwargs):
        out = stack(arrays, *args, **kwargs)
        shapes.append(out.shape)
        return out

    def counting_pairs(*args, **kwargs):
        pair_calls.append(len(args[2]))  # the coreset each rung is restricted to
        return pairs(*args, **kwargs)

    monkeypatch.setattr(np, "stack", counting_stack)
    monkeypatch.setattr(lp_rounding, "radius_pairs", counting_pairs)
    faster_algorithm(inst, cfg)
    assert len(pair_calls) == 4  # the rungs before the one-center stop, each rejected by the pre-checks
    (coreset_size,) = set(pair_calls)
    assert shapes.count((coreset_size, inst.n)) == 1
