import random
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from cappedkc import (
    BipartiteSeed,
    InfeasibleInstance,
    InputError,
    SolverError,
    capped_opt,
    check_capped,
    fair_k_center,
    hardness_instance,
    make_instance,
    solution_cost,
)
from cappedkc import hardness
from cappedkc.hardness import _capped_solution, _capped_system, _star_counts
from conftest import (
    brute_force_capped_opt,
    brute_force_kcenter_opt,
    capped_partition_exists_bruteforce,
    line_instance,
    random_capped_instance,
    t_star_decomposition_exists,
    tiny_seeds,
)


def seed_21(edges, t=0):
    return BipartiteSeed(2, 1, tuple(edges), t)


def test_star_counts_three_three():
    assert _star_counts(BipartiteSeed(3, 3, ())) == (1, 1)
    assert _star_counts(BipartiteSeed(2, 1, ())) == (1, 0)
    assert _star_counts(BipartiteSeed(1, 0, ())) is None
    inst = hardness_instance(BipartiteSeed(3, 3, ((0, 0), (1, 0), (2, 1)), 0))
    # solvable system: four layers of total size 4*(n1+n2)
    assert inst.n == 24


def test_unsolvable_system_gives_trivial_instance():
    inst = hardness_instance(BipartiteSeed(1, 0, (), 0))
    assert inst.n == 1
    assert inst.color_labels[inst.colors()[0]] == "red"
    with pytest.raises(InfeasibleInstance):
        capped_opt(inst)


def test_gadget_layer_sizes():
    inst = hardness_instance(seed_21([(0, 0), (1, 0)], t=0))
    assert inst.n == 12
    reds = sum(1 for c in inst.colors().tolist() if inst.color_labels[c] == "red")
    assert reds == 6
    inst1 = hardness_instance(seed_21([(0, 0), (1, 0)], t=1))
    assert inst1.n == 18
    extra = sum(1 for c in inst1.colors().tolist() if inst1.color_labels[c] == "c1")
    assert extra == 6


def test_star_decomposition_size_two_is_matching():
    assert t_star_decomposition_exists(BipartiteSeed(1, 1, ((0, 0),)), 2)
    assert not t_star_decomposition_exists(BipartiteSeed(1, 1, ()), 2)
    assert t_star_decomposition_exists(BipartiteSeed(2, 2, ((0, 0), (1, 1))), 2)


def test_star_decomposition_path_of_three():
    path = BipartiteSeed(1, 2, ((0, 0), (0, 1)))
    assert t_star_decomposition_exists(path, 3)
    assert not t_star_decomposition_exists(BipartiteSeed(1, 2, ((0, 0),)), 3)


def test_star_decomposition_guard():
    with pytest.raises(InputError):
        t_star_decomposition_exists(BipartiteSeed(9, 9, ()), 3)


def test_full_star_seed_costs_one():
    seed = seed_21([(0, 0), (1, 0)], t=0)
    assert t_star_decomposition_exists(seed, 3)
    inst = hardness_instance(seed)
    assert _capped_solution(inst, inst.pairwise(), 1) is not None
    assert capped_opt(inst)[0] == 1.0


def test_single_edge_seed_cost_is_exactly_two():
    # a non-decomposable seed whose gadget still packs into balanced radius-2
    # clusters: only cost >= 2 is guaranteed for no-instances, never cost > 2
    seed = seed_21([(0, 0)], t=0)
    assert not t_star_decomposition_exists(seed, 3)
    inst = hardness_instance(seed)
    assert _capped_solution(inst, inst.pairwise(), 1) is None
    assert capped_opt(inst)[0] == 2.0


def test_full_star_seed_with_extra_color_costs_one():
    seed = seed_21([(0, 0), (1, 0)], t=1)
    inst = hardness_instance(seed)
    assert inst.alpha == pytest.approx(1 / 3)
    assert _capped_solution(inst, inst.pairwise(), 1) is not None


def test_single_edge_seed_with_extra_color_stays_hard():
    seed = seed_21([(0, 0)], t=1)
    inst = hardness_instance(seed)
    assert capped_opt(inst)[0] >= 2.0


def test_milp_oracle_agrees_with_exhaustive_search():
    for edges in ([(0, 0), (1, 0)], [(0, 0)], []):
        inst = hardness_instance(seed_21(edges, t=0))
        for radius in (1.0, 2.0):
            found = _capped_solution(inst, inst.pairwise(), radius) is not None
            assert found == capped_partition_exists_bruteforce(inst, radius)


def test_mirrored_seed_costs_one():
    seed = BipartiteSeed(1, 2, ((0, 0), (0, 1)), 0)
    assert t_star_decomposition_exists(seed, 3)
    inst = hardness_instance(seed)
    assert inst.n == 12
    assert _capped_solution(inst, inst.pairwise(), 1) is not None


def _reference_distances(n: int, edges) -> np.ndarray:
    """Per-source BFS over unit edges, with the sentinel n between components."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = np.full((n, n), float(n))
    for s in range(n):
        dist[s, s] = 0.0
        depth = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    dist[s, u] = float(depth[u])
                    queue.append(u)
    return dist


def test_gadget_distances_match_bfs_reference(monkeypatch):
    graphs = []

    def recording(graph, **kwargs):
        graphs.append(graph.tocoo())
        return shortest_path(graph, **kwargs)

    monkeypatch.setattr(hardness, "shortest_path", recording)
    rng = random.Random(55)
    checked = with_sentinel = 0
    for _ in range(250):
        n_left, n_right = rng.randint(1, 5), rng.randint(1, 5)
        edges = tuple(
            (a, b) for a in range(n_left) for b in range(n_right) if rng.random() < 0.4
        )
        seed = BipartiteSeed(n_left, n_right, edges, rng.choice([0, 1, 2]))
        if _star_counts(seed) is None:
            continue
        inst = hardness_instance(seed)
        graph = graphs.pop()
        ref = _reference_distances(inst.n, zip(graph.row.tolist(), graph.col.tolist()))
        dm = inst.pairwise()
        assert dm.dtype == ref.dtype and np.array_equal(dm, ref)
        checked += 1
        with_sentinel += bool((dm == inst.n).any())
    assert checked >= 50 and with_sentinel >= 10


def _reference_capped_system(inst, radius):
    """The 0/1 program's rows, pair by pair and row by row: the specification."""
    n = inst.n
    dm = inst.pairwise()
    pairs = [(i, j) for i in range(n) for j in range(n) if dm[i, j] <= radius]
    by_client = {j: [] for j in range(n)}
    for col, (i, j) in enumerate(pairs):
        by_client[j].append(col)
    if any(not cols for cols in by_client.values()):
        return None
    rows, cols, data, lb, ub = [], [], [], [], []
    r = 0
    for j in range(n):
        for col in by_client[j]:
            rows.append(r)
            cols.append(n + col)
            data.append(1.0)
        lb.append(1.0)
        ub.append(1.0)
        r += 1
    for col, (i, j) in enumerate(pairs):
        rows += [r, r]
        cols += [n + col, i]
        data += [1.0, -1.0]
        lb.append(-np.inf)
        ub.append(0.0)
        r += 1
    inv = round(1.0 / inst.alpha)
    scale = float(inv) if abs(inst.alpha - 1.0 / inv) < 1e-12 else 1.0 / inst.alpha
    by_fac = {}
    for col, (i, j) in enumerate(pairs):
        by_fac.setdefault(i, []).append((j, col))
    for i, served in sorted(by_fac.items()):
        for c in range(inst.n_colors):
            for j, col in served:
                rows.append(r)
                cols.append(n + col)
                data.append(scale - 1.0 if inst.colors()[j] == c else -1.0)
            lb.append(-np.inf)
            ub.append(0.0)
            r += 1
    for i in range(n):
        rows.append(r)
        cols.append(i)
        data.append(1.0)
    lb.append(-np.inf)
    ub.append(float(inst.k))
    r += 1
    A = sp.csc_matrix((data, (rows, cols)), shape=(r, n + len(pairs)))
    return A, np.array(lb), np.array(ub)


def test_capped_system_matches_loop_reference():
    compared = 0
    for seed in tiny_seeds():
        inst = hardness_instance(seed)
        dm = inst.pairwise()
        for radius in [-1.0] + np.unique(dm).tolist():
            got, ref = _capped_system(inst, dm, radius), _reference_capped_system(inst, radius)
            assert (got is None) == (ref is None)
            if got is None:
                continue
            (A, lb, ub, fac, client), (ref_A, ref_lb, ref_ub) = got, ref
            ref_fac, ref_client = np.nonzero(dm <= radius)
            assert np.array_equal(fac, ref_fac) and np.array_equal(client, ref_client)
            assert A.format == "csc" and A.shape == ref_A.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(A, name), getattr(ref_A, name)), name
            assert np.array_equal(lb, ref_lb) and np.array_equal(ub, ref_ub)
            compared += 1
    assert compared >= 60


def _check_opt_solution(inst, cost, sol):
    assert check_capped(inst, sol)
    assert len(sol.centers) <= inst.k
    assert solution_cost(inst, sol) == cost


def test_capped_opt_matches_enumeration():
    rng = random.Random(71)
    verdicts = {"feasible": 0, "infeasible": 0}
    for _ in range(40):
        alpha = rng.choice([0.5, 1 / 3, 0.4])
        n_colors = 2 if alpha == 0.5 and rng.random() < 0.5 else 3
        inst = random_capped_instance(
            rng, n=rng.randint(3, 9), n_colors=n_colors, k=rng.randint(1, 3), alpha=alpha
        )
        try:
            ref_cost, _ = brute_force_capped_opt(inst)
        except InfeasibleInstance:
            with pytest.raises(InfeasibleInstance):
                capped_opt(inst)
            verdicts["infeasible"] += 1
            continue
        cost, sol = capped_opt(inst)
        assert cost == ref_cost
        _check_opt_solution(inst, cost, sol)
        verdicts["feasible"] += 1
    assert min(verdicts.values()) >= 10, verdicts


def test_capped_opt_at_alpha_one_is_the_k_center_optimum():
    rng = random.Random(73)
    for _ in range(20):
        n = rng.randint(2, 9)
        inst = make_instance(
            [(rng.random(), rng.random()) for _ in range(n)], [0] * n, k=rng.randint(1, 3), alpha=1.0
        )
        cost, sol = capped_opt(inst)
        assert cost == brute_force_kcenter_opt(inst)
        _check_opt_solution(inst, cost, sol)


def test_capped_opt_separates_distances_closer_than_1e9():
    # each far pair is 5e-10 longer than the near pair; only the far length
    # lets both pairs form balanced clusters, so it is the optimum
    inst = line_instance([0.0, 1.0, 10.0, 11.0 + 5e-10], ["r", "b", "r", "b"], k=2, alpha=0.5)
    near, far = inst.dist_row(0)[1], inst.dist_row(2)[3]
    assert 0 < far - near < 1e-9
    assert _capped_solution(inst, inst.pairwise(), near) is None
    cost, sol = capped_opt(inst)
    assert cost == far
    _check_opt_solution(inst, cost, sol)
    assert fair_k_center(inst, cost) is not None


def test_capped_opt_solver_failure_raises(monkeypatch):
    def failing(*args, **kwargs):
        return SimpleNamespace(status=4, message="numerical difficulties", x=None)

    monkeypatch.setattr(scipy.optimize, "milp", failing)
    inst = line_instance([0.0, 1.0, 10.0, 11.0], ["r", "b", "r", "b"], k=2, alpha=0.5)
    with pytest.raises(SolverError):
        capped_opt(inst)
