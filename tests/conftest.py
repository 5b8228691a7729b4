import random
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
import scipy.sparse as sp

from cappedkc import (
    CAP_TOL,
    BipartiteSeed,
    ClusteringSolution,
    ContractViolation,
    FractionalSolution,
    InfeasibleInstance,
    InputError,
    Instance,
    check_feasible,
    make_instance,
)
from cappedkc.core import ceil_inv_alpha
from cappedkc.lp_feasibility import (
    RADIUS_SLACK,
    _solve_highs,
    passes_prechecks,
    polytope_on,
    radius_pairs,
)


def random_capped_instance(
    rng: random.Random,
    n: int,
    n_colors: int,
    k: int,
    alpha: float,
    dim: int = 2,
) -> Instance:
    """Random instance with near-balanced color counts (the feasible-friendly regime)."""
    base, rem = divmod(n, n_colors)
    colors = []
    for c in range(n_colors):
        colors += [c] * (base + (1 if c < rem else 0))
    rng.shuffle(colors)
    coords = [tuple(rng.random() for _ in range(dim)) for _ in range(n)]
    return make_instance(coords, colors, k=k, alpha=alpha)


def line_instance(xs, colors=None, k=1, alpha=1.0) -> Instance:
    coords = [(float(x),) for x in xs]
    if colors is None:
        colors = [0] * len(xs)
    return make_instance(coords, colors, k=k, alpha=alpha)


def fractional_point(inst: Instance, x: dict, y: dict) -> FractionalSolution:
    """A point from {(facility id, client id): mass} and {facility id: opening}, in dict order."""
    facility = np.array([inst.pos(i) for i, _ in x], dtype=int)
    client = np.array([inst.pos(j) for _, j in x], dtype=int)
    opening = np.zeros(inst.n)
    for i, v in y.items():
        opening[inst.pos(i)] = v
    return FractionalSolution(facility, client, np.array(list(x.values()), dtype=float), opening)


def family_rows(sys, family: str) -> sp.csr_matrix:
    """One constraint family of a LinearSystem: its row range of `a`."""
    return sys.a.tocsr()[sys.families[family]]


def solve_system(sys) -> np.ndarray | None:
    """`_solve_highs` on a LinearSystem's rows and column bounds."""
    return _solve_highs(sys.a, sys.row_lower, sys.row_upper, sys.upper)


def _reference_sorted_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> list[list[int]]:
    """`sorted_adjacency` by a lexsort on (src, dst): the specification of its order."""
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    flat = dst[np.lexsort((dst, src))].tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def _reference_max_matching(adj) -> set[tuple[int, int]]:
    """`max_matching` with a blossom search from every exposed root, in node order.

    The specification of its pairs: the library matches a root to its first
    exposed neighbor without a search, and must give exactly these pairs.
    """
    n = len(adj)
    match = [-1] * n

    def lca(a, b, base, parent):
        seen = [False] * n
        v = a
        while True:
            v = base[v]
            seen[v] = True
            if match[v] == -1:
                break
            v = parent[match[v]]
        v = b
        while True:
            v = base[v]
            if seen[v]:
                return v
            v = parent[match[v]]

    def mark_path(v, b, child, base, parent, blossom):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root) -> bool:
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    curbase = lca(v, to, base, parent)
                    blossom = [False] * n
                    mark_path(v, curbase, to, base, parent, blossom)
                    mark_path(to, curbase, v, base, parent, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting_path(v)
    return {(v, match[v]) for v in range(n) if match[v] > v}


def edge_adjacency(n: int, edges) -> list[list[int]]:
    """max_matching's input for n nodes and distinct undirected (u, v) edges."""
    u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    return _reference_sorted_adjacency(n, u, v)


def pair_masses(inst: Instance, frac: FractionalSolution) -> dict:
    """The point's pairs as {(facility id, client id): mass}, in pair order."""
    ids = inst.ids()
    return {
        (ids[f], ids[j]): v
        for f, j, v in zip(frac.facility.tolist(), frac.client.tolist(), frac.x.tolist())
    }


def tiny_seeds() -> list[BipartiteSeed]:
    """The 30 small bipartite seeds of the gadget acceptance check (t in {0, 1})."""
    seeds = []
    edge_sets_21 = [(), ((0, 0),), ((1, 0),), ((0, 0), (1, 0))]
    edge_sets_12 = [(), ((0, 0),), ((0, 1),), ((0, 0), (0, 1))]
    for t in (0, 1):
        seeds += [BipartiteSeed(2, 1, e, t) for e in edge_sets_21]
        seeds += [BipartiteSeed(1, 2, e, t) for e in edge_sets_12]
        seeds += [
            BipartiteSeed(1, 1, (), t),
            BipartiteSeed(1, 1, ((0, 0),), t),
            BipartiteSeed(1, 0, (), t),
            BipartiteSeed(0, 3, (), t),
            BipartiteSeed(2, 2, ((0, 0), (1, 1)), t),
            BipartiteSeed(3, 3, ((0, 0), (1, 0), (2, 1), (2, 2)), t),
            BipartiteSeed(3, 3, ((0, 0), (1, 0), (2, 1)), t),
        ]
    return seeds


_STAR_GUARD = 12


def t_star_decomposition_exists(seed: BipartiteSeed, star_size: int) -> bool:
    """Can the seed graph be partitioned into size-`star_size` blocks, each inducing a star?

    Exact by enumeration; a block induces a star when some member is adjacent
    to every other member.  The gadget reduction always concerns blocks of
    size three regardless of the seed's cap parameter.
    """
    if star_size < 1:
        raise InputError("star size must be positive")
    n = seed.n_left + seed.n_right
    if n > _STAR_GUARD:
        raise InputError(f"exact star decomposition is limited to {_STAR_GUARD} nodes")
    if n == 0:
        return True
    if n % star_size:
        return False
    adj = [set() for _ in range(n)]
    for a, b in seed.edges:
        adj[a].add(seed.n_left + b)
        adj[seed.n_left + b].add(a)

    def induces_star(block: tuple[int, ...]) -> bool:
        rest = set(block)
        return any(rest - {v} <= adj[v] for v in block)

    def cover(remaining: frozenset) -> bool:
        if not remaining:
            return True
        v = min(remaining)
        others = sorted(remaining - {v})
        for extra in combinations(others, star_size - 1):
            block = (v, *extra)
            if induces_star(block) and cover(remaining - set(block)):
                return True
        return False

    return cover(frozenset(range(n)))


@lru_cache(maxsize=32)
def _assignments(m: int, n: int) -> np.ndarray:
    """All m^n assignment vectors in lexicographic order, one row each."""
    return np.array(list(product(range(m), repeat=n)), dtype=np.int8)


def brute_force_capped_opt(inst: Instance) -> tuple[float, ClusteringSolution]:
    """Exact capped optimum by enumerating center subsets and all assignments.

    The reference for `capped_opt`.  Guarded to 10 points and k <= 3.  Subsets are scanned by size then
    lexicographically, assignments lexicographically, and only strict cost
    improvements displace the incumbent, so ties resolve to the
    lexicographically first solution.
    """
    n, k = inst.n, inst.k
    if n > 10 or k > 3:
        raise InputError("oracle limits: at most 10 points and k <= 3")
    dm = inst.pairwise()
    onehot = np.eye(inst.n_colors, dtype=np.int64)[inst.colors()]
    rows = np.arange(n)

    best_cost = np.inf
    best: tuple[tuple[int, ...], np.ndarray] | None = None
    for size in range(1, min(k, n) + 1):
        A = _assignments(size, n)
        for S in combinations(range(n), size):
            dsub = dm[:, S]
            costs = dsub[rows[None, :], A].max(axis=1)
            ok = np.ones(len(A), dtype=bool)
            for s in range(size):
                mask = A == s
                tot = mask.sum(axis=1)
                cnts = mask.astype(np.int64) @ onehot
                ok &= (cnts <= inst.alpha * tot[:, None] + CAP_TOL).all(axis=1)
            costs = np.where(ok, costs, np.inf)
            q = int(costs.argmin())
            if costs[q] < best_cost:
                best_cost = float(costs[q])
                best = (S, A[q].copy())
    if best is None or not np.isfinite(best_cost):
        raise InfeasibleInstance("no capped assignment exists for any center subset")
    S, digits = best
    centers = tuple(sorted(inst.id_at(p) for p in S))
    assign = {inst.id_at(j): inst.id_at(S[digits[j]]) for j in range(n)}
    return best_cost, ClusteringSolution(centers, assign)


def brute_force_kcenter_opt(inst: Instance) -> float:
    """Exact unconstrained k-center optimum via subset enumeration (n <= 12, k <= 3)."""
    n, k = inst.n, inst.k
    if n > 12 or k > 3:
        raise InputError("oracle limits: at most 12 points and k <= 3")
    dm = inst.pairwise()
    best = np.inf
    for size in range(1, min(k, n) + 1):
        for S in combinations(range(n), size):
            best = min(best, float(dm[:, S].min(axis=1).max()))
    return best


_PARTITION_GUARD = 14


def capped_partition_exists_bruteforce(inst: Instance, radius: float) -> bool:
    """Enumeration cross-check for `hardness._capped_solution` on small instances.

    Recursively carves off a capped cluster containing the lowest remaining
    point from some center's radius ball, memoizing on the remaining set.
    It counts any number of clusters, so it matches the 0/1 program only
    where k = n leaves the budget row slack, as on the gadgets.
    """
    n = inst.n
    if n > _PARTITION_GUARD:
        raise InputError(f"exhaustive search is limited to {_PARTITION_GUARD} points")
    dm = inst.pairwise()
    colors = inst.colors()
    balls = [frozenset(np.flatnonzero(dm[v] <= radius).tolist()) for v in range(n)]
    min_size = ceil_inv_alpha(inst.alpha)
    memo: dict[frozenset, bool] = {}

    def capped(members: tuple[int, ...]) -> bool:
        counts: dict[int, int] = {}
        for v in members:
            counts[colors[v]] = counts.get(colors[v], 0) + 1
        bound = inst.alpha * len(members) + 1e-9
        return all(cnt <= bound for cnt in counts.values())

    def feasible(remaining: frozenset) -> bool:
        if not remaining:
            return True
        if remaining in memo:
            return memo[remaining]
        first = min(remaining)
        out = False
        for center in range(n):
            pool = sorted((balls[center] & remaining) - {first})
            if first not in balls[center]:
                continue
            for r in range(min_size - 1, len(pool) + 1):
                for extra in combinations(pool, r):
                    cluster = (first, *extra)
                    if capped(cluster) and feasible(remaining - set(cluster)):
                        out = True
                        break
                if out:
                    break
            if out:
                break
        memo[remaining] = out
        return out

    return feasible(frozenset(range(n)))


def min_feasible_radius(inst: Instance, radii, restricted=None):
    """First of the ascending `radii` whose polytope is non-empty, with a point in it.

    A bisection: the polytope only grows with the radius, so the verdicts
    are monotone and the point comes from the solve at that first radius.
    A radius whose pairs fail `passes_prechecks` is rejected without a
    solve, as in `fair_k_center`.  None when no radius gives a non-empty
    polytope.
    """
    lo, hi, found = 0, len(radii), None
    while lo < hi:
        mid = (lo + hi) // 2
        pairs = radius_pairs(inst, radii[mid], restricted)
        frac = check_feasible(polytope_on(inst, pairs)) if passes_prechecks(pairs) else None
        if frac is None:
            lo = mid + 1
        else:
            hi, found = mid, (radii[mid], frac)
    return found


def reference_solution_cost(inst: Instance, sol: ClusteringSolution) -> float:
    """`solution_cost` as a loop over the points, one cached row per center."""
    centers = set(sol.centers)
    members: dict[int, list[int]] = {}
    for pos, j in enumerate(inst.ids()):
        i = sol.assign.get(j)
        if i is None:
            raise ContractViolation(f"point {j} has no assignment")
        if i not in centers:
            raise ContractViolation(f"point {j} assigned to unopened center {i}")
        members.setdefault(i, []).append(pos)
    return max(float(inst.dist_row(inst.pos(i))[pos].max()) for i, pos in members.items())


def reference_cluster_color_peaks(inst: Instance, sol: ClusteringSolution):
    """`cluster_color_peaks` from per-cluster color counters, by center position."""
    counts: dict[int, Counter] = {}
    for j, i in sol.assign.items():
        counts.setdefault(inst.pos(i), Counter())[inst.colors()[inst.pos(j)]] += 1
    served = sorted(counts)
    return (
        np.array([sum(counts[c].values()) for c in served], dtype=np.int64),
        np.array([max(counts[c].values()) for c in served], dtype=np.int64),
    )


def reference_nearest_assignment(inst: Instance, centers) -> ClusteringSolution:
    """Every point assigned to its nearest of the center ids `centers`, one dict entry per point.

    Ties go to the lowest-position center, as in `nearest_positions`.
    """
    order = sorted(centers, key=inst.pos)
    cols = np.stack([inst.dist_row(inst.pos(c)) for c in order], axis=1)
    choice = cols.argmin(axis=1)
    return ClusteringSolution(
        tuple(sorted(centers)), {inst.id_at(j): order[choice[j]] for j in range(inst.n)}
    )


def reference_one_center(inst: Instance, pos) -> int:
    """`Instance.one_center` from the whole distance block among `pos`."""
    return int(inst.dist_block(pos).max(axis=1).argmin())


def reference_one_center_stop(inst: Instance, fac, lam: float, top: float):
    """The stop's verdict at the one rung lam of a ladder up to top: o, or None.

    `fac` are facility positions and o the lowest; the separation test reads
    one row per facility.
    """
    o = min(fac)
    reach = float(inst.dist_row(o).max())
    if not (
        max(float(inst.dist_row(p)[o]) for p in fac) <= 2.0 * lam
        and reach <= 3.0 * lam
        and reach <= top * (1.0 + RADIUS_SLACK)
        and inst.n >= ceil_inv_alpha(inst.alpha)
        and np.bincount(inst.colors()).max() <= inst.alpha * inst.n
    ):
        return None
    return o


def exactness_pool(seed: int = 0) -> list[Instance]:
    """Seeded instances on which the array metrics must equal the loop references.

    Integer grids (many tied distances) and Gaussian points in dimensions 1,
    3 and 10, ids that are neither contiguous nor in position order (a
    short id range and a wide one), and an integer matrix metric.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for dim in (1, 3, 10):
        for n in (9, 60, 240):
            grid = rng.integers(0, 4, size=(n, dim)).astype(float)
            gauss = rng.standard_normal((n, dim))
            colors = rng.integers(0, 4, size=n).tolist()
            pool.append(make_instance(grid, colors, k=3, alpha=0.5))
            pool.append(make_instance(gauss, colors, k=3, alpha=0.5))
            short = (rng.permutation(n) * 3 + 7).tolist()  # ids within 3n, shuffled
            wide = rng.choice(10**9, size=n, replace=False).tolist()
            pool.append(make_instance(grid, colors, k=3, alpha=0.5, ids=short))
            pool.append(make_instance(gauss, colors, k=3, alpha=0.5, ids=wide))
    for n in (9, 60, 240):
        upper = np.triu(rng.integers(1, 6, size=(n, n)).astype(float), k=1)
        ids, colors = rng.permutation(n) + 5, rng.integers(0, 3, n)
        pool.append(
            Instance(np.empty((n, 0)), colors, 3, 0.5, ids=ids, dist_matrix=upper + upper.T)
        )
    return pool


@pytest.fixture
def unit_square() -> Instance:
    """Two reds on one diagonal, two blues on the other; the classic 2+2 case."""
    coords = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]
    return make_instance(coords, ["r", "r", "b", "b"], k=2, alpha=0.5)
