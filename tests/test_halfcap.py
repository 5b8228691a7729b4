import hashlib
import json
import random
from itertools import combinations

import numpy as np
import pytest

from cappedkc import (
    ClusteringSolution,
    InfeasibleInstance,
    InputError,
    Instance,
    candidate_radii,
    caplet_decompose,
    check_capped,
    greedy_k_center,
    make_balanced_instance,
    make_instance,
    non_dominant_k_center,
    solution_cost,
)
from cappedkc import halfcap
from cappedkc.core import sorted_pairs
from cappedkc.halfcap import ACCEPT_TOL
from conftest import _reference_max_matching, edge_adjacency, random_capped_instance


# The threshold-graph tests pin the reference helpers below, which specify
# what the one-pass scan in non_dominant_k_center must reproduce.


def test_threshold_zero_distinct_points():
    inst = make_instance([(0.0,), (1.0,)], ["r", "b"], k=1, alpha=0.5)
    assert _reference_threshold_edges(inst, inst.pairwise(), 0.0) == []


def test_threshold_same_color_never_joined():
    inst = make_instance([(0.0,), (0.0,)], ["r", "r"], k=1, alpha=0.5)
    assert _reference_threshold_edges(inst, inst.pairwise(), 1.0) == []


def test_threshold_boundary_inclusive():
    inst = make_instance([(0.0,), (1.0,)], ["r", "b"], k=1, alpha=0.5)
    assert _reference_threshold_edges(inst, inst.pairwise(), 1.0) == [(0, 1)]
    # the scan too: the r-b pairs at distance 2 join at lam = 1, where 2*lam == 2
    dm = np.array([[0, 2, 1, 3], [2, 0, 3, 1], [1, 3, 0, 2], [3, 1, 2, 0]], dtype=float)
    inst = Instance(np.empty((4, 0)), [0, 1, 0, 1], k=2, alpha=0.5, dist_matrix=dm)
    _, lam, caplets, _ = _recorded_scan(inst)
    assert lam == 1.0
    assert list(caplets) == [(0, 1), (2, 3)]


def test_components():
    inst = make_instance([(0.0,), (0.5,), (9.0,)], ["r", "b", "g"], k=1, alpha=0.5)
    edges = _reference_threshold_edges(inst, inst.pairwise(), 1.0)
    assert _reference_components(inst.n, edges) == [[0, 1], [2]]


def _local(nodes, edges):
    """caplet_decompose's arguments for id edges: sorted ids and local endpoint arrays."""
    nodes = sorted(nodes)
    rank = {v: i for i, v in enumerate(nodes)}
    u = np.array([rank[a] for a, _ in edges], dtype=np.int64)
    v = np.array([rank[b] for _, b in edges], dtype=np.int64)
    return nodes, u, v


def test_decompose_edge_pair():
    assert caplet_decompose(*_local([4, 9], [(4, 9)])) == ((4, 9),)


def test_decompose_two_colors_odd_fails():
    # colors 0, 0, 1: only the edges to node 2 join different colors
    assert caplet_decompose(*_local([0, 1, 2], [(0, 2), (1, 2)])) is None


def test_decompose_triangle():
    edges = [(0, 1), (0, 2), (1, 2)]
    assert caplet_decompose(*_local([0, 1, 2], edges)) == ((0, 1, 2),)


def test_decompose_singleton_none():
    assert caplet_decompose(*_local([3], [])) is None


def test_unit_square_pairs(unit_square):
    sol, lam = non_dominant_k_center(unit_square)
    assert solution_cost(unit_square, sol) == 1.0
    assert lam == 1.0
    assert check_capped(unit_square, sol)
    clusters = sorted(tuple(m) for m in sol.clusters().values())
    assert clusters == [(0, 2), (1, 3)] or clusters == [(0, 3), (1, 2)]


def test_coincident_balanced_pairs_zero_cost():
    inst = make_instance(
        [(0.0,), (0.0,), (3.0,), (3.0,)], ["r", "b", "r", "b"], k=2, alpha=0.5
    )
    sol, _ = non_dominant_k_center(inst)
    assert solution_cost(inst, sol) == 0.0
    assert check_capped(inst, sol)


def test_three_red_one_blue_infeasible():
    inst = make_instance([(0.0,)] * 4, ["r", "r", "r", "b"], k=2, alpha=0.5)
    with pytest.raises(InfeasibleInstance):
        non_dominant_k_center(inst)


def test_wrong_alpha_rejected():
    inst = make_instance([(0.0,), (0.0,)], ["r", "b"], k=1, alpha=0.4)
    with pytest.raises(InputError):
        non_dominant_k_center(inst)


def test_random_instances_exact_caps_and_structure():
    rng = random.Random(555)
    solved = 0
    for _ in range(30):
        n = rng.choice([4, 6, 8])
        inst = random_capped_instance(
            rng, n=n, n_colors=rng.choice([2, 3]), k=rng.randint(1, 3), alpha=0.5
        )
        try:
            sol, lam, caplets, _ = _recorded_scan(inst)
        except InfeasibleInstance:
            continue
        solved += 1
        # caps hold exactly, clusters never have a majority color
        assert check_capped(inst, sol)
        # caplet members stay together and stay close
        for cap in caplets:
            members = list(cap)
            anchors = {sol.assign[j] for j in members}
            assert len(anchors) == 1
            for a in members:
                for b in members:
                    assert inst.dist_row(inst.pos(a))[inst.pos(b)] <= 10 * lam + 1e-9
        # accepted radius gives the 12x envelope
        assert solution_cost(inst, sol) <= 12 * lam + 1e-9
        assert len(sol.centers) <= inst.k
    assert solved >= 10


def _reference_threshold_edges(inst, dm, tau):
    """Differently-colored position pairs a < b within tau; `dm` is `inst.pairwise()`."""
    colors = inst.colors()
    return [
        (a, b)
        for a, b in combinations(range(inst.n), 2)
        if colors[a] != colors[b] and dm[a, b] <= tau
    ]


def _reference_components(n, edges):
    """Connected components of nodes 0..n-1 as sorted lists, ordered by smallest member."""
    label = list(range(n))
    for a, b in edges:
        old, new = max(label[a], label[b]), min(label[a], label[b])
        label = [new if v == old else v for v in label]
    return [[v for v in range(n) if label[v] == r] for r in sorted(set(label))]


def _reference_caplet_decompose(nodes, colors, edges):
    """The decomposition with a renumbered graph per triangle: the specification.

    Returns the caplets, or None.
    """
    nodes = sorted(nodes)
    m = len(nodes)
    local = {v: i for i, v in enumerate(nodes)}
    node_set = set(nodes)
    local_edges = set()
    for a, b in edges:
        if a in node_set and b in node_set and colors[a] != colors[b]:
            la, lb = local[a], local[b]
            local_edges.add((min(la, lb), max(la, lb)))

    def matching_on(keep: list[int]) -> list[tuple[int, int]] | None:
        sub = {v: i for i, v in enumerate(keep)}
        sub_edges = [(sub[a], sub[b]) for a, b in local_edges if a in sub and b in sub]
        matched = _reference_max_matching(edge_adjacency(len(keep), sub_edges))
        if len(matched) * 2 != len(keep):
            return None
        return [(keep[a], keep[b]) for a, b in matched]

    if m < 2:
        return None

    if m % 2 == 0:
        pairs = matching_on(list(range(m)))
        if pairs is None:
            return None
        return tuple((nodes[a], nodes[b]) for a, b in sorted(pairs))

    # odd: one triangle is forced; any triangle of the graph has 3 distinct colors
    for tri in combinations(range(m), 3):
        a, b, c = tri
        if (a, b) in local_edges and (a, c) in local_edges and (b, c) in local_edges:
            pairs = matching_on([v for v in range(m) if v not in tri])
            if pairs is not None:
                caplets = [(nodes[a], nodes[b], nodes[c])]
                caplets += [(nodes[p], nodes[q]) for p, q in sorted(pairs)]
                return tuple(sorted(caplets))
    return None


def _reference_non_dominant_k_center(inst):
    """The scan that recomputes everything at every radius: the specification.

    Components, caplets and representatives are all in point positions;
    ids appear only in the greedy subset and the returned solution.
    """
    dm = inst.pairwise()
    colors_arr = inst.colors()
    for lam in candidate_radii(inst):
        caplets = []
        feasible = True
        for comp in _reference_components(inst.n, _reference_threshold_edges(inst, dm, 2.0 * lam)):
            if len(comp) == 1:
                feasible = False
                break
            colors = {p: int(colors_arr[p]) for p in comp}
            wide_edges = [
                (a, b)
                for a, b in combinations(comp, 2)
                if colors_arr[a] != colors_arr[b] and dm[a, b] <= 10.0 * lam
            ]
            dec = _reference_caplet_decompose(comp, colors, wide_edges)
            if dec is None:
                feasible = False
                break
            caplets.extend(dec)
        if not feasible:
            continue
        reps = sorted(min(c) for c in caplets)
        gsol, gcost = greedy_k_center(inst, subset=[inst.id_at(p) for p in reps])
        if gcost > 2.0 * lam + ACCEPT_TOL:
            continue
        assign = {}
        for cap in caplets:
            center = gsol.assign[inst.id_at(min(cap))]
            for p in cap:
                assign[inst.id_at(p)] = center
        return ClusteringSolution(gsol.centers, assign), lam, tuple(caplets), gcost
    raise InfeasibleInstance("no radius admits a caplet decomposition with a greedy cover")


def _colored_graph(rng: random.Random):
    """Ids out of order, a color per id, and differently-colored id edges in random order."""
    m = rng.randint(1, 15)
    n_colors = rng.choice([2, 2, 3, 4])
    if rng.random() < 0.5:
        colors = [i % n_colors for i in range(m)]
        rng.shuffle(colors)
    else:
        colors = [rng.randrange(n_colors) for _ in range(m)]
    ids = rng.sample(range(1000), m)
    p = rng.choice([0.2, 0.4, 0.6, 0.9])
    edges = [
        (ids[b], ids[a]) if rng.random() < 0.5 else (ids[a], ids[b])
        for a, b in combinations(range(m), 2)
        if colors[a] != colors[b] and rng.random() < p
    ]
    if m > 1 and rng.random() < 0.3:
        # a leaf on the smallest id: every triangle through that id fails
        low = colors[ids.index(min(ids))]
        ids.append(1000)
        colors.append(rng.choice([c for c in range(n_colors) if c != low]))
        edges.append((min(ids), 1000))
    rng.shuffle(edges)
    return ids, dict(zip(ids, colors)), edges


def test_decompose_matches_reference_on_random_graphs():
    rng = random.Random(77)
    tally = {"solved": 0, "triangle": 0, "later_triangle": 0, "odd_two_color": 0}
    for _ in range(600):
        ids, colors, edges = _colored_graph(rng)
        expected = _reference_caplet_decompose(ids, colors, edges)
        got = caplet_decompose(*_local(ids, edges))
        assert got == expected
        assert all(2 <= len(c) <= 3 for c in got or ())  # a caplet is a pair or a triangle
        tally["solved"] += expected is not None
        if len(ids) % 2 and len(set(colors.values())) == 2:
            tally["odd_two_color"] += 1
        tri = [c for c in expected or () if len(c) == 3]
        if tri:
            tally["triangle"] += 1
            edge_set = {frozenset(e) for e in edges}
            first = next(
                t for t in combinations(sorted(ids), 3)
                if all(frozenset(p) in edge_set for p in combinations(t, 2))
            )
            tally["later_triangle"] += tri[0] != first
    assert tally["solved"] >= 150
    assert tally["triangle"] >= 40
    assert tally["later_triangle"] >= 10
    assert tally["odd_two_color"] >= 100


def _scan_outcome(fn, inst):
    try:
        sol, lam, caplets, gcost = fn(inst)
    except InfeasibleInstance:
        return None
    return sol.centers, list(sol.assign.items()), lam, list(caplets), gcost


def _recorded_scan(inst):
    """non_dominant_k_center's (solution, radius), plus the caplets and greedy cost it accepted.

    Both are the last values the scan computed: it reuses them until they change.
    """
    caplets, gcosts = [], []
    decompose, greedy = halfcap._decompose_components, halfcap.greedy_k_center

    def recording_decompose(*args):
        caplets.append(decompose(*args))
        return caplets[-1]

    def recording_greedy(*args, **kwargs):
        out = greedy(*args, **kwargs)
        gcosts.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(halfcap, "_decompose_components", recording_decompose)
        patch.setattr(halfcap, "greedy_k_center", recording_greedy)
        sol, lam = non_dominant_k_center(inst)
    return sol, lam, tuple(caplets[-1]), gcosts[-1]


def _equivalence_instance(rng: random.Random) -> Instance:
    """Small instances that stress ties, coincident points, odd components and non-metrics."""
    n = rng.randint(4, 21)
    n_colors = rng.randint(2, 4)
    if rng.random() < 0.5:
        colors = [i % n_colors for i in range(n)]
        rng.shuffle(colors)
    else:
        colors = [rng.randrange(n_colors) for _ in range(n)]
    k = rng.randint(1, 4)
    ids = rng.sample(range(1000), n)  # ids out of position order
    kind = rng.choice(["uniform", "rounded", "coincident", "groups", "chain", "matrix"])
    if kind == "matrix":
        # heavy-tailed and not a metric: a component's 10*lam edge set keeps growing
        upper = np.triu([[round(10 ** rng.uniform(0, 4)) for _ in range(n)] for _ in range(n)], 1)
        matrix = (upper + upper.T).astype(float)
        return Instance(np.empty((n, 0)), colors, k, 0.5, ids=ids, dist_matrix=matrix)
    if kind == "chain":
        # a line with uneven gaps: long components whose ends lie beyond 10*lam
        xs = np.cumsum([round(rng.expovariate(1.0), 2) for _ in range(n)])
        coords = [(float(x),) for x in xs]
    elif kind == "groups":
        # far-apart groups, often of odd size, so components stay apart and odd
        centers = [(10.0 * g, 0.0) for g in range(rng.randint(2, 3))]
        coords = [tuple(v + rng.random() for v in rng.choice(centers)) for _ in range(n)]
    else:
        coords = [(rng.random(), rng.random()) for _ in range(n)]
    if kind == "rounded":
        coords = [(round(x, 1), round(y, 1)) for x, y in coords]
    if kind == "coincident":
        coords = [rng.choice(coords[: max(2, n // 3)]) for _ in range(n)]
    return make_instance(coords, colors, k=k, alpha=0.5, ids=ids)


def test_scan_matches_reference_on_random_instances():
    rng = random.Random(2024)
    solved = 0
    for _ in range(320):
        inst = _equivalence_instance(rng)
        expected = _scan_outcome(_reference_non_dominant_k_center, inst)
        assert _scan_outcome(_recorded_scan, inst) == expected
        solved += expected is not None
        # the scan's radii are candidate_radii's: 0 and every pair's distance;
        # its differently-colored pairs within tau are the reference edges
        dm = inst.pairwise()
        a, b, d, radii = sorted_pairs(inst)
        radii = radii.tolist()
        assert radii == candidate_radii(inst) == sorted({0.0, *dm[np.triu_indices(inst.n, 1)]})
        tau = rng.choice(radii)
        colors = inst.colors()
        near = (colors[a] != colors[b]) & (d <= tau)
        edges = sorted(zip(a[near].tolist(), b[near].tolist()))
        assert edges == _reference_threshold_edges(inst, dm, tau)
    assert 100 <= solved <= 300


def _criterion_7_instance():
    return make_balanced_instance(n_colors=4, per_color=12, dim=3, k=4, alpha=0.5, seed=5)


def test_scan_matches_reference_on_criterion_7_instance():
    inst = _criterion_7_instance()
    expected = _scan_outcome(_reference_non_dominant_k_center, inst)
    assert expected is not None
    assert _scan_outcome(_recorded_scan, inst) == expected


def test_scan_never_repeats_a_decomposition(monkeypatch):
    seen = []

    def recording(nodes, u, v):
        edges = zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())
        seen.append((tuple(nodes), frozenset(edges)))
        return caplet_decompose(nodes, u, v)

    monkeypatch.setattr(halfcap, "caplet_decompose", recording)
    non_dominant_k_center(_criterion_7_instance())
    assert seen
    assert len(set(seen)) == len(seen)


def test_half_route_pinned_at_n_300():
    # beyond the small pools the reference scan can check: the accepted radius
    # and a digest of the sorted assignment; a change to either is an output change
    inst = make_balanced_instance(n_colors=4, per_color=75, dim=3, k=4, alpha=0.5, seed=5)
    sol, lam = non_dominant_k_center(inst)
    digest = hashlib.sha256(json.dumps(sorted(sol.assign.items())).encode()).hexdigest()
    assert lam == 1.6085451368584502
    assert digest == "faa5cd68cb4181d4763ca17fd62914b903f992bffd8cffda367f6ebb0a6b8cbc"
    assert check_capped(inst, sol)
