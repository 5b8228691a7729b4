import random
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappedkc import max_matching, sorted_adjacency
from conftest import _reference_max_matching, _reference_sorted_adjacency, edge_adjacency


def brute_max_matching_size(n: int, edges: frozenset) -> int:
    @lru_cache(maxsize=None)
    def best(avail: frozenset) -> int:
        usable = [(u, v) for u, v in edges if u in avail and v in avail]
        if not usable:
            return 0
        out = 0
        for u, v in usable:
            out = max(out, 1 + best(avail - {u, v}))
        return out

    return best(frozenset(range(n)))


def test_triangle():
    assert len(max_matching(edge_adjacency(3, [(0, 1), (1, 2), (0, 2)]))) == 1


def test_even_path():
    assert len(max_matching(edge_adjacency(4, [(0, 1), (1, 2), (2, 3)]))) == 2


def petersen() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return outer + inner + spokes


def test_petersen_perfect():
    edges = petersen()
    assert len(max_matching(edge_adjacency(10, edges))) == 5
    assert brute_max_matching_size(10, frozenset(edges)) == 5


def test_odd_order_never_perfect():
    adj = edge_adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert len(max_matching(adj)) * 2 != 5


def test_two_disjoint_edges():
    assert len(max_matching(edge_adjacency(4, [(0, 1), (2, 3)]))) * 2 == 4


def test_star_three_leaves():
    assert len(max_matching(edge_adjacency(4, [(0, 1), (0, 2), (0, 3)]))) == 1


def test_matching_edges_valid():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(2, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        matched = max_matching(edge_adjacency(n, edges))
        used = [v for e in matched for v in e]
        assert len(used) == len(set(used))
        for u, v in matched:
            assert (min(u, v), max(u, v)) in edges


def test_agrees_with_brute_force_200_trials():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 8)
        p = rng.choice([0.15, 0.3, 0.5, 0.8])
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        assert len(max_matching(edge_adjacency(n, edges))) == brute_max_matching_size(
            n, frozenset(edges)
        )


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 60))
    if n < 2:
        return n, []
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e)))
    return n, draw(st.lists(pair, max_size=4 * n, unique=True))


def test_agrees_with_networkx_up_to_60_nodes():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=100, deadline=None)
    @given(_graphs())
    def check(graph):
        n, edges = graph
        matched = max_matching(edge_adjacency(n, edges))
        used = [v for e in matched for v in e]
        assert len(used) == len(set(used))
        assert all(u < v and (u, v) in edges for u, v in matched)
        oracle = nx.Graph()
        oracle.add_nodes_from(range(n))
        oracle.add_edges_from(edges)
        assert len(matched) == len(nx.max_weight_matching(oracle, maxcardinality=True))

    check()


def _emptied(adj, tri):
    """`adj` with the nodes of `tri` emptied, as caplet_decompose's triangle loop empties them."""
    return [[] if a in tri else [b for b in nbrs if b not in tri] for a, nbrs in enumerate(adj)]


def _first_exposed_neighbors(adj) -> set[tuple[int, int]]:
    """Each exposed node in order matched to its first exposed neighbor, with no search."""
    match = [-1] * len(adj)
    for v, nbrs in enumerate(adj):
        mate = next((w for w in nbrs if match[w] == -1), -1) if match[v] == -1 else -1
        if mate != -1:
            match[v], match[mate] = mate, v
    return {(v, w) for v, w in enumerate(match) if w > v}


def test_matches_the_reference_search_from_every_root():
    # "searched" counts graphs whose matching needs augmenting paths, so the
    # blossom search after the shortcut is exercised too
    rng = np.random.default_rng(4242)
    tally = {"int32": 0, "reversed": 0, "emptied": 0, "dense": 0, "searched": 0}
    for _ in range(2000):
        n = int(rng.integers(0, 31))
        p = float(rng.choice([0.03, 0.1, 0.25, 0.5, 0.9]))
        a, b = np.triu_indices(n, k=1)
        keep = rng.random(a.size) < p
        a, b = a[keep], b[keep]
        flip = rng.random(a.size) < 0.5  # either endpoint may come first
        u, v = np.where(flip, b, a), np.where(flip, a, b)
        if rng.random() < 0.5:
            u, v = u[::-1], v[::-1]
            tally["reversed"] += 1
        else:
            order = rng.permutation(u.size)
            u, v = u[order], v[order]
        if rng.random() < 0.5:
            u, v = u.astype(np.int32), v.astype(np.int32)
            tally["int32"] += 1
        tally["dense"] += p >= 0.5
        adj = sorted_adjacency(n, u, v)
        assert adj == _reference_sorted_adjacency(n, u, v)
        graphs = [adj]
        if n >= 3:
            graphs.append(_emptied(adj, set(rng.choice(n, 3, replace=False).tolist())))
            tally["emptied"] += 1
        for graph in graphs:
            expected = _reference_max_matching(graph)
            assert max_matching(graph) == expected
            tally["searched"] += expected != _first_exposed_neighbors(graph)
    assert min(tally.values()) >= 300, tally


def test_sorted_adjacency_keys_past_int32():
    # n * n > 2**31: the packed key of an int32 edge list must not wrap
    rng = np.random.default_rng(9)
    n = 50_000
    ends = rng.choice(np.arange(n - 300, n), size=(400, 2))
    ends = np.unique(np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1), axis=0)
    rng.shuffle(ends)
    u, v = ends.astype(np.int32).T
    adj = sorted_adjacency(n, u, v)
    assert n * (n - 1) > 2**31
    assert adj == _reference_sorted_adjacency(n, u, v)
    # nodes with empty lists change nothing: the pairs of the graph on the used nodes
    used = np.unique(ends).tolist()
    local = {node: i for i, node in enumerate(used)}
    small = [[local[w] for w in adj[node]] for node in used]
    expected = {(used[a], used[b]) for a, b in _reference_max_matching(small)}
    assert max_matching(adj) == expected
