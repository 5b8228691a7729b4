import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappedkc import max_matching
from conftest import edge_adjacency


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
