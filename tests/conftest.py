import random

import numpy as np
import pytest

from cappedkc import BipartiteSeed, FractionalSolution, Instance, make_instance, sorted_adjacency


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


def edge_adjacency(n: int, edges) -> list[list[int]]:
    """max_matching's input for n nodes and distinct undirected (u, v) edges."""
    u, v = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    return sorted_adjacency(n, u, v)


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


@pytest.fixture
def unit_square() -> Instance:
    """Two reds on one diagonal, two blues on the other; the classic 2+2 case."""
    coords = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]
    return make_instance(coords, ["r", "r", "b", "b"], k=2, alpha=0.5)
