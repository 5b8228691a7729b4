import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappedkc import (
    ClusteringSolution,
    ContractViolation,
    InputError,
    Instance,
    Point,
    candidate_radii,
    check_capped,
    distance,
    make_instance,
    nearest_assignment,
    solution_cost,
)
from conftest import line_instance


def test_distance_identity():
    p = Point(0, (1.0, 2.0), 0)
    assert distance(p, p) == 0.0


def test_distance_345():
    assert distance(Point(0, (0.0, 0.0), 0), Point(1, (3.0, 4.0), 0)) == 5.0


def test_distance_symmetry_random():
    rng = random.Random(7)
    for _ in range(50):
        p = Point(0, (rng.random(), rng.random(), rng.random()), 0)
        q = Point(1, (rng.random(), rng.random(), rng.random()), 0)
        assert distance(p, q) == distance(q, p)


def test_distance_dimension_mismatch():
    with pytest.raises(InputError):
        distance(Point(0, (0.0,), 0), Point(1, (0.0, 0.0), 0))


coords3 = st.tuples(*[st.floats(-100, 100) for _ in range(3)])


@given(coords3, coords3, coords3)
@settings(max_examples=200, deadline=None)
def test_triangle_inequality(a, b, c):
    pa, pb, pc = Point(0, a, 0), Point(1, b, 0), Point(2, c, 0)
    lhs = distance(pa, pc)
    rhs = distance(pa, pb) + distance(pb, pc)
    assert lhs <= rhs * (1 + 1e-9) + 1e-9


def test_solution_cost_coincident_zero():
    inst = line_instance([0, 0, 0], k=1)
    sol = nearest_assignment(inst, [0])
    assert solution_cost(inst, sol) == 0.0


def test_solution_cost_line():
    inst = line_instance([0, 1, 10, 11], k=2)
    sol = nearest_assignment(inst, [0, 3])
    assert solution_cost(inst, sol) == 1.0


def test_solution_cost_singleton():
    inst = line_instance([5.0], k=1)
    sol = nearest_assignment(inst, [0])
    assert solution_cost(inst, sol) == 0.0


def test_solution_cost_unassigned_is_contract_violation():
    inst = line_instance([0, 1], k=1)
    with pytest.raises(ContractViolation):
        solution_cost(inst, ClusteringSolution((0,), {0: 0}))


def test_check_capped_examples():
    inst = make_instance([(0.0,), (0.0,)], ["r", "b"], k=1, alpha=0.5)
    sol = nearest_assignment(inst, [0])
    assert check_capped(inst, sol)

    inst = make_instance([(0.0,)] * 3, ["r", "r", "b"], k=1, alpha=0.5)
    sol = nearest_assignment(inst, [0])
    assert not check_capped(inst, sol)

    inst = make_instance([(0.0,)] * 4, ["r", "r", "b", "g"], k=1, alpha=0.5)
    sol = nearest_assignment(inst, [0])
    assert check_capped(inst, sol)


@given(st.integers(2, 9), st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_check_capped_monotone_in_alpha(n, alpha, bump, seed):
    rng = random.Random(seed)
    colors = [rng.randrange(3) for _ in range(n)]
    inst = make_instance([(float(i),) for i in range(n)], colors, k=1, alpha=alpha)
    sol = nearest_assignment(inst, [0])
    higher = min(1.0, alpha + bump)
    if check_capped(inst, sol, alpha):
        assert check_capped(inst, sol, higher)


def test_candidate_radii_collinear():
    inst = line_instance([0, 1, 3])
    assert candidate_radii(inst).values == (0.0, 1.0, 2.0, 3.0)


def test_candidate_radii_single_point():
    inst = line_instance([4.2])
    assert candidate_radii(inst).values == (0.0,)


def test_candidate_radii_count_bound():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 12)
        inst = make_instance(
            [(rng.random(), rng.random()) for _ in range(n)], [0] * n, k=1, alpha=1.0
        )
        grid = candidate_radii(inst)
        assert len(grid) <= n * (n - 1) // 2 + 1
        assert grid.values[0] == 0.0


def test_cost_never_improves_when_center_removed():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 10)
        inst = make_instance(
            [(rng.random(), rng.random()) for _ in range(n)], [0] * n, k=3, alpha=1.0
        )
        centers = rng.sample(range(n), 3)
        full = solution_cost(inst, nearest_assignment(inst, centers))
        for drop in centers:
            remaining = [c for c in centers if c != drop]
            reduced = solution_cost(inst, nearest_assignment(inst, remaining))
            assert reduced >= full - 1e-12


def test_make_instance_reindexes_colors():
    inst = make_instance([(0.0,), (1.0,), (2.0,)], ["cat", "dog", "cat"], k=1, alpha=1.0)
    assert inst.n_colors == 2
    assert inst.color_labels == ("cat", "dog")
    assert [p.color for p in inst.points] == [0, 1, 0]


def test_instance_validation():
    with pytest.raises(InputError):
        make_instance([], [], k=1, alpha=0.5)
    with pytest.raises(InputError):
        make_instance([(0.0,)], ["r"], k=0, alpha=0.5)
    with pytest.raises(InputError):
        make_instance([(0.0,)], ["r"], k=1, alpha=0.0)
    with pytest.raises(InputError):
        make_instance([(0.0,)], ["r"], k=1, alpha=1.5)
    with pytest.raises(InputError):
        make_instance([(0.0,), (0.0, 0.0)], ["r", "b"], k=1, alpha=0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="finite"):
            make_instance([(0.0,), (bad,)], ["r", "b"], k=1, alpha=0.5)


def test_instance_rejects_bad_dist_matrix():
    pts = [Point(0, (), 0), Point(1, (), 1)]
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert Instance(pts, k=1, alpha=0.5, dist_matrix=good).dist(0, 1) == 1.0
    bad = {
        "finite": [[0.0, np.inf], [np.inf, 0.0]],
        "symmetric": [[0.0, 1.0], [2.0, 0.0]],
        "zero diagonal": [[1.0, 1.0], [1.0, 0.0]],
    }
    for reason, matrix in bad.items():
        with pytest.raises(InputError, match=reason):
            Instance(pts, k=1, alpha=0.5, dist_matrix=np.array(matrix))
