import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cappedkc import (
    ClusteringSolution,
    ContractViolation,
    InputError,
    Instance,
    build_polytope,
    candidate_radii,
    check_capped,
    fair_k_center,
    make_balanced_instance,
    make_instance,
    max_additive_violation,
    non_dominant_k_center,
    solution_cost,
)
from cappedkc import core
from cappedkc.core import center_positions, cluster_color_peaks, nearest_positions, solution_at
from cappedkc.greedy import random_centers
from cappedkc.lp_feasibility import radius_pairs
from conftest import (
    exactness_pool,
    line_instance,
    reference_cluster_color_peaks,
    reference_nearest_assignment,
    reference_one_center,
    reference_solution_cost,
)


def test_distance_identity():
    inst = make_instance([(1.0, 2.0)], [0], k=1, alpha=1.0)
    assert inst.dist_row(0)[0] == 0.0


def test_distance_345():
    inst = make_instance([(0.0, 0.0), (3.0, 4.0)], [0, 0], k=1, alpha=1.0)
    assert inst.dist_row(0)[1] == 5.0


def test_distance_symmetry_random():
    rng = random.Random(7)
    for _ in range(50):
        coords = [(rng.random(), rng.random(), rng.random()) for _ in range(2)]
        inst = make_instance(coords, [0, 0], k=1, alpha=1.0)
        assert inst.dist_row(0)[1] == inst.dist_row(1)[0]


def test_distance_dimension_mismatch():
    # mixed dimensions never reach a distance: the instance refuses them
    with pytest.raises(InputError, match="dimensionality"):
        Instance([(0.0,), (0.0, 0.0)], [0, 0], k=1, alpha=1.0)


coords3 = st.tuples(*[st.floats(-100, 100) for _ in range(3)])


@given(coords3, coords3, coords3)
@settings(max_examples=200, deadline=None)
def test_triangle_inequality(a, b, c):
    inst = make_instance([a, b, c], [0, 0, 0], k=1, alpha=1.0)
    lhs = inst.dist_row(0)[2]
    rhs = inst.dist_row(0)[1] + inst.dist_row(1)[2]
    assert lhs <= rhs * (1 + 1e-9) + 1e-9


@pytest.mark.parametrize("dim", [1, 3, 10])
def test_distance_methods_agree_bit_for_bit(dim):
    # one formula everywhere: a distance must not depend on which method
    # computed it, nor on whether the full matrix was built first
    rng = np.random.default_rng(dim)
    n = 40
    coords = rng.standard_normal((n, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    inst = make_instance(coords, [0] * n, k=1, alpha=1.0)
    pos = rng.permutation(n)[:15].tolist()
    rows = np.array([inst.dist_row(a) for a in range(n)])
    block = inst.dist_block(pos)
    pairs = rng.permutation(n)
    paired = inst.dist_paired(pairs)
    assert np.array_equal(inst.dist_rows(np.array(pos)), rows[pos])
    assert np.array_equal(paired, rows[np.arange(n), pairs])
    matrix = inst.pairwise()
    assert np.array_equal(matrix, rows)
    assert np.array_equal(block, matrix[np.ix_(pos, pos)])
    assert np.array_equal(inst.dist_block(pos), block)
    assert np.array_equal(inst.dist_paired(pairs), paired)


def test_solution_cost_matches_per_point_maximum():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 15)
        coords = [(rng.random(), rng.random()) for _ in range(n)]
        inst = make_instance(coords, [0] * n, k=3, alpha=1.0)
        sol = reference_nearest_assignment(inst, rng.sample(inst.ids(), min(3, n)))
        expected = max(inst.dist_row(inst.pos(j))[inst.pos(i)] for j, i in sol.assign.items())
        assert solution_cost(inst, sol) == expected


def test_solution_cost_coincident_zero():
    inst = line_instance([0, 0, 0], k=1)
    sol = reference_nearest_assignment(inst, [0])
    assert solution_cost(inst, sol) == 0.0


def test_solution_cost_line():
    inst = line_instance([0, 1, 10, 11], k=2)
    sol = reference_nearest_assignment(inst, [0, 3])
    assert solution_cost(inst, sol) == 1.0


def test_solution_cost_singleton():
    inst = line_instance([5.0], k=1)
    sol = reference_nearest_assignment(inst, [0])
    assert solution_cost(inst, sol) == 0.0


def test_solution_cost_unassigned_is_contract_violation():
    inst = line_instance([0, 1], k=1)
    with pytest.raises(ContractViolation):
        solution_cost(inst, ClusteringSolution((0,), {0: 0}))


@pytest.mark.parametrize(
    "metric",
    [
        solution_cost,
        check_capped,
        lambda inst, sol: max_additive_violation(inst, sol, 0.5),
    ],
    ids=["solution_cost", "check_capped", "max_additive_violation"],
)
def test_partial_or_unopened_assignment_is_contract_violation(metric):
    inst = make_instance([(0.0,), (1.0,), (2.0,)], ["r", "b", "r"], k=2, alpha=0.5)
    for centers in [(0,), (0, 99)]:  # 99 names no point
        with pytest.raises(ContractViolation, match="point 2 has no assignment"):
            metric(inst, ClusteringSolution(centers, {0: 0, 1: 0}))
    with pytest.raises(ContractViolation, match="point 1 assigned to unopened center 2"):
        metric(inst, ClusteringSolution((0,), {0: 0, 1: 2, 2: 0}))


def test_positions_map_ids_and_flag_unknown_ones():
    for ids in ([4, 2, 9, 0], [10**12, -5, 77, 3]):  # a short id range and a wide one
        inst = make_instance([(float(j),) for j in range(4)], [0] * 4, k=1, alpha=1.0, ids=ids)
        assert inst.positions(ids[::-1]).tolist() == [3, 2, 1, 0]
        assert [inst.pos(i) for i in ids[::-1]] == [3, 2, 1, 0]
        assert inst.positions([1, 10, -6, 10**13]).tolist() == [-1, -1, -1, -1]
        assert inst.ids_at(np.array([2, 0])).tolist() == [ids[2], ids[0]]
        assert [inst.id_at(p) for p in (2, 0)] == [ids[2], ids[0]]


UNKNOWN_ID_CALLS = {
    "pos": lambda inst, ids: [inst.pos(i) for i in ids],
}


@pytest.mark.parametrize("entry", sorted(UNKNOWN_ID_CALLS))
def test_unknown_ids_are_input_errors(entry):
    inst = make_instance([(0.0,), (1.0,), (2.0,)], ["r", "b", "r"], k=2, alpha=0.5, ids=[4, -1, 9])
    call = UNKNOWN_ID_CALLS[entry]
    call(inst, [9, 4])  # known ids pass
    for ids in ([7], [4, 7], [-2], [2**63], [1.5]):
        with pytest.raises(InputError):
            call(inst, ids)


FACILITY_SET_CALLS = {
    "fair_k_center": lambda inst, fac: fair_k_center(inst, 1.0, restricted=fac),
    "build_polytope": lambda inst, fac: build_polytope(inst, 1.0, fac),
    "radius_pairs": lambda inst, fac: radius_pairs(inst, 1.0, fac),
}


@pytest.mark.parametrize("entry", sorted(FACILITY_SET_CALLS))
def test_bad_facility_positions_are_input_errors(entry):
    # facility sets are positions: the ids 4 and -1 name no position here
    inst = make_instance([(0.0,), (1.0,), (2.0,)], ["r", "b", "r"], k=2, alpha=0.5, ids=[4, -1, 9])
    call = FACILITY_SET_CALLS[entry]
    call(inst, [2, 0])  # positions in any order pass
    for fac in ([7], [-1], [1.5], [], [2**63]):
        with pytest.raises(InputError):
            call(inst, fac)


def _center_sets(inst: Instance, rng: np.random.Generator):
    """Random center id sets of a few sizes, plus the random baseline's."""
    ids = inst.ids()
    out = [rng.choice(ids, size=size, replace=False).tolist() for size in (1, 2, min(5, inst.n))]
    return out + [inst.ids_at(random_centers(inst, 0)).tolist()]


def test_array_metrics_equal_the_loop_references():
    rng = np.random.default_rng(5)
    for inst in exactness_pool():
        for centers in _center_sets(inst, rng):
            pos = np.sort(inst.positions(centers))
            cpos, dist = nearest_positions(inst, pos)
            sol = solution_at(inst, pos, cpos)
            ref = reference_nearest_assignment(inst, centers)
            assert sol == ref
            assert dist.tolist() == inst.dist_paired(cpos).tolist()
            assert list(sol.assign) == list(ref.assign)
            assert center_positions(inst, sol).tolist() == [
                inst.pos(sol.assign[j]) for j in inst.ids()
            ]
            assert solution_cost(inst, sol) == reference_solution_cost(inst, sol)
            sizes, peaks = cluster_color_peaks(inst, sol)
            ref_sizes, ref_peaks = reference_cluster_color_peaks(inst, sol)
            assert sizes.tolist() == ref_sizes.tolist() and peaks.tolist() == ref_peaks.tolist()


@pytest.mark.parametrize("floats", [None, 1, 100])
def test_one_center_equals_the_block_argmin(monkeypatch, floats):
    # small batches drive the bound search through many rounds
    if floats is not None:
        monkeypatch.setattr(core, "ONE_CENTER_FLOATS", floats)
    rng = np.random.default_rng(11)
    for inst in exactness_pool(1):
        for size in (1, 2, inst.n // 3, inst.n):
            pos = rng.permutation(inst.n)[:size].tolist()
            assert inst.one_center(pos) == reference_one_center(inst, pos)


def test_one_center_of_no_points_is_an_input_error():
    with pytest.raises(InputError, match="at least one"):
        line_instance([0, 1, 3]).one_center([])


def _unbatched_block(inst, pos):
    """dist_block's distances from one n x n x d difference, the formula it batches."""
    sub = inst.coords()[pos]
    return core._norm(sub[:, None, :] - sub[None, :, :])


@pytest.mark.parametrize("floats", [None, 1, 7, 100])
@pytest.mark.parametrize("dim", [1, 2, 3, 10, 37])
def test_dist_block_batches_keep_the_bits(monkeypatch, floats, dim):
    # batch sizes of 1 row, a few rows with a ragged last batch, and the
    # default, against the block computed in one step
    if floats is not None:
        monkeypatch.setattr(core, "ONE_CENTER_FLOATS", floats * dim)
    rng = np.random.default_rng(dim)
    n = 60
    coords = rng.standard_normal((n, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    inst = make_instance(coords, [0] * n, k=1, alpha=1.0)
    for pos in (rng.permutation(n)[:23], np.arange(n)):
        block = inst.dist_block(pos)
        assert block.dtype == np.float64 and block.shape == (pos.size, pos.size)
        assert block.tobytes() == _unbatched_block(inst, pos).tobytes()
    assert inst.pairwise().tobytes() == _unbatched_block(inst, np.arange(n)).tobytes()


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
def test_pairwise_peak_memory_stays_near_the_matrix():
    # in a fresh process: the high-water mark grows by the 18 MB matrix, not
    # by the 180 MB n x n x d difference
    n, dim = 1500, 10
    code = (
        "import resource, numpy as np\n"
        "from cappedkc import make_instance\n"
        f"coords = np.random.default_rng(0).standard_normal(({n}, {dim}))\n"
        f"inst = make_instance(coords, [0] * {n}, k=1, alpha=1.0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "inst.pairwise()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(Path(core.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    grown_mb = int(out.stdout) / 1024
    assert grown_mb < 3 * n * n * 8 / 2**20


def test_instance_keeps_no_pairwise_matrix():
    # the full matrix and the half route's sorted pairs belong to the caller:
    # once they are dropped, less than one n x n block is still held
    n = 400
    inst = make_balanced_instance(4, n // 4, dim=3, k=4, alpha=0.5, seed=5)
    row = make_instance(inst.coords(), [0] * n, k=1, alpha=1.0).dist_row(0).tobytes()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrix, (sol, lam) = inst.pairwise(), non_dominant_k_center(inst)
        del matrix, sol, lam
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < n * n * 8
    assert inst.dist_row(0).tobytes() == row


def test_check_capped_examples():
    inst = make_instance([(0.0,), (0.0,)], ["r", "b"], k=1, alpha=0.5)
    sol = reference_nearest_assignment(inst, [0])
    assert check_capped(inst, sol)

    inst = make_instance([(0.0,)] * 3, ["r", "r", "b"], k=1, alpha=0.5)
    sol = reference_nearest_assignment(inst, [0])
    assert not check_capped(inst, sol)

    inst = make_instance([(0.0,)] * 4, ["r", "r", "b", "g"], k=1, alpha=0.5)
    sol = reference_nearest_assignment(inst, [0])
    assert check_capped(inst, sol)


@given(st.integers(2, 9), st.floats(0.05, 1.0), st.floats(0.0, 1.0), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_check_capped_monotone_in_alpha(n, alpha, bump, seed):
    rng = random.Random(seed)
    colors = [rng.randrange(3) for _ in range(n)]
    inst = make_instance([(float(i),) for i in range(n)], colors, k=1, alpha=alpha)
    sol = reference_nearest_assignment(inst, [0])
    higher = min(1.0, alpha + bump)
    if check_capped(inst, sol, alpha):
        assert check_capped(inst, sol, higher)


def test_candidate_radii_collinear():
    inst = line_instance([0, 1, 3])
    assert candidate_radii(inst) == [0.0, 1.0, 2.0, 3.0]


def test_candidate_radii_single_point():
    inst = line_instance([4.2])
    assert candidate_radii(inst) == [0.0]


def test_candidate_radii_count_bound():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 12)
        inst = make_instance(
            [(rng.random(), rng.random()) for _ in range(n)], [0] * n, k=1, alpha=1.0
        )
        grid = candidate_radii(inst)
        assert len(grid) <= n * (n - 1) // 2 + 1
        assert grid[0] == 0.0
        assert all(type(r) is float for r in grid)
        assert all(a < b for a, b in zip(grid, grid[1:]))


def test_min_positive_distance_is_the_first_positive_radius(monkeypatch):
    # batches of a few rows each, so every pool instance spans several
    monkeypatch.setattr(core, "ONE_CENTER_FLOATS", 64)
    x = np.array([0.0, 2.0, 2.0, 5.0, 0.0])  # a line metric with zeros off the diagonal
    line = Instance(np.empty((5, 0)), [0] * 5, 1, 1.0, dist_matrix=np.abs(x[:, None] - x))
    pool = exactness_pool(3) + [line, line_instance([4.2]), line_instance([1, 1, 1])]
    for inst in pool:
        positive = [r for r in candidate_radii(inst) if r > 0.0]
        assert core.min_positive_distance(inst) == (positive[0] if positive else np.inf)


def test_cost_never_improves_when_center_removed():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 10)
        inst = make_instance(
            [(rng.random(), rng.random()) for _ in range(n)], [0] * n, k=3, alpha=1.0
        )
        centers = rng.sample(range(n), 3)
        full = solution_cost(inst, reference_nearest_assignment(inst, centers))
        for drop in centers:
            remaining = [c for c in centers if c != drop]
            reduced = solution_cost(inst, reference_nearest_assignment(inst, remaining))
            assert reduced >= full - 1e-12


def test_make_instance_reindexes_colors():
    inst = make_instance([(0.0,), (1.0,), (2.0,)], ["cat", "dog", "cat"], k=1, alpha=1.0)
    assert inst.n_colors == 2
    assert inst.color_labels == ("cat", "dog")
    assert inst.colors().tolist() == [0, 1, 0]


def test_instance_validation():
    with pytest.raises(InputError):
        make_instance([], [], k=1, alpha=0.5)
    with pytest.raises(InputError):
        make_instance([(0.0,)], ["r"], k=0, alpha=0.5)
    with pytest.raises(InputError, match="k must be an integer"):
        make_instance([(0.0,)], ["r"], k=1.5, alpha=0.5)
    with pytest.raises(InputError):
        make_instance([(0.0,)], ["r"], k=1, alpha=0.0)
    with pytest.raises(InputError):
        make_instance([(0.0,)], ["r"], k=1, alpha=1.5)
    with pytest.raises(InputError):
        make_instance([(0.0,), (0.0, 0.0)], ["r", "b"], k=1, alpha=0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="finite"):
            make_instance([(0.0,), (bad,)], ["r", "b"], k=1, alpha=0.5)
    for ids in ([5, 6], [5, 6, 7, 8]):  # one id short, one id over
        with pytest.raises(InputError, match="ids must have equal length"):
            make_instance([(0.0,), (1.0,), (2.0,)], ["r", "b", "r"], k=1, alpha=0.5, ids=ids)
    # the array constructor checks the same things on dense color ids
    coords = np.zeros((3, 2))
    bad = {
        "dimensionality": ([[0.0], [0.0, 0.0], [1.0]], [0, 0, 1], {}),
        "colors must have equal length": (coords, [0, 1], {}),
        "non-negative": (coords, [0, -1, 1], {}),
        "label table": (coords, [0, 1, 2], {"color_labels": ["r", "b"]}),
        "duplicate point ids": (coords, [0, 1, 0], {"ids": [4, 9, 4]}),
        "ids must have equal length": (coords, [0, 1, 0], {"ids": np.arange(4)}),
    }
    for reason, (xy, colors, extra) in bad.items():
        with pytest.raises(InputError, match=reason):
            Instance(xy, colors, k=1, alpha=0.5, **extra)


def test_instance_rejects_bad_dist_matrix():
    graph = np.empty((2, 0))  # zero-column coords: the matrix is the metric
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert Instance(graph, [0, 1], k=1, alpha=0.5, dist_matrix=good).dist_row(0)[1] == 1.0
    bad = {
        "finite": [[0.0, np.inf], [np.inf, 0.0]],
        "symmetric": [[0.0, 1.0], [2.0, 0.0]],
        "zero diagonal": [[1.0, 1.0], [1.0, 0.0]],
        "shape mismatch": np.zeros((3, 3)),
    }
    for reason, matrix in bad.items():
        with pytest.raises(InputError, match=reason):
            Instance(graph, [0, 1], k=1, alpha=0.5, dist_matrix=np.array(matrix))


def test_instance_keeps_its_own_read_only_arrays():
    dm = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    inst = Instance(np.empty((3, 0)), [0, 0, 0], k=1, alpha=1.0, dist_matrix=dm)
    dm[0, 2] = dm[2, 0] = 99.0  # the caller's array, after validation
    assert inst.dist_row(0)[2] == inst.dist_row(2)[0] == 2.0
    euclid = make_instance([(0.0,), (1.0,), (3.0,)], ["r", "b", "r"], k=1, alpha=0.5)
    for view in (inst.dist_row(0), inst.pairwise(), euclid.dist_row(0), euclid.pairwise(),
                 euclid.coords(), euclid.colors()):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 5
    assert euclid.dist_row(0)[0] == 0.0 and euclid.dist_row(0)[2] == euclid.dist_row(2)[0] == 3.0
