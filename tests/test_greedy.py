import random

import numpy as np

from cappedkc import Instance, greedy_k_center, make_instance, solution_cost
from cappedkc.core import nearest_positions
from cappedkc.greedy import farthest_first, lloyd_round, random_centers
from conftest import exactness_pool, line_instance, reference_one_center


def test_greedy_line_k2():
    inst = line_instance([0, 1, 10, 11], k=2)
    sol, cost = greedy_k_center(inst)
    assert sol.centers == (0, 3)
    assert cost == 1.0


def test_greedy_line_k1():
    inst = line_instance([0, 1, 10, 11], k=1)
    _, cost = greedy_k_center(inst)
    assert cost == 11.0


def test_greedy_k_at_least_n():
    inst = line_instance([0, 1, 2], k=7)
    sol, cost = greedy_k_center(inst)
    assert len(sol.centers) == 3
    assert cost == 0.0


def test_greedy_duplicate_points_center_count():
    inst = line_instance([0, 0, 0, 5], k=3)
    sol, _ = greedy_k_center(inst)
    assert len(sol.centers) == 3


def test_greedy_centers_spread_beyond_cost():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(6, 14)
        inst = make_instance(
            [(rng.random(), rng.random()) for _ in range(n)], [0] * n, k=3, alpha=1.0
        )
        sol, cost = greedy_k_center(inst)
        centers = list(sol.centers)
        for a in range(len(centers)):
            for b in range(a + 1, len(centers)):
                assert inst.dist_row(centers[a])[centers[b]] >= cost - 1e-9


def test_traversal_radii_are_the_prefix_radii():
    # radii[t-1] of one traversal is the last radius of a t-pick traversal,
    # bit for bit, and the radius of that traversal's centers; duplicates and
    # matrix metrics included, over every point and over a subset
    for inst in exactness_pool():
        for pos in (None, np.arange(0, inst.n, 2)):
            clients = np.arange(inst.n) if pos is None else pos
            centers, radii = farthest_first(inst, 25, pos)
            assert radii.size == centers.size == min(25, clients.size)
            for t in range(1, radii.size + 1):
                prefix, prefix_radii = farthest_first(inst, t, pos)
                assert np.isin(prefix, centers).all()
                assert prefix_radii.tobytes() == radii[:t].tobytes()
                assert prefix_radii[-1] == nearest_positions(inst, prefix, clients)[1].max()


def _nearest(inst: Instance, centers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The center positions `centers`, ascending, with each point's nearest one and its distance."""
    centers = np.array(sorted(centers))
    return (centers, *nearest_positions(inst, centers))


def test_lloyd_moves_line_center():
    inst = line_instance([0, 1, 2], k=1)
    moved, moved_cpos, dist = lloyd_round(inst, *_nearest(inst, [0]))
    assert moved.tolist() == [1] and moved_cpos.tolist() == [1, 1, 1]
    assert dist.max() == 1.0


def test_lloyd_fixed_point():
    inst = line_instance([0, 1, 10, 11], k=2)
    centers, cpos, dist = _nearest(inst, [0, 3])
    # centers {0,11} are already discrete 1-centers of their clusters up to ties
    assert lloyd_round(inst, centers, cpos, dist)[2].max() == dist.max()


def test_lloyd_singletons_unchanged():
    inst = line_instance([0, 5, 9], k=3)
    assert lloyd_round(inst, *_nearest(inst, [0, 1, 2]))[0].tolist() == [0, 1, 2]


def test_lloyd_never_increases_cost():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(4, 12)
        inst = make_instance(
            [(rng.random(), rng.random()) for _ in range(n)], [0] * n, k=3, alpha=1.0
        )
        centers, cpos, before = _nearest(inst, rng.sample(range(n), min(3, n)))
        moved, moved_cpos, after = lloyd_round(inst, centers, cpos, before)
        assert np.isin(moved_cpos, moved).all()
        assert after.tolist() == inst.dist_paired(moved_cpos).tolist()
        assert after.max() <= before.max() + 1e-12


def test_lloyd_round_works_without_the_distance_matrix(monkeypatch):
    rng = random.Random(19)
    cases = []
    for _ in range(10):
        n = rng.randint(4, 20)
        inst = make_instance(
            [(rng.random(), rng.random(), rng.random()) for _ in range(n)], [0] * n, k=3, alpha=1.0
        )
        start = _nearest(inst, rng.sample(range(n), 3))
        # the same metric as a supplied matrix: the reference reads no coordinates
        full = Instance(inst.coords(), [0] * n, k=3, alpha=1.0, dist_matrix=inst.pairwise())
        cases.append((inst, start, lloyd_round(full, *start)))

    def no_matrix(self):
        raise AssertionError("the Lloyd round must not build the full distance matrix")

    monkeypatch.setattr(Instance, "pairwise", no_matrix)
    for inst, start, expected in cases:
        out = lloyd_round(inst, *start)
        assert all(np.array_equal(a, b) for a, b in zip(out, expected))
        greedy_sol, greedy_cost = greedy_k_center(inst)
        assert greedy_cost == solution_cost(inst, greedy_sol)


def test_lloyd_round_builds_no_block_for_a_large_cluster(monkeypatch):
    # one cluster of 400 points: its whole distance block would be 400 x 400 x 10
    rng = np.random.default_rng(23)
    inst = make_instance(rng.standard_normal((400, 10)), [0] * 400, k=1, alpha=1.0)
    start = _nearest(inst, [0])
    expected = lloyd_round(inst, *start)
    assert expected[0].tolist() == [reference_one_center(inst, list(range(400)))]

    def no_block(self, *args):
        raise AssertionError("the Lloyd round must not build a cluster's distance block")

    monkeypatch.setattr(Instance, "dist_block", no_block)
    monkeypatch.setattr(Instance, "pairwise", no_block)
    out = lloyd_round(inst, *start)
    assert all(np.array_equal(a, b) for a, b in zip(out, expected))


def test_random_baseline_deterministic():
    inst = line_instance([0, 1, 2, 3, 4], k=2)
    assert random_centers(inst, 123).tolist() == random_centers(inst, 123).tolist()


def test_random_baseline_full_k():
    inst = line_instance([0, 1, 2], k=3)
    assert random_centers(inst, 0).tolist() == [0, 1, 2]


def test_random_baseline_k_above_n_takes_every_point():
    # min(k, n) centers, as farthest_first opens
    inst = line_instance([0, 1], k=2)
    assert random_centers(inst.with_params(k=3), 0).tolist() == [0, 1]
