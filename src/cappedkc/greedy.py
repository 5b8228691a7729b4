"""Unconstrained baselines: farthest-first k-center, one Lloyd round, random centers."""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .core import (
    ClusteringSolution,
    InputError,
    Instance,
    center_positions,
    nearest_assignment,
    solution_cost,
)


def greedy_k_center(
    inst: Instance,
    k: int | None = None,
    subset: Sequence[int] | None = None,
) -> tuple[ClusteringSolution, float]:
    """Farthest-first traversal: repeatedly open the client farthest from the open set.

    `k` overrides inst.k and `subset` restricts both clients and candidate
    centers to the given point ids (used for coresets and caplet
    representatives).  The first center is the lowest position; ties in the
    farthest-client argmax break to the lowest position, and points already
    chosen as centers are skipped, so exactly min(k, n) distinct centers come
    back.
    """
    target_k = inst.k if k is None else k
    if target_k < 1:
        raise InputError("k must be >= 1")
    if subset is None:
        pos_list = list(range(inst.n))
    else:
        pos_list = sorted(inst.pos(j) for j in subset)
        if not pos_list:
            raise InputError("subset must be non-empty")
    pos_arr = np.array(pos_list, dtype=int)
    target_k = min(target_k, len(pos_list))

    centers = [pos_list[0]]
    min_dist = inst.dist_row(pos_list[0])[pos_arr].copy()
    chosen = np.zeros(len(pos_list), dtype=bool)
    chosen[0] = True
    while len(centers) < target_k:
        masked = np.where(chosen, -np.inf, min_dist)
        nxt = int(masked.argmax())  # argmax takes the lowest position on ties
        chosen[nxt] = True
        centers.append(pos_list[nxt])
        min_dist = np.minimum(min_dist, inst.dist_row(pos_list[nxt])[pos_arr])

    center_ids = [inst.id_at(p) for p in centers]
    # min_dist holds each point's distance to its nearest center, which is
    # the center _nearest_on_subset assigns it to
    return _nearest_on_subset(inst, center_ids, pos_arr), float(min_dist.max())


def _nearest_on_subset(inst: Instance, center_ids: list[int], pos_arr: np.ndarray) -> ClusteringSolution:
    order = sorted(center_ids, key=inst.pos)
    rows = np.stack([inst.dist_row(inst.pos(c))[pos_arr] for c in order])
    choice = rows.argmin(axis=0)
    assign = dict(zip(inst.ids_at(pos_arr).tolist(), np.array(order)[choice].tolist()))
    return ClusteringSolution(tuple(sorted(center_ids)), assign)


def lloyd_kcenter_round(inst: Instance, sol: ClusteringSolution) -> ClusteringSolution:
    """One refinement round with k-center cost.

    Each cluster's center moves to the member minimizing the maximum
    intra-cluster distance (discrete 1-center, ties to the lowest id),
    then all points are reassigned to their nearest new center.
    """
    cpos = center_positions(inst, sol)
    ids = inst.ids_at(np.arange(inst.n))
    # positions grouped by cluster, each group in member id order
    order = np.lexsort((ids, cpos))
    groups = np.split(order, np.flatnonzero(np.diff(cpos[order])) + 1)
    # a set: two clusters can elect the same point
    new_centers = {int(ids[g[inst.one_center(g)]]) for g in groups}
    refined = nearest_assignment(inst, list(new_centers))
    # an input center outside its own cluster can make the 1-center step
    # regress; the round must never cost more than the input's nearest rebind
    rebind = nearest_assignment(inst, list(sol.centers))
    if solution_cost(inst, refined) <= solution_cost(inst, rebind):
        return refined
    return rebind


def random_baseline(inst: Instance, seed: int) -> ClusteringSolution:
    """k distinct uniformly random centers, nearest assignment, deterministic per seed."""
    if inst.k > inst.n:
        raise InputError("k exceeds the number of points")
    rng = random.Random(seed)
    chosen_pos = sorted(rng.sample(range(inst.n), inst.k))
    return nearest_assignment(inst, [inst.id_at(p) for p in chosen_pos])
