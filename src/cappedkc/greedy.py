"""Unconstrained baselines: farthest-first k-center, one Lloyd round, random centers.

Each baseline works on point positions: center positions in ascending
order, and per client the position of its center (`cpos`) and the distance
to it.  Only `greedy_k_center` builds a ClusteringSolution from them.
"""

from __future__ import annotations

import random

import numpy as np

from .core import ClusteringSolution, Instance, nearest_positions, solution_at


def farthest_first(
    inst: Instance, k: int, pos: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-first traversal over the points at ascending positions `pos` (all by default).

    Returns the min(k, |pos|) center positions in ascending order, and the
    radius after each pick: radii[t-1], the largest distance from a point of
    `pos` to its nearest of the first t centers, ends a t-pick traversal.
    The first center is the lowest position; ties in the farthest-client
    argmax break to the lowest position, and points already chosen are skipped.
    """
    if pos is None:
        pos = np.arange(inst.n)
    target_k = min(k, pos.size)
    centers = [0]
    radii = []
    min_dist = inst.dist_row(int(pos[0]))[pos]
    chosen = np.zeros(pos.size, dtype=bool)
    chosen[0] = True
    while len(centers) < target_k:
        masked = np.where(chosen, -np.inf, min_dist)
        nxt = int(masked.argmax())  # argmax takes the lowest position on ties
        # chosen points sit at distance 0, so this is min_dist.max()
        radii.append(masked[nxt])
        chosen[nxt] = True
        centers.append(nxt)
        min_dist = np.minimum(min_dist, inst.dist_row(int(pos[nxt]))[pos])
    radii.append(min_dist.max())
    return np.sort(pos[centers]), np.array(radii)


def greedy_k_center(inst: Instance) -> tuple[ClusteringSolution, float]:
    """Farthest-first traversal: repeatedly open the client farthest from the open set.

    Exactly min(inst.k, n) distinct centers come back (see `farthest_first`),
    each client assigned to its nearest one, with the traversal's radius.
    """
    centers, radii = farthest_first(inst, inst.k)
    # the last radius is the largest distance to the center nearest_positions picks
    cpos, _ = nearest_positions(inst, centers)
    return solution_at(inst, centers, cpos), float(radii[-1])


def lloyd_round(
    inst: Instance, centers: np.ndarray, cpos: np.ndarray, dist: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One refinement round with k-center cost: the new centers, cpos and distances.

    `centers` are ascending positions, and `cpos`, `dist` each point's
    nearest center position and its distance to it, as `nearest_positions`
    gives them.  Each cluster's center moves to the member minimizing the
    maximum intra-cluster distance (discrete 1-center, ties to the lowest
    position), then all points go to their nearest new center.
    """
    # positions grouped by cluster, each group ascending
    order = np.argsort(cpos, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(cpos[order])) + 1)
    # unique: two clusters can elect the same point
    moved = np.unique([g[inst.one_center(g)] for g in groups])
    refined = nearest_positions(inst, moved)
    # an input center outside its own cluster can make the 1-center step
    # regress; the round must never cost more than the input's nearest rebind
    if refined[1].max() <= dist.max():
        return (moved, *refined)
    return centers, cpos, dist


def random_centers(inst: Instance, seed: int) -> np.ndarray:
    """min(k, n) distinct uniformly random center positions, ascending, deterministic per seed."""
    return np.array(sorted(random.Random(seed).sample(range(inst.n), min(inst.k, inst.n))))
