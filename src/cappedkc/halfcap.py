"""Combinatorial algorithm for the half cap: no color may reach a cluster majority."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .core import (
    ClusteringSolution,
    InfeasibleInstance,
    InputError,
    Instance,
    nearest_positions,
    solution_at,
    sorted_pairs,
)
from .greedy import farthest_first
from .matching import max_matching, sorted_adjacency

ACCEPT_TOL = 1e-9


def _triangles(adj: list[list[int]]) -> Iterator[tuple[int, int, int]]:
    """Every triangle a < b < c of the graph, in lexicographic order."""
    for a, nbrs in enumerate(adj):
        higher = [b for b in nbrs if b > a]
        for i, b in enumerate(higher):
            b_nbrs = set(adj[b])
            for c in higher[i + 1 :]:
                if c in b_nbrs:
                    yield a, b, c


def caplet_decompose(
    nodes: Sequence[int], u: np.ndarray, v: np.ndarray
) -> tuple[tuple[int, ...], ...] | None:
    """Partition a component into caplets: distinct-color pairs plus at most one triangle.

    `nodes` are the component's labels in ascending order (any labels; the
    route passes point positions), and the edges join nodes[u[e]] and
    nodes[v[e]]; each pair appears once.  Every edge must join two different
    colors, as the route's pairs do, so the caplets need no color check.
    Even components are one perfect-matching attempt.  Odd
    components try each triangle in lexicographic node order, then a perfect
    matching on the rest; the first success wins.  Returns the caplets as
    ascending tuples of labels, in ascending order, or None when no
    decomposition exists (in particular for singletons).
    """
    m = len(nodes)
    if m < 2:
        return None
    adj = sorted_adjacency(m, u, v)

    if m % 2 == 0:
        pairs = max_matching(adj)
        if len(pairs) * 2 != m:
            return None
        return tuple((nodes[a], nodes[b]) for a, b in sorted(pairs))

    # odd: one triangle is forced; any triangle of the graph has 3 distinct colors
    for tri in _triangles(adj):
        rest = [[] if a in tri else [b for b in nbrs if b not in tri] for a, nbrs in enumerate(adj)]
        pairs = max_matching(rest)
        if len(pairs) * 2 == m - 3:
            caplets = [tuple(nodes[a] for a in tri)]
            caplets += [(nodes[a], nodes[b]) for a, b in pairs]
            return tuple(sorted(caplets))
    return None


def _decompose_components(
    inst: Instance,
    comps: list[tuple[int, ...]],
    label: np.ndarray,
    pa: np.ndarray,
    pb: np.ndarray,
    decomposed: dict[tuple[int, ...], tuple[int, tuple[tuple[int, ...], ...] | None]],
) -> list[tuple[int, ...]] | None:
    """Caplets of every component in order, or None once one has no decomposition.

    `comps` and so the caplets are ascending position tuples.  `pa`, `pb`
    are the differently-colored pairs within 10*lam and `label` maps each
    position to the smallest member of its component.
    `decomposed` maps a component's members to its number of such pairs and
    its decomposition with them; for fixed members the pairs only grow with
    lam, so an equal count means an equal edge set and the entry is reused.
    """
    wide_label = label[pa]
    inside = wide_label == label[pb]
    wide_count = np.bincount(wide_label[inside], minlength=inst.n)
    rank = np.empty(inst.n, dtype=np.int64)  # each position's index in its component
    caplets: list[tuple[int, ...]] = []
    for comp in comps:
        count = int(wide_count[comp[0]])
        cached = decomposed.get(comp)
        if cached is None or cached[0] != count:
            rank[list(comp)] = np.arange(len(comp))
            edge = np.flatnonzero(inside & (wide_label == comp[0]))
            dec = caplet_decompose(comp, rank[pa[edge]], rank[pb[edge]])
            cached = decomposed[comp] = (count, dec)
        if cached[1] is None:
            return None
        caplets.extend(cached[1])
    return caplets


def _first_join(label: np.ndarray, pa: np.ndarray, pb: np.ndarray, lo: int, hi: int) -> int:
    """Index of the first pair in [lo, hi) whose ends carry different labels, or hi.

    Scans in doubling chunks, so a join near `lo` costs little however far `hi` is.
    """
    step = 1024
    while lo < hi:
        top = min(hi, lo + step)
        split = np.flatnonzero(label[pa[lo:top]] != label[pb[lo:top]])
        if split.size:
            return lo + int(split[0])
        lo, step = top, 2 * step
    return hi


def non_dominant_k_center(inst: Instance) -> tuple[ClusteringSolution, float]:
    """Half-capped clustering via caplet decomposition of threshold components.

    Scans candidate radii in ascending order; at each radius, components of
    the 2*lam threshold graph are decomposed using edges up to 10*lam, one
    representative per caplet is clustered greedily, and the radius is
    accepted when the greedy cost stays within 2*lam.  Every caplet follows
    its representative, so no cluster ever has a color majority and the cost
    stays within 12 times the accepted radius, which comes back with the
    solution.

    The scan is one pass over the differently-colored pairs in the order of
    `sorted_pairs`, which sorts every pair once by distance and also gives
    the candidate radii: each radius takes the <= 2*lam and <= 10*lam
    prefixes of that order, found for all radii by one `searchsorted` each.
    Radii at which some point has no partner within 2*lam are skipped,
    since that point is a singleton component no caplet can cover.
    The 2*lam components grow by merging as the prefix grows.  Caplets are
    recomputed only when the components or the 10*lam prefix change, a
    component's decomposition only when its members or its number of 10*lam
    edges change, and greedy only when the representatives change.  After a
    rejected radius the scan jumps to the first later one at which the
    verdict can change: the 10*lam prefix grows, greedy's cost fits within
    `2*lam + ACCEPT_TOL` (the same float expression, for all radii at
    once), or a pair within 2*lam joins two components.  The result is the
    one a fresh computation at every radius gives.
    """
    if abs(inst.alpha - 0.5) > 1e-12:
        raise InputError("algorithm 'half' requires alpha = 1/2")
    pa, pb, pd, radii = sorted_pairs(inst)
    keep = inst.colors()[pa] != inst.colors()[pb]  # a filter, so the pairs stay sorted
    pa, pb, pd = pa[keep], pb[keep], pd[keep]
    nearest = np.full(inst.n, np.inf)
    np.minimum.at(nearest, pa, pd)
    np.minimum.at(nearest, pb, pd)
    no_singletons = nearest.max()

    label = np.arange(inst.n)  # smallest member of each point's 2*lam component
    comps: list[tuple[int, ...]] = []
    n_near = n_wide = 0
    decomposed: dict[tuple[int, ...], tuple[int, tuple[tuple[int, ...], ...] | None]] = {}
    last_reps: tuple[int, ...] | None = None

    radii = radii[2.0 * radii >= no_singletons]
    nears = np.searchsorted(pd, 2.0 * radii, side="right")
    wides = np.searchsorted(pd, 10.0 * radii, side="right")
    fits = 2.0 * radii + ACCEPT_TOL  # ascending; greedy's cost is accepted up to it
    i = 0
    while i < radii.size:
        lam, near, wide = float(radii[i]), int(nears[i]), int(wides[i])
        merged = not comps
        for a, b in zip(pa[n_near:near].tolist(), pb[n_near:near].tolist()):
            la, lb = label[a], label[b]
            if la != lb:
                label[label == max(la, lb)] = min(la, lb)
                merged = True
        n_near = max(n_near, near)  # past near only when the pairs skipped below join nothing
        if merged:
            comps = [tuple(np.flatnonzero(label == r).tolist()) for r in np.unique(label)]
        if merged or wide != n_wide:
            n_wide = wide
            caplets = _decompose_components(inst, comps, label, pa[:n_wide], pb[:n_wide], decomposed)
            if caplets is not None:
                # each caplet's representative is its first, lowest-position member
                rep_pos = [cap[0] for cap in caplets]
                reps = tuple(sorted(rep_pos))  # caplets need not ascend across components

        if caplets is not None:
            if reps != last_reps:
                last_reps = reps
                centers, reach = farthest_first(inst, inst.k, np.array(reps))
                gcost = float(reach[-1])
            if not gcost > 2.0 * lam + ACCEPT_TOL:
                rep_center, _ = nearest_positions(inst, centers, np.array(rep_pos))
                cpos = np.repeat(rep_center, [len(cap) for cap in caplets])
                return solution_at(inst, centers, cpos, np.concatenate(caplets)), lam

        # rejected: the verdict repeats until the 10*lam prefix grows, greedy's
        # cost fits within 2*lam, or a pair within 2*lam joins two components
        nxt = int(np.searchsorted(wides, n_wide, side="right"))
        if caplets is not None:
            nxt = min(nxt, int(np.searchsorted(fits, gcost, side="left")))
        last = int(nears[min(nxt, radii.size - 1)])
        if n_near < last:
            n_near = _first_join(label, pa, pb, n_near, last)  # the pairs before it join nothing
            if n_near < last:
                nxt = min(nxt, int(np.searchsorted(nears, n_near, side="right")))
        i = nxt

    raise InfeasibleInstance("no radius admits a caplet decomposition with a greedy cover")
