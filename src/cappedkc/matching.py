"""Maximum-cardinality matching on general graphs (blossom contraction)."""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np


def sorted_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> list[list[int]]:
    """Each node's neighbors in ascending order, from edge endpoint arrays.

    The edges (u[e], v[e]) must be distinct, with no self-loops.  Both
    directions of every edge are packed into one int64 key `src * n + dst`
    and sorted once; distinct edges give distinct keys, so this is the
    (src, dst) lexicographic order.  The endpoints are widened to int64
    first, so int32 input cannot overflow the key.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    src, dst = np.divmod(np.sort(np.concatenate((u * n + v, v * n + u))), n)
    flat = dst.tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def max_matching(adj: Sequence[Sequence[int]]) -> set[tuple[int, int]]:
    """Maximum-cardinality matching; odd cycles are handled by blossom contraction.

    `adj[v]` lists v's neighbors in ascending order, symmetrically and
    without self-loops, as `sorted_adjacency` gives them.  Roots and
    neighbors are visited in node order, so a node with an empty list
    changes nothing for the others: emptying some nodes' lists, and removing
    them from their neighbors' lists, gives the matching of the graph with
    those nodes deleted, in the same node numbering.

    O(n^3)-style implementation: repeatedly grow an alternating BFS forest
    from each exposed node, contracting blossoms in-place via a base[] array,
    and augment when an exposed node is reached.  A root whose neighbor
    list holds an exposed node is matched to the first such node without a
    search: the search from that root scans the root's own list before any
    other node's, and no exposed node gets a parent or joins a blossom
    before its edge from the root is scanned, so the search would augment
    along exactly that edge.  A root with no neighbors is left exposed
    without a search.
    """
    n = len(adj)
    match = [-1] * n

    def lca(a: int, b: int, base: list[int], parent: list[int]) -> int:
        seen = [False] * n
        v = a
        while True:
            v = base[v]
            seen[v] = True
            if match[v] == -1:
                break
            v = parent[match[v]]
        v = b
        while True:
            v = base[v]
            if seen[v]:
                return v
            v = parent[match[v]]

    def mark_path(v: int, b: int, child: int, base: list[int], parent: list[int], blossom: list[bool]):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> bool:
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom around its base
                    curbase = lca(v, to, base, parent)
                    blossom = [False] * n
                    mark_path(v, curbase, to, base, parent, blossom)
                    mark_path(to, curbase, v, base, parent, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # found an exposed node: flip matched/unmatched along the path
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            mate = next((to for to in adj[v] if match[to] == -1), -1)
            if mate != -1:
                match[v] = mate
                match[mate] = v
            elif adj[v]:
                find_augmenting_path(v)

    return {(v, match[v]) for v in range(n) if match[v] > v}

