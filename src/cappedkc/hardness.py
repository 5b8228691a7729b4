"""Gadget instances reducing star decomposition to capped clustering, and the exact capped optimum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from .core import CAP_TOL, ClusteringSolution, InfeasibleInstance, InputError, Instance, solution_at
from .lp_feasibility import _solve_highs


@dataclass(frozen=True)
class BipartiteSeed:
    """Bipartite graph plus the cap parameter t; the target cap is 1/(2+t)."""

    n_left: int
    n_right: int
    edges: tuple[tuple[int, int], ...]  # (left index, right index)
    t: int = 0

    def __post_init__(self):
        if self.t < 0:
            raise InputError("t must be non-negative")
        for a, b in self.edges:
            if not (0 <= a < self.n_left and 0 <= b < self.n_right):
                raise InputError(f"edge ({a},{b}) out of range")


def _star_counts(seed: BipartiteSeed) -> tuple[int, int] | None:
    """Solve 2*tr + tb = |V1|, tr + 2*tb = |V2| over the non-negative integers."""
    n1, n2 = seed.n_left, seed.n_right
    num_tr, num_tb = 2 * n1 - n2, 2 * n2 - n1
    if num_tr % 3 or num_tb % 3 or num_tr < 0 or num_tb < 0:
        return None
    return num_tr // 3, num_tb // 3


def hardness_instance(seed: BipartiteSeed) -> Instance:
    """Four-layer gadget graph whose capped clustering cost encodes decomposability.

    When the star-count system has no non-negative integer solution the
    instance degenerates to a single red node (which admits no capped
    clustering at all).  The metric is unit-length shortest path on the
    gadget; nodes in different components sit at a sentinel distance equal
    to the node count, which exceeds every true path length.  The instance
    allows k = n clusters, so the budget row of `capped_opt`'s 0/1 program
    is slack on gadgets and the optimum counts any number of clusters.
    """
    alpha = 1.0 / (2 + seed.t)
    counts = _star_counts(seed)
    if counts is None:
        return Instance(np.empty((1, 0)), [0], k=1, alpha=alpha, color_labels=["red"])
    tr, tb = counts
    n1, n2 = seed.n_left, seed.n_right
    u_b, u_r = n2 - tr, n1 - tb

    colors: list[int] = []

    def layer(size: int, color: int) -> list[int]:
        start = len(colors)
        colors.extend([color] * size)
        return list(range(start, start + size))

    RED, BLUE = 0, 1
    r1 = layer(n1, RED)
    b1 = layer(n2, BLUE)
    r2 = layer(n1, RED)
    b2 = layer(n2, BLUE)
    b3 = layer(u_b, BLUE)
    r3 = layer(u_r, RED)
    r4 = layer(2 * u_b, RED)
    b4 = layer(2 * u_r, BLUE)

    edges: list[tuple[int, int]] = []
    edges += [(r1[a], b1[b]) for a, b in seed.edges]
    edges += [(r1[i], r2[i]) for i in range(n1)]
    edges += [(b1[i], b2[i]) for i in range(n2)]
    edges += [(a, b) for a in r2 for b in r3]
    edges += [(a, b) for a in b2 for b in b3]
    edges += [(b3[i], r4[2 * i + s]) for i in range(u_b) for s in (0, 1)]
    edges += [(r3[i], b4[2 * i + s]) for i in range(u_r) for s in (0, 1)]

    labels = ["red", "blue"]
    l3 = b3 + r3
    for tau in range(1, seed.t + 1):
        color = 1 + tau
        labels.append(f"c{tau}")
        # pad the star clusters: 2*tr extra-color nodes next to the blue side
        # of layer one, 2*tb next to the red side
        c2b = layer(2 * tr, color)
        c2r = layer(2 * tb, color)
        c4 = layer(2 * len(l3), color)
        edges += [(a, b) for a in b1 for b in c2b]
        edges += [(a, b) for a in r1 for b in c2r]
        edges += [(l3[i], c4[2 * i + s]) for i in range(len(l3)) for s in (0, 1)]

    n = len(colors)
    tail, head = np.array(edges, dtype=int).reshape(-1, 2).T
    graph = sp.csr_matrix((np.ones(tail.size), (tail, head)), shape=(n, n))
    dist = shortest_path(graph, directed=False, unweighted=True)
    dist[np.isinf(dist)] = float(n)

    return Instance(
        np.empty((n, 0)), colors, k=n, alpha=alpha, color_labels=labels, dist_matrix=dist
    )


def _capped_system(inst: Instance, dm: np.ndarray, radius: float):
    """The 0/1 program behind capped_opt as (A, lb, ub, fac, client), A in CSC form.

    Columns are one opening y_i per point, then one assignment x_ij per pair
    with dm[i, j] <= radius (`dm` is `inst.pairwise()`, computed once by the
    caller for every radius), in (facility, client) position order.  Rows
    are unit coverage per client, x_ij <= y_i per pair, one cap row per
    (facility with a pair, color) listing every pair of the facility, then
    the budget row sum_i y_i <= k.  The cap rows are scaled to integer
    coefficients when 1/alpha is an integer.  `fac` and `client` are the
    pairs' positions, in column order.  None when some client has no
    facility in radius.
    """
    n, nc = inst.n, inst.n_colors
    near = dm <= radius
    if not near.any(axis=0).all():
        return None
    fac, client = np.nonzero(near)
    n_pairs = fac.size
    xcol = n + np.arange(n_pairs)
    open_row = n + np.arange(n_pairs)
    ones = np.ones(n_pairs)

    inv = round(1.0 / inst.alpha)
    scale = float(inv) if abs(inst.alpha - 1.0 / inv) < 1e-12 else 1.0 / inst.alpha
    # cap row (facility, c): (scale - 1) on the pairs whose client has color c, -1 on the rest
    facs, rank = np.unique(fac, return_inverse=True)
    cap_row = n + n_pairs + (rank[:, None] * nc + np.arange(nc)).ravel()
    coeff = np.where(inst.colors()[client][:, None] == np.arange(nc), scale - 1.0, -1.0)

    budget_row = n + n_pairs + facs.size * nc
    A = sp.csc_matrix(
        (
            np.concatenate([ones, ones, -ones, coeff.ravel(), np.ones(n)]),
            (
                np.concatenate([client, open_row, open_row, cap_row, np.full(n, budget_row)]),
                np.concatenate([xcol, xcol, fac, np.repeat(xcol, nc), np.arange(n)]),
            ),
        ),
        shape=(budget_row + 1, n + n_pairs),
    )
    lb = np.concatenate([np.ones(n), np.full(budget_row + 1 - n, -np.inf)])
    ub = np.concatenate([np.ones(n), np.zeros(budget_row - n), [float(inst.k)]])
    return A, lb, ub, fac, client


def _capped_solution(inst: Instance, dm: np.ndarray, radius: float) -> ClusteringSolution | None:
    """A capped clustering with at most k clusters and cost <= radius, or None.

    Solved as a 0/1 integer program by `_solve_highs`.  The centers are the
    facilities that serve a client at the integral point.  A HiGHS status
    other than optimal or infeasible raises SolverError.
    """
    system = _capped_system(inst, dm, radius)
    if system is None:
        return None
    A, lb, ub, fac, client = system
    ones = np.ones(A.shape[1])
    x = _solve_highs(A, lb, ub, ones, integrality=ones)
    if x is None:
        return None
    chosen = x[inst.n :] > 0.5
    return solution_at(inst, np.unique(fac[chosen]), fac[chosen], client[chosen])


def capped_opt(inst: Instance) -> tuple[float, ClusteringSolution]:
    """Exact capped k-center optimum: the cost and a clustering that attains it.

    Raises InfeasibleInstance, without a solve, exactly when some color holds
    more than an alpha share of the points: a union of capped clusters is
    capped, and otherwise all points form one capped cluster at the largest
    distance.  Then it bisects the 0/1 program over the distinct pairwise
    distances, since a larger radius only admits more pairs; the optimum is
    the first distance that admits a capped clustering.
    """
    if np.bincount(inst.colors()).max() > inst.alpha * inst.n + CAP_TOL:
        raise InfeasibleInstance("a color holds more than an alpha share of the points")
    dm = inst.pairwise()
    radii = np.unique(dm)
    lo, hi, best = 0, radii.size, None
    while lo < hi:
        mid = (lo + hi) // 2
        sol = _capped_solution(inst, dm, float(radii[mid]))
        if sol is None:
            lo = mid + 1
        else:
            hi, best = mid, sol
    return float(radii[hi]), best
