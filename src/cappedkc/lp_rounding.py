"""Round a fractional radius-lam point to an integral clustering within 3*lam."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ClusteringSolution, ContractViolation, InputError, Instance, ceil_inv_alpha
from .flow import build_assignment_network, extract_assignment, max_flow_lower_bounds
from .lp_feasibility import (
    RADIUS_SLACK,
    FractionalSolution,
    check_feasible,
    passes_prechecks,
    polytope_on,
    radius_pairs,
)

SEP_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class FacilityMap:
    """Opened facilities (pairwise more than 2*lam apart) plus the merge map, by position.

    `opened` holds the opened positions in ascending order.  `theta[p]` is
    the opened position that facility position p merges onto (an opened
    position maps to itself), and -1 for a position that was not scanned.
    """

    opened: np.ndarray
    theta: np.ndarray


def select_separated_facilities(
    inst: Instance, lam: float, facilities: np.ndarray | None = None
) -> FacilityMap:
    """Greedy maximal subset of `facilities` under the strict >2*lam separation predicate.

    `facilities` are point positions in ascending order, all points by
    default.  They are scanned in that order: a facility opens unless an
    already opened one lies within 2*lam, and then it merges onto the first
    such one.
    """
    if lam < 0:
        raise InputError("lambda must be non-negative")
    scan = range(inst.n) if facilities is None else facilities.tolist()
    theta = np.full(inst.n, -1)
    opened: list[int] = []
    for p in scan:
        near = np.flatnonzero(inst.dist_row(p)[opened] <= 2.0 * lam)
        if near.size:
            theta[p] = opened[near[0]]
        else:
            opened.append(p)
            theta[p] = p
    return FacilityMap(np.array(opened, dtype=int), theta)


def reroute_fractional(
    inst: Instance, frac: FractionalSolution, fmap: FacilityMap
) -> FractionalSolution:
    """Merge each facility's fractional column onto its opened representative.

    The result opens exactly fmap.opened (y = 1 there) and keeps every
    client's total assignment mass unchanged.  Merged pairs keep the order in
    which they first appear in frac, and their masses add up in pair order.
    """
    target = fmap.theta[frac.facility]
    outside = target < 0
    if outside.any():
        i = inst.id_at(frac.facility[np.argmax(outside)])
        raise ContractViolation(f"facility {i} carries mass but is outside the map")
    keys, first, merged = np.unique(
        target * inst.n + frac.client, return_index=True, return_inverse=True
    )
    mass = np.bincount(merged, weights=frac.x, minlength=keys.size)
    order = np.argsort(first)
    y = np.zeros(inst.n)
    y[fmap.opened] = 1.0
    return FractionalSolution(keys[order] // inst.n, keys[order] % inst.n, mass[order], y)


def validate_rerouted(inst: Instance, lam: float, frac: FractionalSolution):
    """Check the rerouted point against the radius-3*lam polytope families, within SEP_TOL.

    Verifies x in [0, 1], x <= y, support radius, unit coverage, color caps,
    and the opening budget.  The minimum-load family is deliberately not enforced:
    merging columns onto a maximal separated subset can leave an opened
    facility with less than ceil(1/alpha) mass, and nothing downstream
    relies on it.  A pair (i, j) beyond 3*lam is an InputError when some
    point v lies within 2*lam of i and lam of j, as the merge of an
    in-radius pair (v, j) onto i does: then d(i, j) > d(i, v) + d(v, j),
    and the distances break the triangle inequality.
    """
    fac, client, x = frac.facility, frac.client, frac.x
    bad = np.flatnonzero((x < -SEP_TOL) | (x > 1.0 + SEP_TOL))
    if bad.size:
        p = bad[0]
        raise ContractViolation(
            f"x[{inst.id_at(fac[p])},{inst.id_at(client[p])}]={x[p]} outside [0,1]"
        )
    bad = np.flatnonzero(x > frac.y[fac] + SEP_TOL)
    if bad.size:
        p = bad[0]
        raise ContractViolation(
            f"x[{inst.id_at(fac[p])},{inst.id_at(client[p])}]={x[p]} exceeds "
            f"the opening y={frac.y[fac[p]]}"
        )
    for i in np.unique(fac).tolist():
        mine = client[fac == i]
        far = mine[inst.dist_row(i)[mine] > 3.0 * lam * (1 + 1e-12) + SEP_TOL]
        if far.size:
            j = far[0]
            via = (inst.dist_row(i) <= 2.0 * lam) & (inst.dist_row(j) <= lam * (1.0 + RADIUS_SLACK))
            if via.any():
                i, v, j = inst.ids_at([i, np.argmax(via), j]).tolist()
                raise InputError(
                    f"distances break the triangle inequality: d({i},{j}) > d({i},{v}) + d({v},{j})"
                )
            raise ContractViolation(f"pair ({inst.id_at(i)},{inst.id_at(j)}) farther than 3*lambda")
    cover = np.bincount(client, weights=x, minlength=inst.n)
    bad = np.flatnonzero(np.abs(cover - 1.0) > SEP_TOL)
    if bad.size:
        raise ContractViolation(f"client {inst.id_at(bad[0])} coverage {cover[bad[0]]} != 1")
    nc = inst.n_colors
    mass = np.bincount(
        fac * nc + inst.colors()[client], weights=x, minlength=inst.n * nc
    ).reshape(inst.n, nc)
    bad = np.argwhere(mass > inst.alpha * mass.sum(axis=1, keepdims=True) + SEP_TOL)
    if bad.size:
        i, c = bad[0]
        raise ContractViolation(f"color cap broken at facility {inst.id_at(i)}, color {c}")
    if np.count_nonzero(frac.y) > inst.k:
        raise ContractViolation("more than k facilities opened")


def fair_k_center(
    inst: Instance, lam: float, restricted: Sequence[int] | None = None
) -> ClusteringSolution | None:
    """LP-guess-and-round at radius lam: None when the polytope is empty.

    The facilities are the point positions in `restricted`, in any order,
    or every point; `radius_pairs` rejects a bad set.  The polytope's point
    is merged onto a maximal >2*lam-separated subset of them, scanned in
    ascending position, and the merged point is checked
    against the radius-3*lam families (`validate_rerouted`) before a
    max-flow rounds it.  On success every point lands within 3*lam of its
    center and each cluster's color counts exceed the cap by at most two
    clients (one when 1/alpha is an integer).  A radius whose maximal
    separated facility set exceeds k is rejected the same way as an empty
    polytope so grid drivers simply advance.  The constraint rows are built
    only for in-radius pairs that pass `passes_prechecks`.  Distances that
    break the triangle inequality where the merge relies on it raise
    InputError (see `validate_rerouted`).
    """
    pairs = radius_pairs(inst, lam, restricted)
    if not passes_prechecks(pairs):
        return None
    frac = check_feasible(polytope_on(inst, pairs))
    if frac is None:
        return None

    fmap = select_separated_facilities(inst, lam, pairs.facility_pos)
    if len(fmap.opened) > inst.k:
        return None

    merged = reroute_fractional(inst, frac, fmap)
    validate_rerouted(inst, lam, merged)

    net = build_assignment_network(inst, merged, fmap.opened)
    flow = max_flow_lower_bounds(net, inst.n)
    if flow is None:
        raise ContractViolation(
            "assignment network infeasible after a feasible relaxation; "
            "this indicates a rounding bug"
        )
    assign = extract_assignment(net, flow)
    centers = tuple(sorted(set(assign.values())))
    return ClusteringSolution(centers, assign)


def one_center_stop(inst: Instance, fac: np.ndarray, grid: Sequence[float]) -> int:
    """Index of the first rung of `grid` from which every client rounds onto o, or len(grid).

    `fac` are the ascending facility positions of every rung, o = fac[0], and
    `grid` the ascending ladder up to top = grid[-1].  From rung lam on the
    walk over `fair_k_center` rungs can only merge every client onto o, and
    accepts some rung, when:
    - the >2*lam-separated set is {o}: max d(o, facilities) <= 2*lam, the
      predicate of `select_separated_facilities`;
    - the one-center point (y_o = 1, x_oj = 1 for every client, L_o = n)
      lies in the radius-top polytope: every color count <= alpha*n,
      n >= ceil(1/alpha), and every d(o, j) within the radius top;
    - every d(o, j) <= 3*lam, as the merged point's check demands.
    The second does not depend on lam and is read once; the other two only
    get easier as the radius grows, so all three hold at every later rung.
    There, `fair_k_center` rejects a rung that fails its pre-checks, and the
    top rung passes them, as its polytope holds the one-center point.  So the
    walk accepts a rung, the top one at the latest, and the merged point
    there is x_oj = 1 for every client: one cluster at o, within 3*lam.
    """
    row = inst.dist_row(int(fac[0]))
    reach = float(row.max())
    # the color share is tested exactly, without CAP_TOL: a color an ulp over
    # alpha*n breaks the one-center point's cap row, so the top polytope need
    # not hold it, and the walk's own verdict must decide
    if not (
        reach <= grid[-1] * (1.0 + RADIUS_SLACK)
        and inst.n >= ceil_inv_alpha(inst.alpha)
        and np.bincount(inst.colors()).max() <= inst.alpha * inst.n
    ):
        return len(grid)
    far = float(row[fac].max())
    return next(
        (i for i, lam in enumerate(grid) if far <= 2.0 * lam and reach <= 3.0 * lam), len(grid)
    )
